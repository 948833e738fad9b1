"""Labeled dataset construction: gain grids, single-band sweeps, multi-band
Cartesian combinations, EQ application + feature extraction, and a JSON
manifest with optional CSV export.
"""

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import jsondoc, rng
from .audio import check_distinct_labels, write_wav
from .eq import BAND_COUNT, BANDS, GAIN_LIMIT_DB, apply_eq, band_labels
from .features import FeatureContract, StftConfig
from .pool import fork_map

MANIFEST_SCHEMA_VERSION = 1

GRID_LIMIT_DB = 12.0
MIN_GRID_STEP_DB = 0.001  # keeps every grid at 24 001 values or fewer

TRAIN_FRACTION = 0.8  # the paper's 80/20 held-out split


def gain_grid(step_db: float) -> np.ndarray:
    """Ascending grid from -12 to +12 dB in `step_db` steps. It is built from
    the integer step count, so both ends are exact; the step must divide the
    24 dB span and be at least MIN_GRID_STEP_DB, checked before any array is made."""
    span = 2 * GRID_LIMIT_DB
    count = round(span / step_db) if step_db >= MIN_GRID_STEP_DB else 0
    if count < 1 or not np.isclose(count * step_db, span, rtol=1e-9, atol=0.0):
        raise ValueError(f"grid step must be at least {MIN_GRID_STEP_DB:g} dB and divide "
                         f"{span:g} dB, got {step_db:g}")
    return np.linspace(-GRID_LIMIT_DB, GRID_LIMIT_DB, count + 1)


FINE_GRID = gain_grid(1.0)       # 25 values, 1 dB steps
COARSE_GRID = gain_grid(4.0)     # {-12,-8,-4,0,4,8,12}


def validate_grid(values_db) -> np.ndarray:
    grid = np.asarray(values_db, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("gain grid must be nonempty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("gain grid must be strictly ascending")
    if not np.all(np.abs(grid) <= GRID_LIMIT_DB):  # false for NaN too
        raise ValueError("gain grid values must lie within [-12, +12] dB")
    return grid


def single_band_settings(grid) -> np.ndarray:
    """One band active per setting: band-major, then ascending gain.

    A 25-value grid yields 125 settings (the 0 dB setting repeats per band)."""
    grid = validate_grid(grid)
    settings = np.zeros((BAND_COUNT, grid.size, BAND_COUNT))
    settings[range(BAND_COUNT), :, range(BAND_COUNT)] = grid  # band b's block sets column b
    return settings.reshape(-1, BAND_COUNT)


def multi_band_settings(grid) -> np.ndarray:
    """Full Cartesian product grid^5, lexicographic (band 0 slowest)."""
    grid = validate_grid(grid)
    return grid[np.indices((grid.size,) * BAND_COUNT).reshape(BAND_COUNT, -1).T]


def sample_table(ids, labels, gains, features) -> np.recarray:
    """The read-only record array of n manifest rows: str ids and labels, the
    applied gains (n, targets) and the features (n, width), whose widths it takes."""
    gains, features = (np.asarray(a, dtype=np.float64) for a in (gains, features))
    if not len(ids) == len(gains) == len(features):
        raise ValueError(f"{len(ids)} ids, {len(gains)} gain rows and {len(features)} feature rows")
    # Ids and labels are str objects: a fixed-width field drops a trailing NUL.
    table = np.recarray(len(ids), [("sample_id", object), ("base_label", object),
                                   ("gains_db", np.float64, (gains.shape[1],)),
                                   ("features", np.float64, (features.shape[1],))])
    table.sample_id = ids
    table.base_label = labels
    table.gains_db = gains
    table.features = features
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class DatasetManifest:
    contract: FeatureContract  # of every row's features
    samples: np.recarray  # a `sample_table`; the matrices are its read-only column views
    # The seed build_dataset drew its subsample with. `train` splits by its
    # own --seed and `eval` scores every row, so neither reads this one.
    split_seed: int

    @property
    def stft(self) -> StftConfig:
        return self.contract.stft

    def feature_matrix(self) -> np.ndarray:
        return self.samples.features

    def target_matrix(self) -> np.ndarray:
        return self.samples.gains_db


def build_dataset(corpus, settings, stft: StftConfig = StftConfig(),
                  limit=None, seed: int = 42, jobs: int = 1,
                  keep_audio_dir=None) -> DatasetManifest:
    """EQ every (note, setting) pair with the five bands, extract features,
    assemble a manifest. Sample ids are `{label}-{setting index:05d}`, so the
    corpus labels must be distinct; the notes must share one sample rate,
    which with `stft` makes the feature contract the manifest records.

    With `limit`, the pairs taken are those with the smallest outputs of
    their `seed`'s subsample stream; the manifest keeps settings order.
    With `jobs` > 1 the pairs are processed on that many fork-started worker
    processes (`pool.fork_map`); the manifest is the same for any `jobs`."""
    corpus = list(corpus)
    settings = np.asarray(settings, dtype=np.float64)
    if not corpus:
        raise ValueError("corpus must be nonempty")
    labels = [label for label, _ in corpus]
    check_distinct_labels(labels)
    sample_rate = corpus[0][1].sample_rate
    for label, buf in corpus:
        if buf.sample_rate != sample_rate:
            raise ValueError(f"note {label}: sample rate {buf.sample_rate} != "
                             f"{sample_rate} of note {labels[0]}")
        stft.check_length(len(buf), f"note {label}: ")
    if settings.ndim != 2 or settings.shape[1] != BAND_COUNT:
        raise ValueError(f"settings must be an (n, {BAND_COUNT}) array of dB gains")

    total = len(corpus) * len(settings)
    pair_indices = np.arange(total)
    if limit is not None:
        if not 0 < limit <= total:
            raise ValueError(f"limit must be in [1, {total}]")
        z = rng.splitmix64([rng.key(seed, "subsample")], total)[0]
        pair_indices = np.sort(np.argpartition(z, limit - 1)[:limit])

    contract = FeatureContract(sample_rate, stft)
    note, setting = np.divmod(pair_indices, len(settings))
    ids = [f"{labels[n]}-{s:05d}" for n, s in zip(note.tolist(), setting.tolist())]

    def features_of(k):
        processed = apply_eq(corpus[note[k]][1], settings[setting[k]])
        if keep_audio_dir is not None:
            write_wav(processed, f"{keep_audio_dir}/{ids[k]}.wav")
        return contract.extract(processed)

    rows = fork_map(features_of, range(len(ids)), jobs)
    samples = sample_table(ids, [labels[n] for n in note], settings[setting],
                           np.reshape(rows, (len(ids), contract.width)))
    return DatasetManifest(contract, samples, seed)


def split(manifest: DatasetManifest, seed: int):
    """Seeded shuffle; first floor(n * TRAIN_FRACTION) train, remainder test."""
    n = len(manifest.samples)
    order = rng.permutation(rng.key(seed, "split"), n)
    cut = int(n * TRAIN_FRACTION)
    train, test = order[:cut], order[cut:]
    if len(train) == 0 or len(test) == 0:
        raise ValueError("split produced an empty side")
    return train, test


def on_grid(manifest: DatasetManifest, grid) -> np.ndarray:
    """Row mask of a single-band sweep manifest: True where the active band's
    gain (0 dB for the flat setting) lies on `grid`."""
    grid = validate_grid(grid)
    gains = manifest.target_matrix()
    if np.any(np.count_nonzero(gains, axis=1) > 1):
        raise ValueError("a single-band sweep manifest is required")
    return np.isclose(grid, gains.sum(axis=1)[:, None]).any(axis=1)


def interpolation_split(manifest: DatasetManifest, coarse_grid):
    """Single-band sweep split: samples whose active-band gain sits on the
    coarse grid train; the in-between gains validate."""
    train = on_grid(manifest, coarse_grid)
    if train.all():
        raise ValueError("coarse grid covers the whole sweep; validation set empty")
    return np.flatnonzero(train), np.flatnonzero(~train)


def _check_bands(bands: jsondoc.JsonValue) -> None:
    """Type-check a manifest's band list, then refuse one other than BANDS:
    features made with other bands cannot be labelled with BAND_NAMES."""
    rows = bands.elements()
    got = [{"center_hz": b["center_hz"].number(), "filter_kind": b["filter_kind"].str(),
            "q": b["q"].number()} for b in rows]
    if len(got) != len(BANDS):
        raise ValueError(f"{bands.what} {bands.path}: expected {len(BANDS)} bands, got {len(got)}")
    for row, band, spec in zip(rows, got, BANDS):
        if band != asdict(spec):
            raise ValueError(f"{row.what} {row.path}: expected {asdict(spec)}, got {band}")


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    samples = manifest.samples
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "sample_rate": manifest.contract.sample_rate,
        "stft": asdict(manifest.stft),
        "bands": [asdict(spec) for spec in BANDS],
        "split_seed": manifest.split_seed,
        "samples": [
            {"sample_id": sid, "base_label": label, "gains_db": gains, "features": feats}
            for sid, label, gains, feats in zip(samples.sample_id, samples.base_label,
                                                samples.gains_db.tolist(),
                                                samples.features.tolist())
        ],
    }


def manifest_from_dict(doc: dict) -> DatasetManifest:
    """The manifest of a JSON dict, or a ValueError naming the key path."""
    doc = jsondoc.JsonValue(doc, "manifest")
    doc["schema_version"].int(MANIFEST_SCHEMA_VERSION, MANIFEST_SCHEMA_VERSION)
    rows = doc["samples"].elements()
    width = FeatureContract.width
    samples = sample_table([s["sample_id"].str() for s in rows],
                           [s["base_label"].str() for s in rows],
                           np.reshape([s["gains_db"].array((BAND_COUNT,), low=-GAIN_LIMIT_DB,
                                                           high=GAIN_LIMIT_DB) for s in rows],
                                      (-1, BAND_COUNT)),
                           np.reshape([s["features"].array((width,)) for s in rows], (-1, width)))
    _check_bands(doc["bands"])
    return DatasetManifest(FeatureContract.from_doc(doc, doc["stft"]), samples,
                           doc["split_seed"].int())


def save_manifest(manifest: DatasetManifest, path) -> None:
    jsondoc.write(manifest_to_dict(manifest), path)


def load_manifest(path) -> DatasetManifest:
    with open(path) as fh:
        return manifest_from_dict(json.load(fh))


def export_csv(manifest: DatasetManifest, path) -> None:
    """Flat per-sample view: id, label, five gains, then the features."""
    samples = manifest.samples
    header = ["sample_id", "base_label",
              *(name.lower() for name in band_labels(samples.gains_db.shape[1])),
              *manifest.contract.names]
    rows = zip(samples.sample_id, samples.base_label,
               samples.gains_db.tolist(), samples.features.tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([sid, label, *gains, *feats] for sid, label, gains, feats in rows)
