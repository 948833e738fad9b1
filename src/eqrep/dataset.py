"""Labeled dataset construction: gain grids, single-band sweeps, multi-band
Cartesian combinations, EQ application + feature extraction, and a JSON
manifest with optional CSV export.
"""

import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from .audio import write_wav
from .eq import BAND_NAMES, EqBandSpec, apply_eq, standard_bands
from .features import FEATURE_DIM, FEATURE_NAMES, StftConfig, extract_features
from .jsondoc import JsonValue
from .pool import fork_map

MANIFEST_SCHEMA_VERSION = 1

GRID_LIMIT_DB = 12.0


def gain_grid(step_db: float) -> np.ndarray:
    """Ascending grid from -12 to +12 dB in `step_db` steps. It is built from
    the integer step count, so both ends are exact; the step must divide the
    24 dB span."""
    span = 2 * GRID_LIMIT_DB
    count = round(span / step_db) if step_db > 0 else 0
    if count < 1 or not np.isclose(count * step_db, span, rtol=1e-9, atol=0.0):
        raise ValueError(f"grid step must be positive and divide {span:g} dB, got {step_db:g}")
    return np.linspace(-GRID_LIMIT_DB, GRID_LIMIT_DB, count + 1)


FINE_GRID = gain_grid(1.0)       # 25 values, 1 dB steps
COARSE_GRID = gain_grid(4.0)     # {-12,-8,-4,0,4,8,12}


def validate_grid(values_db) -> np.ndarray:
    grid = np.asarray(values_db, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("gain grid must be nonempty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("gain grid must be strictly ascending")
    if np.any(np.abs(grid) > GRID_LIMIT_DB):
        raise ValueError("gain grid values must lie within [-12, +12] dB")
    return grid


def single_band_settings(grid) -> np.ndarray:
    """One band active per setting: band-major, then ascending gain.

    A 25-value grid yields 125 settings (the 0 dB setting repeats per band)."""
    grid = validate_grid(grid)
    settings = np.zeros((5 * grid.size, 5))
    for band in range(5):
        settings[band * grid.size:(band + 1) * grid.size, band] = grid
    return settings


def multi_band_settings(grid) -> np.ndarray:
    """Full Cartesian product grid^5, lexicographic (band 0 slowest)."""
    grid = validate_grid(grid)
    return np.array(list(itertools.product(grid, repeat=5)))


@dataclass(frozen=True)
class DatasetSample:
    sample_id: str
    base_label: str
    gains_db: np.ndarray      # the applied EqSetting, 5 dB values
    features: np.ndarray      # flattened 17-dim FeatureVector


@dataclass(frozen=True)
class DatasetManifest:
    sample_rate: int
    stft: StftConfig
    bands: list
    samples: list
    split_seed: int

    def feature_matrix(self) -> np.ndarray:
        return np.array([s.features for s in self.samples])

    def target_matrix(self) -> np.ndarray:
        return np.array([s.gains_db for s in self.samples])


def build_dataset(corpus, settings, stft: StftConfig = StftConfig(),
                  limit=None, seed: int = 42, jobs: int = 1,
                  keep_audio_dir=None) -> DatasetManifest:
    """EQ every (note, setting) pair with the standard bands, extract features,
    assemble a manifest. Sample ids are `{label}-{setting index:05d}`, so the
    corpus labels must be distinct.

    With `limit`, a uniform random subset of pairs is drawn with `seed`; the
    manifest keeps settings order either way, so output is deterministic.
    With `jobs` > 1 the pairs are processed on that many fork-started worker
    processes (`pool.fork_map`); the manifest is the same for any `jobs`."""
    bands = standard_bands()
    corpus = list(corpus)
    settings = np.asarray(settings, dtype=np.float64)
    if not corpus:
        raise ValueError("corpus must be nonempty")
    labels = [label for label, _ in corpus]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"corpus repeats note label(s) {', '.join(repeated)}")
    if settings.ndim != 2 or settings.shape[1] != 5:
        raise ValueError("settings must be an (n, 5) array of dB gains")

    total = len(corpus) * len(settings)
    pair_indices = np.arange(total)
    if limit is not None:
        if not 0 < limit <= total:
            raise ValueError(f"limit must be in [1, {total}]")
        rng = np.random.default_rng(seed)
        pair_indices = np.sort(rng.choice(total, size=limit, replace=False))

    located = [divmod(int(pair), len(settings)) for pair in pair_indices]
    ids = [f"{labels[note]}-{setting:05d}" for note, setting in located]

    def features_of(k):
        note, setting = located[k]
        processed = apply_eq(corpus[note][1], settings[setting], bands)
        if keep_audio_dir is not None:
            write_wav(processed, f"{keep_audio_dir}/{ids[k]}.wav")
        return extract_features(processed, stft).to_array()

    with fork_map(features_of, range(len(located)), jobs) as rows:
        samples = [DatasetSample(ids[k], labels[note], settings[setting].copy(), row)
                   for k, ((note, setting), row) in enumerate(zip(located, rows))]

    sample_rate = corpus[0][1].sample_rate
    return DatasetManifest(sample_rate, stft, bands, samples, seed)


def split(manifest: DatasetManifest, train_fraction: float, seed: int):
    """Seeded shuffle; first floor(n * fraction) train, remainder test."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(manifest.samples)
    order = np.random.default_rng(seed).permutation(n)
    cut = int(n * train_fraction)
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


def sweep_subset(sweep: DatasetManifest, grid) -> DatasetManifest:
    """The rows of a full single-band sweep whose gain lies on `grid`: the
    manifest `build_dataset(corpus, single_band_settings(grid))` would give,
    ids renumbered per note, without a second EQ and feature pass."""
    settings = single_band_settings(grid)
    rows = np.flatnonzero(on_grid(sweep, grid))
    if not np.array_equal(sweep.target_matrix()[rows], np.resize(settings, (len(rows), 5))):
        raise ValueError("sweep must hold every grid setting once per note, in order")
    samples = [replace(s, sample_id=f"{s.base_label}-{k % len(settings):05d}")
               for k, s in enumerate(sweep.samples[i] for i in rows)]
    return replace(sweep, samples=samples)


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "sample_rate": manifest.sample_rate,
        "stft": {"frame_size": manifest.stft.frame_size, "hop_size": manifest.stft.hop_size},
        "bands": [
            {"center_hz": b.center_hz, "filter_kind": b.filter_kind, "q": b.q}
            for b in manifest.bands
        ],
        "split_seed": manifest.split_seed,
        "samples": [
            {
                "sample_id": s.sample_id,
                "base_label": s.base_label,
                "gains_db": list(s.gains_db),
                "features": list(s.features),
            }
            for s in manifest.samples
        ],
    }


def manifest_from_dict(doc: dict) -> DatasetManifest:
    """The manifest of a JSON dict. A missing key or a value of the wrong
    JSON type or shape raises ValueError naming its path."""
    doc = JsonValue(doc, "manifest")
    version = doc["schema_version"].int()
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest schema_version {version}")
    samples = [
        DatasetSample(
            sample_id=s["sample_id"].str(),
            base_label=s["base_label"].str(),
            gains_db=s["gains_db"].array((5,)),
            features=s["features"].array((FEATURE_DIM,)),
        )
        for s in doc["samples"].elements()
    ]
    stft = doc["stft"]
    return DatasetManifest(
        sample_rate=doc["sample_rate"].int(),
        stft=StftConfig(stft["frame_size"].int(), stft["hop_size"].int()),
        bands=[EqBandSpec(b["center_hz"].number(), b["filter_kind"].str(), b["q"].number())
               for b in doc["bands"].elements()],
        samples=samples,
        split_seed=doc["split_seed"].int(),
    )


def save_manifest(manifest: DatasetManifest, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest_to_dict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> DatasetManifest:
    with open(path) as fh:
        return manifest_from_dict(json.load(fh))


def export_csv(manifest: DatasetManifest, path) -> None:
    """Flat per-sample view: id, label, five gains, then the 17 features."""
    gain_cols = [name.lower() for name in BAND_NAMES]
    header = ["sample_id", "base_label"] + gain_cols + FEATURE_NAMES
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in manifest.samples:
            row = [s.sample_id, s.base_label]
            row += [repr(float(g)) for g in s.gains_db]
            row += [repr(float(v)) for v in s.features]
            fh.write(",".join(row) + "\n")
