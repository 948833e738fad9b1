"""Evaluation harness: MSE reports, true-vs-predicted scatter export, the
four named experiments, each a function of the manifest it runs on (the fine
sweep, coarse sweep and interpolation all take one 1 dB single-band sweep),
and the reproduction: the run of all four on one corpus and the checks that
judge it.
"""

import csv
import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import dataset as ds
from . import jsondoc
from .audio import DEFAULT_SAMPLE_RATE, note_corpus
from .eq import BAND_NAMES
from .features import StftConfig
from .models import MODEL_KINDS, LinearModel, TrainConfig, predict, train_linear
from .pool import fork_map

# Default note for the reproduction runs: low fundamental with enough partials
# that every EQ band overlaps real signal energy, so all five gains are
# observable in the features.
REPRODUCTION_PITCH = "C2"
REPRODUCTION_PARTIALS = 300
MULTI_BAND_MIN_SAMPLES = 500


def reproduction_corpus(sample_rate: int = DEFAULT_SAMPLE_RATE, pitches=None):
    """The reproduction's notes: the reference note, or the `pitches` labels
    synthesized like it (`note_corpus` caps the partials per note)."""
    return note_corpus([REPRODUCTION_PITCH] if pitches is None else pitches,
                       sample_rate, partial_count=REPRODUCTION_PARTIALS)


@dataclass(frozen=True)
class ExperimentResult:
    """One model's held-out predictions in one experiment; its MSEs derive from them."""
    experiment_id: str
    model_kind: str
    seed: int
    config_digest: str
    sample_ids: list
    predictions: np.ndarray
    targets: np.ndarray

    @property
    def overall_mse(self) -> float:
        return mse(self.predictions, self.targets)[0]


def mse(predictions: np.ndarray, targets: np.ndarray):
    """(overall, per_band): mean squared error over (sample, band) pairs."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    if predictions.size == 0:
        raise ValueError("empty prediction set")
    with np.errstate(over="ignore"):  # a finite prediction far off the grid scores inf
        sq = (predictions - targets) ** 2
    per_band = sq.mean(axis=0)
    return float(sq.mean()), per_band


def digest(config: dict) -> str:
    """A `config_digest`: 16 hex digits of the sha256 of sorted-key JSON `config`."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def report_to_dict(result: ExperimentResult) -> dict:
    overall, per_band = mse(result.predictions, result.targets)
    return {
        "experiment_id": result.experiment_id,
        "model_kind": result.model_kind,
        "overall_mse": overall,
        "per_band_mse": list(per_band),
        "n_samples": len(result.predictions),
        "seed": result.seed,
        "config_digest": result.config_digest,
    }


def save_report(result: ExperimentResult, path) -> None:
    jsondoc.write(report_to_dict(result), path)


def scatter_export(result: ExperimentResult, path) -> None:
    """One CSV row per (sample, band): sample_id, band_name, true_db, predicted_db."""
    predictions = np.asarray(result.predictions, dtype=np.float64)
    targets = np.asarray(result.targets, dtype=np.float64)
    if not (len(result.sample_ids) == len(predictions) == len(targets)):
        raise ValueError("length mismatch")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "band_name", "true_db", "predicted_db"])
        for sid, pred, true in zip(result.sample_ids, predictions.tolist(), targets.tolist()):
            writer.writerows([sid, name, t, p] for name, t, p in zip(BAND_NAMES, true, pred))


def _fit_and_report(manifest, split, experiment_id, kinds, seed, config,
                    jobs: int = 1) -> list:
    """Fit each model kind with `TrainConfig(seed=seed)` on the train rows of
    `split`, report it on the test rows; one ExperimentResult per kind, in
    order. With `jobs` > 1 the kinds fit on worker processes, which send
    back only their test-row predictions."""
    train_idx, test_idx = split
    x, y = manifest.feature_matrix(), manifest.target_matrix()
    ids = manifest.samples.sample_id[test_idx].tolist()
    cfg = TrainConfig(seed=seed)

    def fit_predict(kind):
        model = MODEL_KINDS[kind].fit(x[train_idx], y[train_idx], cfg)
        return predict(model, x[test_idx])

    all_preds = fork_map(fit_predict, kinds, jobs)
    return [ExperimentResult(experiment_id, kind, seed, digest(config), ids, preds, y[test_idx])
            for kind, preds in zip(kinds, all_preds)]


def _sweep_experiment(sweep, grid, experiment_id, seed) -> ExperimentResult:
    """Leave-one-out: each row is predicted by a linear fit on all the other
    rows. Every row is scored, and the result does not depend on `seed`,
    which the report only records."""
    config = {"grid": list(np.asarray(grid, dtype=float)), "scoring": "leave_one_out"}
    x, y = sweep.feature_matrix(), sweep.target_matrix()
    rest = ~np.eye(len(x), dtype=bool)
    preds = np.array([predict(train_linear(x[others], y[others]), row)
                      for row, others in zip(x, rest)])
    return ExperimentResult(experiment_id, LinearModel.kind, seed, digest(config),
                            sweep.samples.sample_id.tolist(), preds, y)


def experiment_single_band_fine(sweep, seed: int) -> ExperimentResult:
    """1 dB single-band sweep, linear regression, leave-one-out MSE."""
    return _sweep_experiment(sweep, ds.FINE_GRID, "single_band_fine", seed)


def experiment_single_band_coarse(sweep, seed: int) -> ExperimentResult:
    """The 4 dB rows of the 1 dB sweep, ids kept; the fewer fitting rows degrade the MSE."""
    coarse = sweep.samples[ds.on_grid(sweep, ds.COARSE_GRID)]
    coarse.flags.writeable = False
    return _sweep_experiment(replace(sweep, samples=coarse), ds.COARSE_GRID,
                             "single_band_coarse", seed)


def experiment_interpolation(sweep, seed: int) -> ExperimentResult:
    """Train on the 4 dB grid points of the 1 dB sweep, validate in between."""
    split = ds.interpolation_split(sweep, ds.COARSE_GRID)
    config = {"coarse_grid": list(ds.COARSE_GRID)}
    return _fit_and_report(sweep, split, "interpolation", [LinearModel.kind], seed, config)[0]


def experiment_multi_band(manifest, seed: int, jobs: int = 1):
    """Multi-band 4 dB grid comparison of every model kind on one shared
    80/20 split, with results in MODEL_KINDS order: linear, forest, MLP. With
    `jobs` > 1 the three fit on worker processes, so the forest trains
    beside the MLP; the results are the same for any `jobs`."""
    if len(manifest.samples) < MULTI_BAND_MIN_SAMPLES:
        raise ValueError(f"multi-band experiment needs >= {MULTI_BAND_MIN_SAMPLES} samples")
    config = {"limit": len(manifest.samples), "hidden_dim": TrainConfig.hidden_dim,
              "epochs": TrainConfig.epochs, "tree_count": TrainConfig.trees}
    split = ds.split(manifest, seed)
    return _fit_and_report(manifest, split, "multi_band", list(MODEL_KINDS), seed, config, jobs)


def evaluate_model(model, manifest, seed: int) -> ExperimentResult:
    """One trained model scored on every row of a manifest (`eqrep eval`)."""
    targets = manifest.target_matrix()
    preds = predict(model, manifest.feature_matrix())
    return ExperimentResult("eval", model.kind, seed, "", manifest.samples.sample_id.tolist(),
                            preds, targets)


# ---------------------------------------------------------- reproduction


def run_reproduction(corpus, stft: StftConfig, limit: int, seed: int, jobs: int) -> list:
    """The four experiments on `corpus`: the fine sweep, coarse sweep and
    interpolation share one 1 dB single-band sweep, and the model comparison
    runs on `limit` samples of the 4 dB multi-band grid. Each dataset is
    built once. Returns the six results: the three sweeps' linear fits,
    then linear, forest and MLP on the multi-band set."""
    sweep = ds.build_dataset(corpus, ds.single_band_settings(ds.FINE_GRID),
                             stft=stft, seed=seed, jobs=jobs)
    results = [
        experiment_single_band_fine(sweep, seed),
        experiment_single_band_coarse(sweep, seed),
        experiment_interpolation(sweep, seed),
    ]
    multi = ds.build_dataset(corpus, ds.multi_band_settings(ds.COARSE_GRID), stft=stft,
                             limit=limit, seed=seed, jobs=jobs)
    return results + experiment_multi_band(multi, seed, jobs=jobs)


# The reproduction's pass/fail criteria, in report order: a name and a
# predicate over {(experiment_id, model_kind): overall MSE}. They are
# calibrated for the reference note.
CHECKS = (
    ("fine sweep MSE <= 0.5",
     lambda m: m["single_band_fine", "linear"] <= 0.5),
    ("coarse sweep MSE >= fine sweep MSE",
     lambda m: m["single_band_coarse", "linear"] >= m["single_band_fine", "linear"]),
    ("interpolation MSE <= coarse sweep MSE",
     lambda m: m["interpolation", "linear"] <= m["single_band_coarse", "linear"]),
    ("MLP MSE < linear MSE",
     lambda m: m["multi_band", "mlp"] < m["multi_band", "linear"]),
    ("MLP MSE <= 1.0",
     lambda m: m["multi_band", "mlp"] <= 1.0),
)


def failed_checks(results) -> list:
    """The names of the CHECKS that `results` fail, in table order."""
    by_key = {(r.experiment_id, r.model_kind): r.overall_mse for r in results}
    return [name for name, ok in CHECKS if not ok(by_key)]
