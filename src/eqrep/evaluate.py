"""Evaluation harness: MSE reports, true-vs-predicted scatter export, the
four named experiments and the reproduction, which runs all four on one
corpus and judges them. Each experiment is a list of (train, test) row folds
of its manifest and a list of model kinds, scored by one routine; the fine
sweep, coarse sweep and interpolation all take one 1 dB single-band sweep.
"""

import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from . import jsondoc
from .audio import DEFAULT_SAMPLE_RATE, note_corpus
from .eq import band_labels
from .features import StftConfig
from .models import MODEL_KINDS, LinearModel, TrainConfig, predict
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
    names = band_labels(targets.shape[1])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "band_name", "true_db", "predicted_db"])
        for sid, pred, true in zip(result.sample_ids, predictions.tolist(), targets.tolist()):
            writer.writerows([sid, name, t, p] for name, t, p in zip(names, true, pred))


def _experiment(manifest, folds, experiment_id, kinds, seed, config, jobs: int = 1) -> list:
    """Fit each model kind with `TrainConfig(seed=seed)` on every fold's
    train rows and predict that fold's test rows; one ExperimentResult per
    kind, in order, over the folds' test rows in fold order. The kinds fit on
    up to `jobs` worker processes, which send back only their predictions."""
    x, y = manifest.feature_matrix(), manifest.target_matrix()
    test = np.concatenate([rows for _, rows in folds])
    ids = manifest.samples.sample_id[test].tolist()
    cfg = TrainConfig(seed=seed)

    def fit_predict(kind):
        return np.concatenate([predict(MODEL_KINDS[kind].fit(x[train], y[train], cfg), x[rows])
                               for train, rows in folds])

    return [ExperimentResult(experiment_id, kind, seed, digest(config), ids, preds, y[test])
            for kind, preds in zip(kinds, fork_map(fit_predict, kinds, jobs))]


def _leave_one_out(rows, grid) -> tuple:
    """(folds, config) of a sweep scored leave-one-out over `rows`: each row is
    tested by a fit on the other rows, so the seed is only recorded."""
    config = {"grid": list(np.asarray(grid, dtype=float)), "scoring": "leave_one_out"}
    return [(np.delete(rows, i), rows[i:i + 1]) for i in range(len(rows))], config


def experiment_single_band_fine(sweep, seed: int) -> ExperimentResult:
    """1 dB single-band sweep, linear regression, leave-one-out MSE."""
    folds, config = _leave_one_out(np.arange(len(sweep.samples)), ds.FINE_GRID)
    return _experiment(sweep, folds, "single_band_fine", [LinearModel.kind], seed, config)[0]


def experiment_single_band_coarse(sweep, seed: int) -> ExperimentResult:
    """Leave-one-out over the sweep's own 4 dB rows, ids kept; the fewer
    fitting rows degrade the MSE."""
    rows = np.flatnonzero(ds.on_grid(sweep, ds.COARSE_GRID))
    folds, config = _leave_one_out(rows, ds.COARSE_GRID)
    return _experiment(sweep, folds, "single_band_coarse", [LinearModel.kind], seed, config)[0]


def experiment_interpolation(sweep, seed: int) -> ExperimentResult:
    """Train on the 4 dB grid points of the 1 dB sweep, validate in between."""
    folds = [ds.interpolation_split(sweep, ds.COARSE_GRID)]
    config = {"coarse_grid": list(ds.COARSE_GRID)}
    return _experiment(sweep, folds, "interpolation", [LinearModel.kind], seed, config)[0]


def experiment_multi_band(manifest, seed: int, jobs: int = 1):
    """Multi-band 4 dB grid comparison of every model kind on one shared
    80/20 split, with results in MODEL_KINDS order: linear, forest, MLP. The
    three fit on up to `jobs` worker processes, so with two or more the forest
    trains beside the MLP; the results are the same for any `jobs`."""
    if len(manifest.samples) < MULTI_BAND_MIN_SAMPLES:
        raise ValueError(f"multi-band experiment needs >= {MULTI_BAND_MIN_SAMPLES} samples")
    config = {"limit": len(manifest.samples), "hidden_dim": TrainConfig.hidden_dim,
              "epochs": TrainConfig.epochs, "tree_count": TrainConfig.trees}
    folds = [ds.split(manifest, seed)]
    return _experiment(manifest, folds, "multi_band", list(MODEL_KINDS), seed, config, jobs)


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
