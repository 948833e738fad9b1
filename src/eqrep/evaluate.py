"""Evaluation harness: MSE reports, true-vs-predicted scatter export, the
four named experiments, each a function of the manifest it runs on (the fine
sweep, coarse sweep and interpolation all take one 1 dB single-band sweep),
and the reproduction: the run of all four on one corpus and the checks that
judge it.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .audio import DEFAULT_SAMPLE_RATE, note_corpus
from .eq import BAND_NAMES
from .features import StftConfig
from .models import (TrainConfig, predict, train_forest, train_linear, train_mlp)
from .pool import fork_map

# Default note for the reproduction runs: low fundamental with enough partials
# that every EQ band overlaps real signal energy, so all five gains are
# observable in the features.
REPRODUCTION_PITCH = "C2"
REPRODUCTION_PARTIALS = 300
MULTI_BAND_MIN_SAMPLES = 500
_LINEAR = (("linear", train_linear),)


def reproduction_corpus(sample_rate: int = DEFAULT_SAMPLE_RATE, pitches=None):
    """The reproduction's notes: the reference note, or the `pitches` labels
    synthesized like it (`note_corpus` caps the partials per note)."""
    return note_corpus([REPRODUCTION_PITCH] if pitches is None else pitches,
                       sample_rate, partial_count=REPRODUCTION_PARTIALS)


@dataclass(frozen=True)
class EvalReport:
    experiment_id: str
    model_kind: str
    overall_mse: float
    per_band_mse: np.ndarray
    n_samples: int
    seed: int
    config_digest: str = ""


@dataclass(frozen=True)
class ExperimentResult:
    report: EvalReport
    sample_ids: list
    predictions: np.ndarray
    targets: np.ndarray


def mse(predictions: np.ndarray, targets: np.ndarray):
    """(overall, per_band): mean squared error over (sample, band) pairs."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    if predictions.size == 0:
        raise ValueError("empty prediction set")
    sq = (predictions - targets) ** 2
    per_band = sq.mean(axis=0)
    return float(sq.mean()), per_band


def make_report(experiment_id, model_kind, predictions, targets, seed,
                config: dict | None = None) -> EvalReport:
    overall, per_band = mse(predictions, targets)
    digest = ""
    if config is not None:
        digest = hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()[:16]
    return EvalReport(experiment_id, model_kind, overall, per_band,
                      len(predictions), seed, digest)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "experiment_id": report.experiment_id,
        "model_kind": report.model_kind,
        "overall_mse": report.overall_mse,
        "per_band_mse": list(report.per_band_mse),
        "n_samples": report.n_samples,
        "seed": report.seed,
        "config_digest": report.config_digest,
    }


def save_report(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scatter_export(sample_ids, predictions, targets, path) -> None:
    """One CSV row per (sample, band): sample_id, band_name, true_db, predicted_db."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if not (len(sample_ids) == len(predictions) == len(targets)):
        raise ValueError("length mismatch")
    with open(path, "w") as fh:
        fh.write("sample_id,band_name,true_db,predicted_db\n")
        for sid, pred, true in zip(sample_ids, predictions, targets):
            for band, name in enumerate(BAND_NAMES):
                fh.write(f"{sid},{name},{float(true[band])!r},{float(pred[band])!r}\n")


def _fit_and_report(manifest, split, experiment_id, trainers, seed, config,
                    jobs: int = 1) -> list:
    """Fit each (kind, trainer) on the train rows of `split`, report it on the
    test rows; one ExperimentResult per trainer, in order. With `jobs` > 1
    every trainer but the last fits on worker processes, which send back only
    their test-row predictions, while the last fits in this process."""
    train_idx, test_idx = split
    x, y = manifest.feature_matrix(), manifest.target_matrix()
    ids = [manifest.samples[i].sample_id for i in test_idx]

    def fit_predict(k):
        train = trainers[k][1]
        return predict(train(x[train_idx], y[train_idx]), x[test_idx])

    *pooled, last = range(len(trainers))
    with fork_map(fit_predict, pooled, jobs) as pending:
        last_preds = fit_predict(last)
        all_preds = [*pending, last_preds]
    return [ExperimentResult(make_report(experiment_id, kind, preds, y[test_idx], seed, config),
                             ids, preds, y[test_idx])
            for (kind, _), preds in zip(trainers, all_preds)]


def _sweep_experiment(sweep, grid, experiment_id, seed) -> ExperimentResult:
    config = {"grid": list(np.asarray(grid, dtype=float)), "train_fraction": 0.8}
    split = ds.split(sweep, 0.8, seed)
    return _fit_and_report(sweep, split, experiment_id, _LINEAR, seed, config)[0]


def experiment_single_band_fine(sweep, seed: int = 42) -> ExperimentResult:
    """1 dB single-band sweep, linear regression, 80/20 held-out MSE."""
    return _sweep_experiment(sweep, ds.FINE_GRID, "single_band_fine", seed)


def experiment_single_band_coarse(sweep, seed: int = 42) -> ExperimentResult:
    """4 dB rows of the 1 dB sweep; the smaller train set degrades the held-out MSE."""
    coarse = ds.sweep_subset(sweep, ds.COARSE_GRID)
    return _sweep_experiment(coarse, ds.COARSE_GRID, "single_band_coarse", seed)


def experiment_interpolation(sweep, seed: int = 42) -> ExperimentResult:
    """Train on the 4 dB grid points of the 1 dB sweep, validate in between."""
    split = ds.interpolation_split(sweep, ds.COARSE_GRID)
    config = {"coarse_grid": list(ds.COARSE_GRID)}
    return _fit_and_report(sweep, split, "interpolation", _LINEAR, seed, config)[0]


def experiment_multi_band(manifest, seed: int = 42,
                          train_config: TrainConfig | None = None, tree_count: int = 50,
                          jobs: int = 1):
    """Multi-band 4 dB grid comparison: linear vs forest vs MLP on one shared
    80/20 split. Returns results in that order. With `jobs` > 1 the linear
    fit and the forest run on worker processes, so the forest trains beside
    the MLP; the results are the same for any `jobs`."""
    if len(manifest.samples) < MULTI_BAND_MIN_SAMPLES:
        raise ValueError(f"multi-band experiment needs >= {MULTI_BAND_MIN_SAMPLES} samples")
    cfg = train_config or TrainConfig(seed=seed)
    config = {"limit": len(manifest.samples), "hidden_dim": cfg.hidden_dim,
              "epochs": cfg.epochs, "tree_count": tree_count}
    trainers = _LINEAR + (
        ("forest", lambda x, y: train_forest(x, y, tree_count=tree_count, seed=seed)),
        ("mlp", lambda x, y: train_mlp(x, y, cfg)),
    )
    split = ds.split(manifest, 0.8, seed)
    return _fit_and_report(manifest, split, "multi_band", trainers, seed, config, jobs)


def evaluate_model(model, manifest, seed: int = 42) -> ExperimentResult:
    """One trained model scored on every row of a manifest (`eqrep eval`)."""
    targets = manifest.target_matrix()
    preds = predict(model, manifest.feature_matrix())
    kind = type(model).__name__.replace("Model", "").lower()
    return ExperimentResult(make_report("eval", kind, preds, targets, seed),
                            [s.sample_id for s in manifest.samples], preds, targets)


# ---------------------------------------------------------- reproduction


def run_reproduction(corpus, stft: StftConfig, limit: int, seed: int,
                     jobs: int = 1) -> list:
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
    by_key = {(r.report.experiment_id, r.report.model_kind): r.report.overall_mse
              for r in results}
    return [name for name, ok in CHECKS if not ok(by_key)]
