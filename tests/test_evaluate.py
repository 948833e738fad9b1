import csv
import warnings

import numpy as np
import pytest

from eqrep import dataset as ds
from eqrep import evaluate as ev
from eqrep.audio import note_corpus
from eqrep.eq import BAND_NAMES
from eqrep.features import FEATURE_DIM, FeatureContract, StftConfig
from eqrep.models import MODEL_KINDS, TrainConfig, predict, train_linear


class TestMse:
    def test_perfect_predictions(self):
        preds = np.zeros((4, 5))
        overall, per_band = ev.mse(preds, preds)
        assert overall == 0.0
        np.testing.assert_array_equal(per_band, np.zeros(5))

    def test_unit_error(self):
        overall, _ = ev.mse(np.ones((1, 5)), np.zeros((1, 5)))
        assert overall == 1.0

    def test_hand_case(self):
        preds = np.zeros((2, 5))
        targets = np.zeros((2, 5))
        targets[1, 2] = 2.0  # one squared error of 4 out of 10 cells
        overall, per_band = ev.mse(preds, targets)
        assert overall == pytest.approx(0.4)
        assert per_band[2] == pytest.approx(2.0)

    def test_symmetry_and_translation(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 5))
        b = rng.standard_normal((10, 5))
        assert ev.mse(a, b)[0] == ev.mse(b, a)[0]
        assert ev.mse(a + 3.5, b + 3.5)[0] == pytest.approx(ev.mse(a, b)[0])

    def test_overall_is_band_mean(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((8, 5)), rng.standard_normal((8, 5))
        overall, per_band = ev.mse(a, b)
        assert overall == pytest.approx(per_band.mean())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ev.mse(np.zeros((2, 5)), np.zeros((3, 5)))

    def test_empty(self):
        with pytest.raises(ValueError):
            ev.mse(np.zeros((0, 5)), np.zeros((0, 5)))

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ev.mse(np.full((2, 5), 1e200), np.zeros((2, 5)))[0] == np.inf


def _scatter_import(path):
    """Parse a scatter CSV back to (sample_ids, predictions, targets)."""
    ids, preds, trues = [], {}, {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for sid, name, true_db, pred_db in rows:
            if sid not in preds:
                ids.append(sid)
                preds[sid], trues[sid] = [0.0] * 5, [0.0] * 5
            band = BAND_NAMES.index(name)
            preds[sid][band] = float(pred_db)
            trues[sid][band] = float(true_db)
    return ids, np.array([preds[i] for i in ids]), np.array([trues[i] for i in ids])


def _result(ids, predictions, targets):
    return ev.ExperimentResult("exp", "linear", 1, "", ids, predictions, targets)


class TestScatterExport:
    def test_row_count_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 25
        # the last ids hold the CSV delimiter and quote character
        ids = [f"s{i}" for i in range(n - 3)] + ["C,4-00001", 'say "a"', '"b,c",']
        preds = rng.standard_normal((n, 5))
        targets = rng.standard_normal((n, 5))
        path = tmp_path / "scatter.csv"
        ev.scatter_export(_result(ids, preds, targets), path)
        with open(path, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + n * 5

        back_ids, back_preds, back_targets = _scatter_import(path)
        assert back_ids == ids
        np.testing.assert_array_equal(back_preds, preds)
        np.testing.assert_array_equal(back_targets, targets)
        # MSE recomputed from the file equals the original exactly
        assert ev.mse(back_preds, back_targets)[0] == ev.mse(preds, targets)[0]

    def test_identity_predictions(self, tmp_path):
        ids = ["a", "b"]
        targets = np.arange(10.0).reshape(2, 5)
        path = tmp_path / "scatter.csv"
        ev.scatter_export(_result(ids, targets, targets), path)
        for line in path.read_text().strip().split("\n")[1:]:
            _, _, true_db, pred_db = line.split(",")
            assert true_db == pred_db

    @pytest.mark.parametrize("width", [3, 7])
    def test_other_target_widths_are_refused(self, tmp_path, width):
        """Columns are labelled by band, so a width other than five has no
        labels: the writer refuses it, naming both widths, and writes nothing."""
        targets = np.zeros((2, width))
        path = tmp_path / "scatter.csv"
        with pytest.raises(ValueError, match=rf"^{width} target columns cannot be labelled "
                                             r"by the 5 band names$"):
            ev.scatter_export(_result(["a", "b"], targets, targets), path)
        assert not path.exists()


class TestReports:
    def test_report_fields(self):
        rng = np.random.default_rng(3)
        preds, targets = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
        result = ev.ExperimentResult("exp", "linear", 1, ev.digest({"a": 1}),
                                     [f"s{i}" for i in range(6)], preds, targets)
        doc = ev.report_to_dict(result)
        assert doc["n_samples"] == 6
        assert doc["overall_mse"] == result.overall_mse == ev.mse(preds, targets)[0]
        assert doc["overall_mse"] == pytest.approx(np.mean(doc["per_band_mse"]))
        assert doc["config_digest"] and doc["config_digest"] != ev.digest({"a": 2})
        assert doc["experiment_id"] == "exp" and doc["model_kind"] == "linear"

    def test_save_is_deterministic(self, tmp_path):
        preds = np.ones((3, 5))
        targets = np.zeros((3, 5))
        result = _result(["a", "b", "c"], preds, targets)
        ev.save_report(result, tmp_path / "a.json")
        ev.save_report(result, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.fixture(scope="module")
def small_sweep():
    from eqrep.audio import NoteSpec, synthesize_note
    corpus = [("C2", synthesize_note(NoteSpec("C2", 65.40639132514966, 0.3, 100), 44100))]
    return ds.build_dataset(corpus, ds.single_band_settings(ds.FINE_GRID))


class TestExperimentShapes:
    """Cheap structural checks; the full-scale runs live in the acceptance suite."""

    def test_fine_dataset_size(self, small_sweep):
        result = ev.experiment_single_band_fine(small_sweep, seed=0)
        # 125 samples, leave-one-out: every row held out once
        assert ev.report_to_dict(result)["n_samples"] == 125
        assert result.overall_mse >= 0
        assert np.isfinite(result.overall_mse)

    def test_interpolation_sizes(self, small_sweep):
        result = ev.experiment_interpolation(small_sweep, seed=0)
        assert ev.report_to_dict(result)["n_samples"] == 90
        for target in result.targets:
            active = target[target != 0]
            assert active.size == 1 and active[0] % 4 != 0

    def test_coarse_determinism(self, small_sweep):
        a = ev.experiment_single_band_coarse(small_sweep, seed=3)
        b = ev.experiment_single_band_coarse(small_sweep, seed=3)
        assert ev.report_to_dict(a) == ev.report_to_dict(b)
        np.testing.assert_array_equal(a.predictions, b.predictions)

    def test_coarse_ids_name_the_sweep_rows_of_their_targets(self, small_sweep):
        """A coarse scatter id is the sweep row whose gains it reports, so the
        three sweep scatter files join on `sample_id`."""
        result = ev.experiment_single_band_coarse(small_sweep, seed=3)
        gains = dict(zip(small_sweep.samples.sample_id, small_sweep.target_matrix()))
        assert len(result.sample_ids) == 35
        for sid, target in zip(result.sample_ids, result.targets):
            np.testing.assert_array_equal(gains[sid], target)

    def test_multi_band_limit_guard(self):
        samples = ds.sample_table([f"s{i}" for i in range(100)], ["x"] * 100,
                                  np.zeros((100, 5)), np.zeros((100, FEATURE_DIM)))
        manifest = ds.DatasetManifest(FeatureContract(), samples, 0)
        with pytest.raises(ValueError):
            ev.experiment_multi_band(manifest, seed=0)


@pytest.mark.parametrize("pitches", ["C3", "C3,G4"])
def test_coarse_experiment_on_the_sweep_equals_one_on_a_coarse_build(pitches):
    """The sweep's 4 dB rows are the rows a coarse build makes, so the coarse
    experiment on either gives the same numbers; only the ids differ."""
    corpus = note_corpus(pitches.split(","), 44100, duration_s=0.1, partial_count=40)
    stft = StftConfig(2048, 512)
    sweep = ds.build_dataset(corpus, ds.single_band_settings(ds.FINE_GRID), stft=stft)
    coarse = ds.build_dataset(corpus, ds.single_band_settings(ds.COARSE_GRID), stft=stft)
    rows = ds.on_grid(sweep, ds.COARSE_GRID)
    assert sweep.samples.base_label[rows].tolist() == coarse.samples.base_label.tolist()
    np.testing.assert_array_equal(sweep.target_matrix()[rows], coarse.target_matrix())
    np.testing.assert_array_equal(sweep.feature_matrix()[rows], coarse.feature_matrix())
    taken = ev.experiment_single_band_coarse(sweep, 42)
    built = ev.experiment_single_band_coarse(coarse, 42)
    assert ev.report_to_dict(taken) == ev.report_to_dict(built)
    np.testing.assert_array_equal(taken.predictions, built.predictions)
    np.testing.assert_array_equal(taken.targets, built.targets)


@pytest.mark.parametrize("sample_rate", [22050, 44100])
def test_sweep_results_do_not_depend_on_the_seed(sample_rate):
    """Leave-one-out scores every row of the sweep with a fit on all the
    others, so seeds 1, 42 and 118 give the same fine, coarse and
    interpolation results, and the three sweep checks pass on each. Seed 118
    failed "coarse sweep MSE >= fine sweep MSE" at both rates under an 80/20
    split of the sweep."""
    sweep = ds.build_dataset(ev.reproduction_corpus(sample_rate),
                             ds.single_band_settings(ds.FINE_GRID))
    experiments = (ev.experiment_single_band_fine, ev.experiment_single_band_coarse,
                   ev.experiment_interpolation)
    runs = {seed: [run(sweep, seed) for run in experiments] for seed in (1, 42, 118)}
    assert [len(r.predictions) for r in runs[42]] == [125, 35, 90]
    for seed, results in runs.items():
        for reference, result in zip(runs[42], results):
            assert ev.report_to_dict(result) == dict(ev.report_to_dict(reference), seed=seed)
            assert result.sample_ids == reference.sample_ids
            np.testing.assert_array_equal(result.predictions, reference.predictions)
        mse = {(r.experiment_id, r.model_kind): r.overall_mse for r in results}
        assert [name for name, ok in ev.CHECKS[:3] if not ok(mse)] == []


def test_multi_band_jobs_give_identical_results():
    """Fits on worker processes send back the same predictions and reports."""
    manifest = _synthetic_multi_band()
    serial = ev.experiment_multi_band(manifest, 1, jobs=1)
    pooled = ev.experiment_multi_band(manifest, 1, jobs=2)
    assert [r.model_kind for r in pooled] == ["linear", "forest", "mlp"]
    for a, b in zip(serial, pooled):
        assert ev.report_to_dict(a) == ev.report_to_dict(b)
        assert a.sample_ids == b.sample_ids
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.targets, b.targets)


def _synthetic_multi_band():
    """600 rows of 4 dB grid gains, features a noisy linear mix of them."""
    rng = np.random.default_rng(4)
    gains = rng.choice(ds.COARSE_GRID, size=(600, 5))
    mixing = rng.standard_normal((5, FEATURE_DIM))
    feats = gains @ mixing + 0.1 * rng.standard_normal((600, FEATURE_DIM))
    samples = ds.sample_table([f"s{i}" for i in range(600)], ["x"] * 600, gains, feats)
    return ds.DatasetManifest(FeatureContract(), samples, 0)


def test_each_experiment_equals_its_definition(small_sweep):
    """Each experiment's predictions, bit for bit, are the fits its folds
    name; the config digests are the same on every machine."""
    x, y = small_sweep.feature_matrix(), small_sweep.target_matrix()
    ids = small_sweep.samples.sample_id
    for run, rows, digest in [
            (ev.experiment_single_band_fine, np.arange(len(x)), "349819b862f1ddca"),
            (ev.experiment_single_band_coarse,
             np.flatnonzero(ds.on_grid(small_sweep, ds.COARSE_GRID)), "3bcc51efb56ff970")]:
        result = run(small_sweep, 0)
        expected = [predict(train_linear(x[rows[rows != row]], y[rows[rows != row]]), x[row])
                    for row in rows]
        np.testing.assert_array_equal(result.predictions, expected)
        np.testing.assert_array_equal(result.targets, y[rows])
        assert result.sample_ids == ids[rows].tolist() and result.config_digest == digest

    train, test = ds.interpolation_split(small_sweep, ds.COARSE_GRID)
    result = ev.experiment_interpolation(small_sweep, 0)
    np.testing.assert_array_equal(result.predictions,
                                  predict(train_linear(x[train], y[train]), x[test]))
    assert result.sample_ids == ids[test].tolist()
    assert result.config_digest == "e0ca23b228a2d511"

    manifest = _synthetic_multi_band()
    x, y = manifest.feature_matrix(), manifest.target_matrix()
    train, test = ds.split(manifest, 1)
    for kind, result in zip(MODEL_KINDS, ev.experiment_multi_band(manifest, 1)):
        model = MODEL_KINDS[kind].fit(x[train], y[train], TrainConfig(seed=1))
        np.testing.assert_array_equal(result.predictions, predict(model, x[test]))
        np.testing.assert_array_equal(result.targets, y[test])
        assert (result.model_kind, result.config_digest) == (kind, "5c343cb925ef2f0e")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_evaluate_model_reports_the_model_kind(kind):
    rng = np.random.default_rng(6)
    gains, feats = rng.standard_normal((40, 5)), rng.standard_normal((40, FEATURE_DIM))
    samples = ds.sample_table([f"s{i}" for i in range(40)], ["x"] * 40, gains, feats)
    model = MODEL_KINDS[kind].fit(feats, gains, TrainConfig(epochs=2, hidden_dim=4, trees=2))
    result = ev.evaluate_model(model, ds.DatasetManifest(FeatureContract(), samples, 0), 7)
    assert (result.model_kind, result.seed, ev.report_to_dict(result)["n_samples"]) == \
        (kind, 7, 40)


# The reproduction's checks, in the order `eqrep reproduce` prints them.
CHECK_NAMES = [
    "fine sweep MSE <= 0.5",
    "coarse sweep MSE >= fine sweep MSE",
    "interpolation MSE <= coarse sweep MSE",
    "MLP MSE < linear MSE",
    "MLP MSE <= 1.0",
]
# Overall MSEs that pass every check.
PASSING = {("single_band_fine", "linear"): 0.1, ("single_band_coarse", "linear"): 0.2,
           ("interpolation", "linear"): 0.15, ("multi_band", "linear"): 0.02,
           ("multi_band", "forest"): 3.0, ("multi_band", "mlp"): 0.01}


def _results(**changed):
    """Hand-built results with the PASSING MSEs, or those in `changed`
    (keyword `fine`, `coarse`, `interpolation`, `linear` or `mlp`)."""
    names = {"fine": ("single_band_fine", "linear"),
             "coarse": ("single_band_coarse", "linear"),
             "interpolation": ("interpolation", "linear"),
             "linear": ("multi_band", "linear"), "mlp": ("multi_band", "mlp")}
    mses = {**PASSING, **{names[k]: v for k, v in changed.items()}}
    results = []
    for (exp, kind), mse in mses.items():
        # errors of 2 dB in 100 * mse of the 400 cells: the MSE is exactly
        # `mse` (a multiple of 0.01 up to 4), so a check at its bound sees it
        errors = np.zeros(400)
        if np.isnan(mse):
            errors[0] = mse
        else:
            errors[:round(100 * mse)] = 2.0
        results.append(ev.ExperimentResult(exp, kind, 42, "", [f"s{i}" for i in range(80)],
                                           errors.reshape(80, 5), np.zeros((80, 5))))
        assert results[-1].overall_mse == mse or np.isnan(mse)
    return results


class TestChecks:
    """The five checks judged on hand-built results, without a run."""

    def test_names_and_order(self):
        assert [name for name, _ in ev.CHECKS] == CHECK_NAMES

    def test_passing_results_pass_every_check(self):
        assert ev.failed_checks(_results()) == []

    @pytest.mark.parametrize("changed, failed", [
        ({"fine": 0.6, "coarse": 0.7, "interpolation": 0.65}, CHECK_NAMES[0]),
        ({"coarse": 0.05, "interpolation": 0.04}, CHECK_NAMES[1]),
        ({"interpolation": 0.3}, CHECK_NAMES[2]),
        ({"linear": 0.01, "mlp": 0.02}, CHECK_NAMES[3]),
        ({"linear": 2.0, "mlp": 1.5}, CHECK_NAMES[4]),
    ], ids=["fine", "coarse", "interpolation", "mlp-vs-linear", "mlp-bound"])
    def test_each_check_fails_alone(self, changed, failed):
        assert ev.failed_checks(_results(**changed)) == [failed]

    def test_bounds_are_inclusive_where_named(self):
        assert ev.failed_checks(_results(fine=0.5, coarse=0.5, interpolation=0.5,
                                         linear=2.0, mlp=1.0)) == []
        assert ev.failed_checks(_results(linear=0.01, mlp=0.01)) == [CHECK_NAMES[3]]

    def test_nan_fails_its_checks(self):
        assert ev.failed_checks(_results(mlp=float("nan"))) == CHECK_NAMES[3:]


def test_run_reproduction_builds_each_dataset_once(monkeypatch):
    """The sweep feeds the three sweep experiments and the multi-band set the
    model comparison; the results come back in print order."""
    built = []

    def build_dataset(corpus, settings, stft=None, limit=None, seed=None, jobs=None):
        built.append((len(settings), limit, stft, seed, jobs))
        return f"set{len(built)}"

    monkeypatch.setattr(ds, "build_dataset", build_dataset)
    for name in ("single_band_fine", "single_band_coarse", "interpolation"):
        monkeypatch.setattr(ev, f"experiment_{name}",
                            lambda sweep, seed, name=name: (name, sweep, seed))
    monkeypatch.setattr(ev, "experiment_multi_band", lambda multi, seed, jobs: [
        (kind, multi, seed, jobs) for kind in ("linear", "forest", "mlp")])
    stft = StftConfig(1024, 256)
    results = ev.run_reproduction([("C2", None)], stft, limit=700, seed=5, jobs=2)
    assert built == [(125, None, stft, 5, 2), (16807, 700, stft, 5, 2)]
    assert results == [("single_band_fine", "set1", 5), ("single_band_coarse", "set1", 5),
                       ("interpolation", "set1", 5), ("linear", "set2", 5, 2),
                       ("forest", "set2", 5, 2), ("mlp", "set2", 5, 2)]

