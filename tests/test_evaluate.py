import numpy as np
import pytest

from eqrep import dataset as ds
from eqrep import evaluate as ev
from eqrep.eq import BAND_NAMES
from eqrep.features import FEATURE_DIM, StftConfig
from eqrep.models import TrainConfig


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


def _scatter_import(path):
    """Parse a scatter CSV back to (sample_ids, predictions, targets)."""
    ids, preds, trues = [], {}, {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            sid, name, true_db, pred_db = line.rstrip("\n").split(",")
            if sid not in preds:
                ids.append(sid)
                preds[sid], trues[sid] = [0.0] * 5, [0.0] * 5
            band = BAND_NAMES.index(name)
            preds[sid][band] = float(pred_db)
            trues[sid][band] = float(true_db)
    return ids, np.array([preds[i] for i in ids]), np.array([trues[i] for i in ids])


class TestScatterExport:
    def test_row_count_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 25
        ids = [f"s{i}" for i in range(n)]
        preds = rng.standard_normal((n, 5))
        targets = rng.standard_normal((n, 5))
        path = tmp_path / "scatter.csv"
        ev.scatter_export(ids, preds, targets, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + n * 5

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
        ev.scatter_export(ids, targets, targets, path)
        for line in path.read_text().strip().split("\n")[1:]:
            _, _, true_db, pred_db = line.split(",")
            assert true_db == pred_db


class TestReports:
    def test_report_fields(self):
        rng = np.random.default_rng(3)
        preds, targets = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
        report = ev.make_report("exp", "linear", preds, targets, seed=1, config={"a": 1})
        assert report.n_samples == 6
        assert report.overall_mse == pytest.approx(report.per_band_mse.mean())
        assert report.config_digest
        doc = ev.report_to_dict(report)
        assert doc["experiment_id"] == "exp" and doc["model_kind"] == "linear"

    def test_save_is_deterministic(self, tmp_path):
        preds = np.ones((3, 5))
        targets = np.zeros((3, 5))
        report = ev.make_report("exp", "mlp", preds, targets, seed=7)
        ev.save_report(report, tmp_path / "a.json")
        ev.save_report(report, tmp_path / "b.json")
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
        # 125 samples, 80/20 split: 25 held out
        assert result.report.n_samples == 25
        assert result.report.overall_mse >= 0
        assert np.isfinite(result.report.overall_mse)

    def test_interpolation_sizes(self, small_sweep):
        result = ev.experiment_interpolation(small_sweep, seed=0)
        assert result.report.n_samples == 90
        for target in result.targets:
            active = target[target != 0]
            assert active.size == 1 and active[0] % 4 != 0

    def test_coarse_determinism(self, small_sweep):
        a = ev.experiment_single_band_coarse(small_sweep, seed=3)
        b = ev.experiment_single_band_coarse(small_sweep, seed=3)
        assert a.report.overall_mse == b.report.overall_mse
        np.testing.assert_array_equal(a.report.per_band_mse, b.report.per_band_mse)
        np.testing.assert_array_equal(a.predictions, b.predictions)

    def test_multi_band_limit_guard(self):
        samples = [ds.DatasetSample(f"s{i}", "x", np.zeros(5), np.zeros(FEATURE_DIM))
                   for i in range(100)]
        manifest = ds.DatasetManifest(44100, StftConfig(), [], samples, 0)
        with pytest.raises(ValueError):
            ev.experiment_multi_band(manifest, seed=0)


def test_multi_band_jobs_give_identical_results():
    """Fits on worker processes send back the same predictions and reports."""
    rng = np.random.default_rng(4)
    gains = rng.choice(ds.COARSE_GRID, size=(600, 5))
    mixing = rng.standard_normal((5, FEATURE_DIM))
    feats = gains @ mixing + 0.1 * rng.standard_normal((600, FEATURE_DIM))
    samples = [ds.DatasetSample(f"s{i}", "x", g, f) for i, (g, f) in enumerate(zip(gains, feats))]
    manifest = ds.DatasetManifest(44100, StftConfig(), [], samples, 0)
    cfg = TrainConfig(epochs=5, seed=1)
    serial = ev.experiment_multi_band(manifest, 1, cfg, tree_count=3, jobs=1)
    pooled = ev.experiment_multi_band(manifest, 1, cfg, tree_count=3, jobs=2)
    assert [r.report.model_kind for r in pooled] == ["linear", "forest", "mlp"]
    for a, b in zip(serial, pooled):
        assert ev.report_to_dict(a.report) == ev.report_to_dict(b.report)
        assert a.sample_ids == b.sample_ids
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.targets, b.targets)


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
    return [ev.ExperimentResult(ev.EvalReport(exp, kind, mse, np.full(5, mse), 1, 42),
                                ["s0"], np.zeros((1, 5)), np.zeros((1, 5)))
            for (exp, kind), mse in mses.items()]


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

