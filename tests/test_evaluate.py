import numpy as np
import pytest

from eqrep import dataset as ds
from eqrep import evaluate as ev
from eqrep.features import FEATURE_DIM, StftConfig


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

        back_ids, back_preds, back_targets = ev.scatter_import(path)
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
