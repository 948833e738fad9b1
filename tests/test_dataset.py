import itertools
import json

import numpy as np
import pytest

from eqrep import dataset as ds
from eqrep.audio import NoteSpec, synthesize_note
from eqrep.eq import apply_eq
from eqrep.features import FEATURE_DIM, FeatureContract, StftConfig, extract_features

SR = 44100
STFT = StftConfig(2048, 512)


@pytest.fixture(scope="module")
def tiny_corpus():
    # short note keeps per-sample EQ + feature cost low
    return [("C3", synthesize_note(NoteSpec("C3", 130.8127826502993, 0.2, 40), SR))]


class TestSettingEnumeration:
    def test_fine_sweep_has_125(self):
        assert ds.single_band_settings(ds.FINE_GRID).shape == (125, 5)

    def test_coarse_sweep_has_35(self):
        assert ds.single_band_settings(ds.COARSE_GRID).shape == (35, 5)

    def test_degenerate_zero_grid(self):
        settings = ds.single_band_settings([0.0])
        assert settings.shape == (5, 5)
        np.testing.assert_array_equal(settings, np.zeros((5, 5)))

    def test_band_major_order(self):
        settings = ds.single_band_settings([-12.0, 12.0])
        np.testing.assert_array_equal(settings[0], [-12, 0, 0, 0, 0])
        np.testing.assert_array_equal(settings[1], [12, 0, 0, 0, 0])
        np.testing.assert_array_equal(settings[2], [0, -12, 0, 0, 0])

    def test_multi_band_full_count(self):
        assert len(ds.multi_band_settings(ds.COARSE_GRID)) == 7 ** 5 == 16807

    def test_multi_band_two_values(self):
        settings = ds.multi_band_settings([-12.0, 12.0])
        assert len(settings) == 32
        np.testing.assert_array_equal(settings[0], [-12, -12, -12, -12, -12])

    def test_multi_band_first_lexicographic(self):
        settings = ds.multi_band_settings(ds.COARSE_GRID)
        np.testing.assert_array_equal(settings[0], [-12, -12, -12, -12, -12])
        np.testing.assert_array_equal(settings[1], [-12, -12, -12, -12, -8])

    @pytest.mark.parametrize("grid", [ds.COARSE_GRID, ds.gain_grid(3.0)])
    def test_multi_band_is_the_product_order(self, grid):
        expected = np.array(list(itertools.product(grid, repeat=5)))
        np.testing.assert_array_equal(ds.multi_band_settings(grid), expected)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ds.validate_grid([])
        with pytest.raises(ValueError):
            ds.validate_grid([3.0, 1.0])
        with pytest.raises(ValueError):
            ds.validate_grid([-13.0, 0.0])
        for grid in ([np.nan], [-4.0, np.nan, 4.0]):
            with pytest.raises(ValueError, match="within"):
                ds.validate_grid(grid)
            with pytest.raises(ValueError, match="within"):
                ds.single_band_settings(grid)


class TestBuildDataset:
    def test_one_note_fine_sweep(self, tiny_corpus):
        settings = ds.single_band_settings([-12.0, 0.0, 12.0])
        manifest = ds.build_dataset(tiny_corpus, settings, stft=STFT)
        assert len(manifest.samples) == 15
        assert all(s.features.shape == (FEATURE_DIM,) for s in manifest.samples)
        assert len({s.sample_id for s in manifest.samples}) == 15

    def test_repeated_label_rejected(self, tiny_corpus):
        corpus = tiny_corpus + tiny_corpus
        with pytest.raises(ValueError, match="repeats note label"):
            ds.build_dataset(corpus, ds.single_band_settings([0.0]), stft=STFT)

    def test_mixed_sample_rates_rejected_before_eq(self, tiny_corpus, monkeypatch):
        def apply_eq(*args, **kwargs):
            raise AssertionError("EQ work started")

        monkeypatch.setattr(ds, "apply_eq", apply_eq)
        other = ("G4", synthesize_note(NoteSpec("G4", 391.99543598174927, 0.2, 20), 22050))
        with pytest.raises(ValueError) as exc:
            ds.build_dataset(tiny_corpus + [other], ds.single_band_settings([0.0]), stft=STFT)
        assert str(exc.value) == "note G4: sample rate 22050 != 44100 of note C3"

    def test_limit_zero_rejected(self, tiny_corpus):
        settings = ds.single_band_settings([0.0])
        with pytest.raises(ValueError):
            ds.build_dataset(tiny_corpus, settings, stft=STFT, limit=0)

    def test_seeded_subsample_deterministic(self, tiny_corpus):
        settings = ds.multi_band_settings([-12.0, 0.0, 12.0])
        a = ds.build_dataset(tiny_corpus, settings, stft=STFT, limit=20, seed=5)
        b = ds.build_dataset(tiny_corpus, settings, stft=STFT, limit=20, seed=5)
        assert [s.sample_id for s in a.samples] == [s.sample_id for s in b.samples]
        np.testing.assert_array_equal(a.feature_matrix(), b.feature_matrix())

    def test_jobs_preserve_order(self, tiny_corpus):
        settings = ds.single_band_settings([-6.0, 6.0])
        serial = ds.build_dataset(tiny_corpus, settings, stft=STFT)
        parallel = ds.build_dataset(tiny_corpus, settings, stft=STFT, jobs=4)
        assert [s.sample_id for s in serial.samples] == [s.sample_id for s in parallel.samples]
        np.testing.assert_array_equal(serial.feature_matrix(), parallel.feature_matrix())

    def test_jobs_give_identical_manifest_and_audio(self, tiny_corpus, tmp_path):
        settings = ds.multi_band_settings([-12.0, 0.0, 12.0])
        out = {}
        for jobs in (1, 2):
            keep = tmp_path / f"jobs{jobs}"
            keep.mkdir()
            manifest = ds.build_dataset(tiny_corpus, settings, stft=STFT, limit=40,
                                        seed=9, jobs=jobs, keep_audio_dir=keep)
            wavs = {p.name: p.read_bytes() for p in sorted(keep.iterdir())}
            out[jobs] = (ds.manifest_to_dict(manifest), wavs)
        assert len(out[1][1]) == 40
        assert out[1] == out[2]

    def test_labels_match_applied_settings(self, tiny_corpus):
        settings = ds.single_band_settings([-9.0, 9.0])
        manifest = ds.build_dataset(tiny_corpus, settings, stft=STFT)
        label, buf = tiny_corpus[0]
        for sample in manifest.samples:
            redone = extract_features(apply_eq(buf, sample.gains_db), STFT).to_array()
            np.testing.assert_array_equal(redone, sample.features)


class TestSplit:
    def _manifest(self, n):
        samples = ds.sample_table([f"s{i}" for i in range(n)], ["x"] * n,
                                  np.zeros((n, 5)), np.zeros((n, FEATURE_DIM)))
        return ds.DatasetManifest(FeatureContract(SR, STFT), samples, 0)

    def test_sizes(self):
        train, test = ds.split(self._manifest(10), 1)
        assert len(train) == 8 and len(test) == 2

    def test_disjoint_covering(self):
        train, test = ds.split(self._manifest(23), 3)
        assert len(train) == 18 and len(test) == 5
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(23))

    def test_deterministic(self):
        a = ds.split(self._manifest(50), 9)
        b = ds.split(self._manifest(50), 9)
        np.testing.assert_array_equal(a[0], b[0])

    def test_empty_side(self):
        with pytest.raises(ValueError, match="empty side"):
            ds.split(self._manifest(1), 0)


class TestInterpolationSplit:
    def _sweep_manifest(self):
        settings = ds.single_band_settings(ds.FINE_GRID)
        n = len(settings)
        samples = ds.sample_table([f"s{i}" for i in range(n)], ["x"] * n, settings,
                                  np.zeros((n, FEATURE_DIM)))
        return ds.DatasetManifest(FeatureContract(SR, STFT), samples, 0)

    def test_35_train_90_validation(self):
        train, val = ds.interpolation_split(self._sweep_manifest(), ds.COARSE_GRID)
        assert len(train) == 35 and len(val) == 90

    def test_validation_gains_off_grid(self):
        manifest = self._sweep_manifest()
        _, val = ds.interpolation_split(manifest, ds.COARSE_GRID)
        for i in val:
            active = manifest.samples[i].gains_db[manifest.samples[i].gains_db != 0]
            assert active.size == 1
            assert not np.any(np.isclose(ds.COARSE_GRID, active[0]))

    def test_full_grid_rejected(self):
        with pytest.raises(ValueError):
            ds.interpolation_split(self._sweep_manifest(), ds.FINE_GRID)


class TestSampleTable:
    """The rows and columns of `samples` that the CLI and the benchmark read,
    on a built, a loaded and a subset manifest: the 4 dB rows of a sweep, as
    the coarse experiment takes them."""

    @pytest.fixture(scope="class")
    def manifests(self, tiny_corpus, tmp_path_factory):
        built = ds.build_dataset(tiny_corpus, ds.single_band_settings(ds.FINE_GRID), stft=STFT)
        path = tmp_path_factory.mktemp("table") / "m.json"
        ds.save_manifest(built, path)
        subset = built.samples[ds.on_grid(built, ds.COARSE_GRID)]
        return {"built": built, "loaded": ds.load_manifest(path),
                "subset": ds.DatasetManifest(FeatureContract(SR, STFT), subset, built.split_seed)}

    @pytest.mark.parametrize("kind", ["built", "loaded", "subset"])
    def test_rows_and_columns(self, manifests, kind):
        manifest = manifests[kind]
        grid = ds.COARSE_GRID if kind == "subset" else ds.FINE_GRID
        settings = ds.single_band_settings(grid)
        n = len(settings)
        assert len(manifest.samples) == n
        assert manifest.feature_matrix().shape == (n, FEATURE_DIM)
        built = manifests["built"]
        source = np.flatnonzero(ds.on_grid(built, grid))  # every row for the fine grid
        for i in (0, 7, n - 1):
            row = manifest.samples[i]
            # a subset row keeps the id of the sweep row it is
            assert type(row.sample_id) is str and row.sample_id == f"C3-{source[i]:05d}"
            # the label is a str, usable as a dict key
            assert type(row.base_label) is str and {"C3": i}[row.base_label] == i
            np.testing.assert_array_equal(row.gains_db, settings[i])
            np.testing.assert_array_equal(row.features, manifest.feature_matrix()[i])
            np.testing.assert_array_equal(row.features, built.samples[source[i]].features)

    def test_matrices_are_read_only_views(self, manifests):
        manifest = manifests["built"]
        for column in (manifest.feature_matrix(), manifest.target_matrix(),
                       manifest.samples.sample_id, manifest.samples[0].features):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert np.shares_memory(manifest.feature_matrix(), manifest.samples)

    def test_widths_come_from_the_rows(self):
        """`sample_table` takes its target width from its gains, as its feature
        width from its features, and refuses rows that do not match the ids."""
        table = ds.sample_table(["a", "b"], ["x", "x"], np.ones((2, 3)), np.zeros((2, 4)))
        assert table.gains_db.shape == (2, 3) and table.features.shape == (2, 4)
        for gains, features in [((1, 3), (2, 4)), ((2, 3), (1, 4))]:
            with pytest.raises(ValueError, match=f"^2 ids, {gains[0]} gain rows and "
                                                 f"{features[0]} feature rows$"):
                ds.sample_table(["a", "b"], ["x", "x"], np.ones(gains), np.zeros(features))

    def test_empty_manifest_loads_and_saves(self, manifests, tmp_path):
        doc = dict(ds.manifest_to_dict(manifests["built"]), samples=[])
        empty = ds.manifest_from_dict(json.loads(json.dumps(doc)))
        assert len(empty.samples) == 0
        assert empty.feature_matrix().shape == (0, FEATURE_DIM)
        assert empty.target_matrix().shape == (0, 5)
        ds.save_manifest(empty, tmp_path / "empty.json")
        assert json.loads((tmp_path / "empty.json").read_text()) == doc

    def test_id_with_trailing_nul_round_trips(self, manifests, tmp_path):
        doc = ds.manifest_to_dict(manifests["built"])
        doc["samples"][0]["sample_id"] = "C3-00000\x00"
        path = tmp_path / "m.json"
        ds.save_manifest(ds.manifest_from_dict(doc), path)
        back = ds.load_manifest(path)
        assert back.samples[0].sample_id == "C3-00000\x00"
        assert ds.manifest_to_dict(back) == doc


class TestManifestPersistence:
    def test_round_trip_bit_exact(self, tiny_corpus, tmp_path):
        settings = ds.single_band_settings([-12.0, 7.0])
        manifest = ds.build_dataset(tiny_corpus, settings, stft=STFT)
        path = tmp_path / "m.json"
        ds.save_manifest(manifest, path)
        back = ds.load_manifest(path)
        np.testing.assert_array_equal(back.feature_matrix(), manifest.feature_matrix())
        np.testing.assert_array_equal(back.target_matrix(), manifest.target_matrix())
        assert back.stft == manifest.stft
        # re-saving the loaded manifest reproduces the file byte for byte
        path2 = tmp_path / "m2.json"
        ds.save_manifest(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_other_bands_refused(self, tiny_corpus):
        doc = ds.manifest_to_dict(ds.build_dataset(tiny_corpus, ds.single_band_settings([0.0]),
                                                   stft=STFT))
        ds.manifest_from_dict(doc)
        doc["bands"][2]["q"] = 2.0
        with pytest.raises(ValueError, match=r"^manifest bands\[2\]: expected .*'q': 1\.0.*"
                                             r"got .*'q': 2\.0"):
            ds.manifest_from_dict(doc)
        with pytest.raises(ValueError, match="^manifest bands: expected 5 bands, got 4$"):
            ds.manifest_from_dict(dict(doc, bands=doc["bands"][:4]))

    def test_schema_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version"):
            ds.load_manifest(path)

    def test_missing_key_is_named(self, tiny_corpus):
        doc = ds.manifest_to_dict(ds.build_dataset(tiny_corpus, ds.single_band_settings([0.0]),
                                                   stft=STFT))
        stft = doc.pop("stft")
        with pytest.raises(ValueError, match="manifest lacks key 'stft'"):
            ds.manifest_from_dict(doc)
        doc["stft"] = stft
        del doc["samples"][2]["features"]
        with pytest.raises(ValueError, match="manifest lacks key 'features'"):
            ds.manifest_from_dict(doc)

    def test_csv_export(self, tiny_corpus, tmp_path):
        settings = ds.single_band_settings([0.0])
        manifest = ds.build_dataset(tiny_corpus, settings, stft=STFT)
        path = tmp_path / "m.csv"
        ds.export_csv(manifest, path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["sample_id", "base_label"]
        assert header[2:7] == ["eq_80", "eq_240", "eq_2500", "eq_4000", "eq_10000"]
        assert len(header) == 2 + 5 + FEATURE_DIM
        assert len(lines) == 1 + len(manifest.samples)
        # feature values survive the text round trip exactly
        first = lines[1].split(",")
        np.testing.assert_array_equal(
            np.array([float(v) for v in first[7:]]), manifest.samples[0].features)

    @pytest.mark.parametrize("width", [3, 7])
    def test_csv_export_refuses_other_target_widths(self, tmp_path, width):
        """The gain columns are named by band, so a table of three or seven
        targets is refused, naming both widths, and nothing is written."""
        samples = ds.sample_table(["a", "b"], ["x", "x"], np.zeros((2, width)),
                                  np.zeros((2, FEATURE_DIM)))
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=rf"^{width} target columns cannot be labelled "
                                             r"by the 5 band names$"):
            ds.export_csv(ds.DatasetManifest(FeatureContract(), samples, 0), path)
        assert not path.exists()
