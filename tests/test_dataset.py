import json

import numpy as np
import pytest

from eqrep import dataset as ds
from eqrep.audio import NoteSpec, note_corpus, synthesize_note
from eqrep.eq import apply_eq
from eqrep.features import FEATURE_DIM, StftConfig, extract_features

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

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ds.validate_grid([])
        with pytest.raises(ValueError):
            ds.validate_grid([3.0, 1.0])
        with pytest.raises(ValueError):
            ds.validate_grid([-13.0, 0.0])


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
        samples = [
            ds.DatasetSample(f"s{i}", "x", np.zeros(5), np.zeros(FEATURE_DIM))
            for i in range(n)
        ]
        return ds.DatasetManifest(SR, STFT, [], samples, 0)

    def test_sizes(self):
        train, test = ds.split(self._manifest(10), 0.8, 1)
        assert len(train) == 8 and len(test) == 2

    def test_disjoint_covering(self):
        train, test = ds.split(self._manifest(23), 0.7, 3)
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(23))

    def test_deterministic(self):
        a = ds.split(self._manifest(50), 0.8, 9)
        b = ds.split(self._manifest(50), 0.8, 9)
        np.testing.assert_array_equal(a[0], b[0])

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            ds.split(self._manifest(10), 1.0, 0)


class TestInterpolationSplit:
    def _sweep_manifest(self):
        settings = ds.single_band_settings(ds.FINE_GRID)
        samples = [
            ds.DatasetSample(f"s{i}", "x", settings[i], np.zeros(FEATURE_DIM))
            for i in range(len(settings))
        ]
        return ds.DatasetManifest(SR, STFT, [], samples, 0)

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


class TestSweepSubset:
    @pytest.mark.parametrize("pitches", ["C3", "C3,G4"])
    def test_coarse_rows_equal_a_coarse_build(self, pitches):
        pitches = pitches.split(",")
        corpus = note_corpus(pitches, SR, duration_s=0.1, partial_count=40)
        sweep = ds.build_dataset(corpus, ds.single_band_settings(ds.FINE_GRID), stft=STFT)
        coarse = ds.build_dataset(corpus, ds.single_band_settings(ds.COARSE_GRID), stft=STFT)
        taken = ds.sweep_subset(sweep, ds.COARSE_GRID)
        assert len(taken.samples) == 35 * len(pitches)
        assert [s.sample_id for s in taken.samples] == [s.sample_id for s in coarse.samples]
        assert [s.base_label for s in taken.samples] == [s.base_label for s in coarse.samples]
        np.testing.assert_array_equal(taken.target_matrix(), coarse.target_matrix())
        np.testing.assert_array_equal(taken.feature_matrix(), coarse.feature_matrix())
        assert ds.manifest_to_dict(taken) == ds.manifest_to_dict(coarse)

    def test_subsampled_sweep_rejected(self, tiny_corpus):
        settings = ds.single_band_settings(ds.FINE_GRID)
        sweep = ds.build_dataset(tiny_corpus, settings, stft=STFT, limit=60, seed=1)
        with pytest.raises(ValueError, match="every grid setting"):
            ds.sweep_subset(sweep, ds.COARSE_GRID)


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
        assert back.bands == manifest.bands
        # re-saving the loaded manifest reproduces the file byte for byte
        path2 = tmp_path / "m2.json"
        ds.save_manifest(back, path2)
        assert path.read_bytes() == path2.read_bytes()

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
