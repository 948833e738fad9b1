"""Acceptance gate: one test per criterion, each printing a PASS line.

The experiment criteria run on the synthetic broadband corpus at desk scale;
run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and MSE values.
"""

import time

import numpy as np
import pytest

import oracles
from eqrep import evaluate as ev
from eqrep.audio import AudioBuffer, read_wav, write_wav
from eqrep.cli import main as cli_main
from eqrep.dataset import (COARSE_GRID, FINE_GRID, build_dataset, load_manifest,
                           multi_band_settings, save_manifest, single_band_settings)
from eqrep.eq import BELL, EqBandSpec, apply_eq, design_biquad, eq_response
from eqrep.features import StftConfig, extract_features
from eqrep.models import (TrainConfig, load_model, predict, save_model,
                          train_forest, train_linear, train_mlp)
from test_evaluate import _scatter_import
from test_jsondoc import strict_json
from test_models import _grad_check

SR = 44100


@pytest.fixture(scope="session")
def corpus():
    return ev.reproduction_corpus()


@pytest.fixture(scope="session")
def repro_dirs(tmp_path_factory):
    """Two full `reproduce --seed 42` runs, timed."""
    dirs = [tmp_path_factory.mktemp("run1"), tmp_path_factory.mktemp("run2")]
    start = time.time()
    assert cli_main(["reproduce", "--seed", "42", "--out", str(dirs[0])]) == 0
    first_run_s = time.time() - start
    assert cli_main(["reproduce", "--seed", "42", "--out", str(dirs[1])]) == 0
    return dirs, first_run_s


def _report(out_dir, stem):
    return strict_json(out_dir / f"{stem}_report.json")


def test_criterion_1_filter_correctness():
    start = time.time()
    rng = np.random.default_rng(1)
    for _ in range(100):
        center = float(np.exp(rng.uniform(np.log(40), np.log(18000))))
        gain = float(rng.uniform(-24, 24))
        q = float(rng.uniform(0.3, 4.0))
        row = design_biquad(EqBandSpec(center, BELL, q), gain, SR)
        at_center = oracles.biquad_response_db(row, [center], SR)[0]
        assert abs(at_center - gain) <= 1e-6

    buf = AudioBuffer(0.5 * rng.standard_normal(SR // 2), SR)
    flat = apply_eq(buf, [0, 0, 0, 0, 0])
    assert np.max(np.abs(flat.samples - buf.samples)) <= 1e-9

    gains = np.array([6.0, -9.0, 12.0, -3.0, 8.0])
    n = 1 << 16
    ir = apply_eq(AudioBuffer(np.eye(1, n)[0], SR), gains)
    mags = 20 * np.log10(np.abs(np.fft.rfft(ir.samples)))
    freqs = np.fft.rfftfreq(n, 1 / SR)
    analytic = eq_response(gains, freqs[1:-1], SR)
    assert np.max(np.abs(mags[1:-1] - analytic)) <= 0.01

    elapsed = time.time() - start
    assert elapsed < 5
    print(f"\n[PASS] criterion 1: filter correctness ({elapsed:.1f}s)")


def test_criterion_2_feature_oracle_equivalence():
    start = time.time()
    config = StftConfig(2048, 512)
    rng = np.random.default_rng(2)
    for _ in range(10):
        samples = 0.2 * rng.standard_normal(int(0.2 * SR))
        fast = extract_features(AudioBuffer(samples, SR), config).to_array()
        slow = oracles.feature_vector(samples, SR, 2048, 512)
        np.testing.assert_allclose(fast, slow, rtol=1e-6, atol=1e-9)
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"\n[PASS] criterion 2: feature oracle equivalence ({elapsed:.1f}s)")


def test_criterion_3_gradient_check():
    start = time.time()
    for hidden_dim, seed in ((4, 31), (8, 32), (16, 33)):
        assert _grad_check(hidden_dim, seed) <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 10
    print(f"\n[PASS] criterion 3: MLP gradient check ({elapsed:.1f}s)")


def test_criterion_4_fine_sweep_experiment(corpus):
    start = time.time()
    sweep = build_dataset(corpus, single_band_settings(FINE_GRID), seed=42)
    result = ev.experiment_single_band_fine(sweep, seed=42)
    elapsed = time.time() - start
    assert result.overall_mse <= 0.5
    assert elapsed < 120
    print(f"\n[PASS] criterion 4: fine sweep MSE "
          f"{result.overall_mse:.4g} <= 0.5 ({elapsed:.1f}s)")


def test_criterion_5_coarse_and_interpolation(corpus):
    start = time.time()
    sweep = build_dataset(corpus, single_band_settings(FINE_GRID), seed=42)
    fine = ev.experiment_single_band_fine(sweep, seed=42).overall_mse
    coarse = ev.experiment_single_band_coarse(sweep, seed=42).overall_mse
    interp = ev.experiment_interpolation(sweep, seed=42).overall_mse
    elapsed = time.time() - start
    assert coarse >= fine
    assert interp <= coarse
    assert elapsed < 120
    print(f"\n[PASS] criterion 5: coarse {coarse:.4g} >= fine {fine:.4g}; "
          f"interpolation {interp:.4g} <= coarse ({elapsed:.1f}s)")


def test_criterion_6_multi_band_comparison(repro_dirs):
    (run1, _), first_run_s = repro_dirs
    linear = _report(run1, "multi_band_linear")["overall_mse"]
    forest = _report(run1, "multi_band_forest")["overall_mse"]
    mlp = _report(run1, "multi_band_mlp")["overall_mse"]
    assert mlp < linear
    assert mlp <= 1.0
    assert first_run_s < 900
    print(f"\n[PASS] criterion 6: multi-band MLP {mlp:.4g} < linear {linear:.4g}; "
          f"MLP <= 1.0 (forest {forest:.4g}, reported only; run {first_run_s:.0f}s)")


def test_criterion_7_reproduce_determinism(repro_dirs):
    (run1, run2), _ = repro_dirs
    names = sorted(p.name for p in run1.iterdir())
    assert names == sorted(p.name for p in run2.iterdir())
    assert any(n.endswith("_report.json") for n in names)
    assert any(n.endswith("_scatter.csv") for n in names)
    for name in names:
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name
    # the reports and summary.json are strict JSON; summary.json is the six
    # reports in print order, and each report's numbers recompute bit for bit
    # from the rows of its scatter CSV
    stems = [f"{exp}_linear" for exp in ("single_band_fine", "single_band_coarse",
                                         "interpolation")]
    stems += [f"multi_band_{kind}" for kind in ("linear", "forest", "mlp")]
    reports = [_report(run1, stem) for stem in stems]
    assert strict_json(run1 / "summary.json") == reports
    for stem, doc in zip(stems, reports):
        ids, preds, targets = _scatter_import(run1 / f"{stem}_scatter.csv")
        result = ev.ExperimentResult(doc["experiment_id"], doc["model_kind"], doc["seed"],
                                     doc["config_digest"], ids, preds, targets)
        assert ev.report_to_dict(result) == doc, stem
    print(f"\n[PASS] criterion 7: reproduce --seed 42 twice, "
          f"{len(names)} byte-identical output files, reports recomputed from scatters")


def test_criterion_8_count_reproduction():
    assert len(single_band_settings(FINE_GRID)) == 125
    assert len(multi_band_settings(COARSE_GRID)) == 16807
    print("\n[PASS] criterion 8: 125 single-band and 16807 multi-band settings")


def test_criterion_9_round_trips(corpus, tmp_path):
    # WAV float32
    label, note = corpus[0]
    wav = tmp_path / "note.wav"
    write_wav(note, wav)
    first = read_wav(wav)
    write_wav(first, wav)
    np.testing.assert_array_equal(read_wav(wav).samples, first.samples)

    # manifest JSON, bit-equal
    short = [(label, AudioBuffer(note.samples[:8192], SR))]
    manifest = build_dataset(short, single_band_settings([-12.0, 5.0]))
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_manifest(manifest, p1)
    save_manifest(load_manifest(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    # model artifacts, prediction-identical
    x = manifest.feature_matrix()
    y = manifest.target_matrix()
    xx = np.vstack([x] * 8)
    yy = np.vstack([y] * 8)
    queries = np.random.default_rng(9).standard_normal((100, 17))
    for name, model in (
        ("linear", train_linear(xx, yy)),
        ("mlp", train_mlp(x, y, TrainConfig(epochs=5, hidden_dim=8, seed=0))),
        ("forest", train_forest(x, y, tree_count=3, seed=0)),
    ):
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        back, _, _ = load_model(path)
        np.testing.assert_array_equal(predict(back, queries), predict(model, queries))
    print("\n[PASS] criterion 9: WAV, manifest, and model artifacts round-trip")
