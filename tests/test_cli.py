import argparse
import contextlib
import copy
import csv
import faulthandler
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import eqrep
from eqrep import cli
from eqrep import dataset as ds
from eqrep import evaluate as ev
from eqrep import models
from eqrep.audio import MAX_SAMPLE_RATE, read_wav
from eqrep.cli import build_parser, main
from eqrep.eq import BAND_NAMES, apply_eq, log_frequency_grid
from eqrep.features import FEATURE_NAMES, FeatureContract, StftConfig
from eqrep.jsondoc import JsonValue
from eqrep.models import MODEL_KINDS, TrainConfig, load_model, save_model
from test_audio import MUTANT_BASES, MUTATIONS, _mutant
from test_jsondoc import CONTRACT_PATHS, _paths, json_values, strict_json


def run(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_single_pitch(self, tmp_path):
        assert run("synth", "--pitches", "A4", "--duration", "0.1", "--out", tmp_path) == 0
        assert (tmp_path / "A4.wav").exists()
        index = strict_json(tmp_path / "corpus_index.json")
        assert index["A4"]["fundamental_hz"] == 440.0

    def test_default_corpus_has_16(self, tmp_path):
        assert run("synth", "--duration", "0.05", "--out", tmp_path) == 0
        assert len(list(tmp_path.glob("*.wav"))) == 16

    def test_rerun_byte_identical(self, tmp_path):
        run("synth", "--pitches", "C4", "--duration", "0.1", "--out", tmp_path / "a")
        run("synth", "--pitches", "C4", "--duration", "0.1", "--out", tmp_path / "b")
        assert (tmp_path / "a/C4.wav").read_bytes() == (tmp_path / "b/C4.wav").read_bytes()

    def test_bad_pitch_is_runtime_error(self, tmp_path):
        assert run("synth", "--pitches", "Z9", "--out", tmp_path) == 2

    def test_repeated_pitch_is_runtime_error(self, tmp_path, capsys):
        assert run("synth", "--pitches", "C4,G4,C4", "--duration", "0.1",
                   "--out", tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["eqrep: corpus repeats note label(s) C4"]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_duration_of_no_sample_is_runtime_error(self, tmp_path, capsys):
        assert run("synth", "--pitches", "C4", "--duration", "1e-6", "--out", tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "eqrep: C4: duration 1e-06 s rounds to 0 samples at 44100 Hz"]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rate, duration", [("44100", "2e-5"), ("1073741823", "1e-9")])
    def test_duration_of_one_silent_sample_is_runtime_error(self, tmp_path, capsys, rate,
                                                            duration):
        assert run("synth", "--pitches", "C4", "--sample-rate", rate, "--duration", duration,
                   "--out", tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"eqrep: C4: duration {float(duration)} s rounds to 1 silent sample(s) "
            f"at {rate} Hz"]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("duration, samples", [("1e300", "4.41e+304"), ("1e308", "inf")])
    def test_duration_beyond_a_wav_is_runtime_error(self, tmp_path, capsys, duration,
                                                    samples):
        """Refused before the buffer is allocated, naming the note."""
        assert run("synth", "--pitches", "C2", "--duration", duration, "--out", tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"eqrep: C2: duration {float(duration)} s is {samples} samples at 44100 Hz; "
            "a WAV holds at most 1073741811"]
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("duration", ["inf", "nan", "0", "-1", "long"])
    def test_bad_duration_is_usage_error(self, tmp_path, capsys, duration):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--duration", duration, "--out", tmp_path)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --duration" in err.splitlines()[-1]
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestResponse:
    def test_flat_setting(self, tmp_path, capsys):
        assert run("response", "--gains", "0,0,0,0,0") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "frequency_hz,gain_db"
        assert len(lines) == 201  # 200 points by default
        assert all(abs(float(line.split(",")[1])) < 1e-12 for line in lines[1:])

    def test_low_shelf_asymptote(self, capsys):
        assert run("response", "--gains", "12,0,0,0,0") == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        freq, gain = map(float, lines[0].split(","))  # 20 Hz, well below the shelf
        assert gain == pytest.approx(12.0, abs=0.5)

    def test_bad_gain_syntax(self):
        assert run("response", "--gains", "a,b,c") == 2

    @pytest.mark.parametrize("sample_rate, stop", [(44100, 20000.0), (22050, 10473.75)])
    def test_default_stop_lies_below_nyquist(self, capsys, sample_rate, stop):
        assert run("response", "--gains", "6,-3,0,4,-6", "--sample-rate", sample_rate) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 201
        assert float(lines[-1].split(",")[0]) == pytest.approx(stop, rel=1e-12)

    def test_frequency_above_nyquist_is_named(self, capsys):
        assert run("response", "--gains", "6,-3,0,4,-6", "--sample-rate", 22050,
                   "--stop", 20000) == 2
        freqs = log_frequency_grid(20.0, 20000.0, 200)
        first = float(freqs[freqs >= 11025][0])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"eqrep: frequency {first!r} Hz lies outside "
                                "[0, Nyquist) = [0, 11025.0) Hz\n")

    def test_nan_gain_is_runtime_error(self, capsys):
        assert run("response", "--gains", "6,-3,0,4,nan") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run("response")  # --gains is required
        assert exc.value.code == 1

    @pytest.mark.parametrize("points", ["0", "-3", "1.5"])
    def test_bad_points_is_usage_error(self, capsys, points):
        with pytest.raises(SystemExit) as exc:
            run("response", "--gains", "0,0,0,0,0", "--points", points)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --points" in err.splitlines()[-1]
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["synth"], "--duration"),
    (["dataset", "--corpus", "c", "--mode", "single"], "--step"),
    (["train", "--manifest", "m.json", "--model", "mlp", "--outfile", "f.json"],
     "--learning-rate"),
    (["response", "--gains", "0,0,0,0,0"], "--start"),
    (["response", "--gains", "0,0,0,0,0"], "--stop"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_float_option_must_be_positive_and_finite(argv, option, value, capsys):
    """Parsed only: every float option refuses NaN, infinity, 0 and negatives."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + [option, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument {option}" in err.splitlines()[-1]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, line", [
    (["reproduce", "--jobs", "0"],
     "eqrep reproduce: error: argument --jobs: must be an integer from 1 to "
     f"{os.cpu_count() or 1} (the CPU count), got '0'"),
    (["reproduce", "--limit", "2e3"],
     "eqrep reproduce: error: argument --limit: must be an integer from 500 to 16807, "
     "got '2e3'"),
    (["response", "--gains", "0,0,0,0,0", "--points", "1.5"],
     "eqrep response: error: argument --points: must be an integer >= 1, got '1.5'"),
    (["extract", "--frame-size", "1000", "a.wav"],
     "eqrep extract: error: argument --frame-size: must be a power of two >= 2, "
     "got '1000'"),
    (["synth", "--duration", "nan"],
     "eqrep synth: error: argument --duration: must be a positive finite number, "
     "got 'nan'"),
], ids=lambda v: v[1] if isinstance(v, list) else None)
def test_numeric_option_usage_line(argv, line, capsys):
    """Parsed only: the whole last stderr line of each kind of numeric check."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == line


class TestExtract:
    def test_header_and_row(self, tmp_path, capsys):
        run("synth", "--pitches", "C3", "--duration", "0.2", "--out", tmp_path)
        capsys.readouterr()
        assert run("extract", tmp_path / "C3.wav") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "path," + ",".join(FEATURE_NAMES)
        assert len(lines) == 2
        values = [float(v) for v in lines[1].split(",")[1:]]
        assert len(values) == 17

    def test_missing_file(self, tmp_path):
        assert run("extract", tmp_path / "nope.wav") == 2

    def test_too_short_note_names_both_sizes(self, tmp_path, capsys):
        run("synth", "--pitches", "C4", "--duration", "0.03", "--sample-rate", "44100",
            "--out", tmp_path)
        capsys.readouterr()
        assert run("extract", tmp_path / "C4.wav") == 2
        assert capsys.readouterr().err == (
            f"eqrep: {tmp_path / 'C4.wav'}: buffer of 1323 samples is shorter than one "
            "frame (2048)\n")


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_csv_fields_holding_delimiter_and_quote_round_trip(tmp_path, capsys):
    """Every CSV the commands write quotes a path or id holding `,` or `"`."""
    corpus = tmp_path / "corpus"
    assert run("synth", "--pitches", "C2,G4", "--duration", "0.3", "--out", corpus) == 0
    for old, new in (("C2", "C,2"), ("G4", 'say "G4"')):
        (corpus / f"{old}.wav").rename(corpus / f"{new}.wav")
    assert run("dataset", "--corpus", corpus, "--mode", "single", "--step", "12",
               "--csv", "--out", tmp_path) == 0
    ids = [s["sample_id"] for s in json.loads((tmp_path / "manifest.json").read_text())["samples"]]
    rows = _csv_rows((tmp_path / "manifest.csv").read_text())
    assert {len(row) for row in rows} == {2 + 5 + len(FEATURE_NAMES)}
    assert [row[0] for row in rows[1:]] == ids and ids[0].startswith("C,2-")

    model = tmp_path / "linear.json"
    assert run("train", "--manifest", tmp_path / "manifest.json", "--model", "linear",
               "--outfile", model) == 0
    assert run("eval", "--model", model, "--manifest", tmp_path / "manifest.json",
               "--out", tmp_path) == 0
    scatter = _csv_rows((tmp_path / "eval_scatter.csv").read_text())
    assert {len(row) for row in scatter} == {4}
    assert [row[0] for row in scatter[1::5]] == ids

    wavs = sorted(str(p) for p in corpus.glob("*.wav"))
    capsys.readouterr()
    for command in (["extract"], ["predict", "--model", model]):
        assert run(*command, *wavs) == 0
        out = _csv_rows(capsys.readouterr().out)
        assert len({len(row) for row in out}) == 1
        assert [row[0] for row in out[1:]] == wavs


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    assert run("synth", "--pitches", "C2", "--duration", "0.3", "--out", corpus) == 0
    assert run("dataset", "--corpus", corpus, "--mode", "single", "--step", "2",
               "--csv", "--out", root) == 0
    return root


class TestPipeline:
    """synth -> dataset -> train -> predict -> eval on a miniature corpus."""

    def test_manifest_counts(self, workspace):
        doc = strict_json(workspace / "manifest.json")
        assert len(doc["samples"]) == 5 * 13  # 2 dB grid has 13 values
        assert (workspace / "manifest.csv").exists()

    def test_dataset_deterministic(self, workspace, tmp_path):
        assert run("dataset", "--corpus", workspace / "corpus", "--mode", "single",
                   "--step", "2", "--out", tmp_path) == 0
        assert (tmp_path / "manifest.json").read_bytes() == \
            (workspace / "manifest.json").read_bytes()

    def test_train_predict_eval(self, workspace):
        model_path = workspace / "linear.json"
        assert run("train", "--manifest", workspace / "manifest.json",
                   "--model", "linear", "--outfile", model_path) == 0
        doc = strict_json(model_path)
        assert doc["kind"] == "linear"
        assert "test_mse" in doc["metrics"]

        # an unprocessed note should predict near the flat setting
        flat_wav = workspace / "corpus" / "C2.wav"
        assert run("predict", "--model", model_path, flat_wav) == 0

        assert run("eval", "--model", model_path,
                   "--manifest", workspace / "manifest.json", "--out", workspace) == 0
        report = strict_json(workspace / "eval_report.json")
        assert report["n_samples"] == 65
        assert (workspace / "eval_scatter.csv").exists()

    def test_train_records_config(self, workspace):
        model_path = workspace / "mlp.json"
        assert run("train", "--manifest", workspace / "manifest.json", "--model", "mlp",
                   "--epochs", "5", "--hidden-dim", "8", "--outfile", model_path) == 0
        doc = json.loads(model_path.read_text())
        assert doc["train_config"]["hidden_dim"] == 8
        assert doc["params"]["hidden_dim"] == 8

    @pytest.mark.parametrize("model", ["linear", "forest", "mlp"])
    def test_train_rejects_non_finite_feature(self, workspace, tmp_path, capsys, model):
        doc = json.loads((workspace / "manifest.json").read_text())
        doc["samples"][0]["features"][4] = float("nan")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("train", "--manifest", manifest, "--model", model, "--trees", "2",
                   "--epochs", "2", "--outfile", tmp_path / "model.json") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["eqrep: manifest samples[0].features[4]: expected a finite number, "
                       "got nan"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_predict_sample_rate_mismatch(self, linear_artifact, tmp_path, capsys):
        other = tmp_path / "sr"
        run("synth", "--pitches", "C2", "--duration", "0.3",
            "--sample-rate", "22050", "--out", other)
        capsys.readouterr()
        assert run("predict", "--model", linear_artifact, other / "C2.wav") == 2
        stft = StftConfig(2048, 512)
        assert capsys.readouterr().err.splitlines() == [
            f"eqrep: {other / 'C2.wav'}: features of 22050 Hz, {stft} != model's 44100 Hz, "
            f"{stft}"]

    def test_predict_missing_file(self, workspace):
        assert run("predict", "--model", workspace / "linear.json", "missing.wav") == 2


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("eqrep: "), err
    return err[0]


@pytest.fixture(scope="module")
def linear_artifact(workspace):
    path = workspace / "linear_artifact.json"
    assert run("train", "--manifest", workspace / "manifest.json", "--model", "linear",
               "--outfile", path) == 0
    return path


@pytest.fixture(scope="module")
def forest_artifact(workspace):
    path = workspace / "forest.json"
    assert run("train", "--manifest", workspace / "manifest.json", "--model", "forest",
               "--trees", "2", "--outfile", path) == 0
    return path


@pytest.fixture(scope="module")
def mlp_artifact(workspace):
    path = workspace / "mlp_artifact.json"
    assert run("train", "--manifest", workspace / "manifest.json", "--model", "mlp",
               "--epochs", "2", "--hidden-dim", "4", "--outfile", path) == 0
    return path


def _other_bands(doc):
    """A copy of manifest `doc` whose band 2 has q 2.0, not the 1.0 of eq.BANDS."""
    bands = [dict(band) for band in doc["bands"]]
    bands[2]["q"] = 2.0
    return dict(doc, bands=bands)


OTHER_BANDS_ERROR = ("manifest bands[2]: expected {'center_hz': 2500.0, 'filter_kind': 'bell', "
                     "'q': 1.0}, got {'center_hz': 2500.0, 'filter_kind': 'bell', 'q': 2.0}")


class TestMalformedArtifacts:
    """A malformed model or manifest ends with exit 2 and one stderr line."""

    def test_predict_model_without_kind(self, workspace, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"schema_version": 1}))
        assert run("predict", "--model", model, workspace / "corpus" / "C2.wav") == 2
        assert _one_error_line(capsys) == "eqrep: model artifact lacks key 'kind'"

    def test_train_manifest_without_samples(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"schema_version": 1}))
        assert run("train", "--manifest", manifest, "--model", "linear",
                   "--outfile", tmp_path / "model.json") == 2
        assert _one_error_line(capsys) == "eqrep: manifest lacks key 'samples'"

    @pytest.mark.parametrize("field, value, message", [
        ("left", 999, "left child out of range"),
        ("right", 999, "right child out of range"),
    ])
    def test_predict_forest_with_bad_node(self, workspace, forest_artifact, tmp_path, capsys,
                                          field, value, message):
        doc = json.loads(forest_artifact.read_text())
        assert doc["params"]["trees"][0]["feature"][0] >= 0  # the root splits
        doc["params"]["trees"][0][field][0] = value
        model = tmp_path / "forest.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("predict", "--model", model, workspace / "corpus" / "C2.wav") == 2
        assert _one_error_line(capsys) == f"eqrep: forest tree {message}"

    def test_predict_forest_with_feature_outside_the_width(self, workspace, forest_artifact,
                                                           tmp_path, capsys):
        doc = json.loads(forest_artifact.read_text())
        assert doc["params"]["trees"][0]["feature"][0] >= 0  # the root splits
        doc["params"]["trees"][0]["feature"][0] = 40
        model = tmp_path / "forest.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("predict", "--model", model, workspace / "corpus" / "C2.wav") == 2
        assert _one_error_line(capsys) == ("eqrep: model artifact params.trees[0].feature[0]: "
                                           "expected an integer from -1 to 16, got 40")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [], "model artifact: expected an object, got an array"),
        (lambda doc: "x", "model artifact: expected an object, got a string"),
        (lambda doc: dict(doc, normalization=[]),
         "model artifact normalization: expected an object, got an array"),
        (lambda doc: dict(doc, params=[]),
         "model artifact params: expected an object, got an array"),
        (lambda doc: dict(doc, normalization=dict(doc["normalization"], mean="a")),
         "model artifact normalization.mean: expected a (n,) array of numbers, got a string"),
        (lambda doc: dict(doc, normalization=dict(doc["normalization"], std=[1.0] * 16)),
         "model artifact normalization.std: expected a (17,) array of numbers, got shape (16,)"),
        (lambda doc: dict(doc, train_config=[]),
         "model artifact train_config: expected an object, got an array"),
        (lambda doc: dict(doc, schema_version=True),
         "model artifact schema_version: expected an integer, got a boolean"),
        # numbers that would print inf or nan gains with exit 0
        (lambda doc: dict(doc, normalization=dict(doc["normalization"],
                                                  std=[0.0] + doc["normalization"]["std"][1:])),
         "model artifact normalization.std[0]: expected a number >= 5e-324, got 0.0"),
        (lambda doc: dict(doc, params=dict(doc["params"],
                                           bias=[float("nan")] + doc["params"]["bias"][1:])),
         "model artifact params.bias[0]: expected a finite number, got nan"),
    ], ids=["list", "string", "normalization-list", "params-list", "mean-string",
            "std-short", "train-config-list", "version-boolean", "std-zero", "bias-nan"])
    def test_predict_model_of_wrong_json_type(self, workspace, linear_artifact, tmp_path,
                                              capsys, edit, message):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(edit(json.loads(linear_artifact.read_text()))))
        capsys.readouterr()
        assert run("predict", "--model", model, workspace / "corpus" / "C2.wav") == 2
        assert _one_error_line(capsys) == f"eqrep: {message}"

    def test_predict_forest_tree_as_a_list(self, workspace, forest_artifact, tmp_path, capsys):
        doc = json.loads(forest_artifact.read_text())
        doc["params"]["trees"][1] = []
        model = tmp_path / "forest.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("predict", "--model", model, workspace / "corpus" / "C2.wav") == 2
        assert _one_error_line(capsys) == \
            "eqrep: model artifact params.trees[1]: expected an object, got an array"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [], "manifest: expected an object, got an array"),
        (lambda doc: "x", "manifest: expected an object, got a string"),
        (lambda doc: dict(doc, stft=[]), "manifest stft: expected an object, got an array"),
        (lambda doc: dict(doc, bands=[1]),
         "manifest bands[0]: expected an object, got an integer"),
        (lambda doc: dict(doc, stft=dict(doc["stft"], frame_size="x")),
         "manifest stft.frame_size: expected an integer, got a string"),
        (lambda doc: dict(doc, samples=[[]] + doc["samples"][1:]),
         "manifest samples[0]: expected an object, got an array"),
        (lambda doc: dict(doc, samples=[dict(doc["samples"][0], gains_db=[0.0] * 4)]),
         "manifest samples[0].gains_db: expected a (5,) array of numbers, got shape (4,)"),
        (lambda doc: dict(doc, samples=[dict(doc["samples"][0], features=[[0.0] * 17])]),
         "manifest samples[0].features: expected a (17,) array of numbers, got an array"),
        (_other_bands, OTHER_BANDS_ERROR),
    ], ids=["list", "string", "stft-list", "band-number", "frame-size-string",
            "sample-list", "gains-short", "features-nested", "band-q"])
    def test_train_manifest_of_wrong_json_type(self, workspace, tmp_path, capsys,
                                               edit, message):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(edit(json.loads(
            (workspace / "manifest.json").read_text()))))
        assert run("train", "--manifest", manifest, "--model", "linear",
                   "--outfile", tmp_path / "model.json") == 2
        assert _one_error_line(capsys) == f"eqrep: {message}"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("column, value, message", [
        ("features", 1e308, "a feature column of the training set overflows its mean or std"),
        ("gains_db", 1e308, "manifest samples[0].gains_db[1]: expected a number from -24.0 "
                            "to 24.0, got 1e+308"),
        ("gains_db", -24.5, "manifest samples[0].gains_db[1]: expected a number from -24.0 "
                            "to 24.0, got -24.5"),
        ("gains_db", float("nan"), "manifest samples[0].gains_db[1]: expected a number from "
                                   "-24.0 to 24.0, got nan"),
    ], ids=["feature-overflow", "gain-huge", "gain-outside", "gain-nan"])
    def test_train_manifest_of_numbers_out_of_range(self, workspace, tmp_path, capsys,
                                                    column, value, message):
        """Numbers that overflowed with a numpy warning, or trained on gains
        no EQ setting holds, end in one line."""
        doc = json.loads((workspace / "manifest.json").read_text())
        for i, sample in enumerate(doc["samples"]):
            sample[column][1] = value * (-1) ** i if column == "features" else value
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("train", "--manifest", manifest, "--model", "linear",
                   "--outfile", tmp_path / "model.json") == 2
        assert _one_error_line(capsys) == f"eqrep: {message}"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_eval_whose_mse_overflows_is_one_line(self, workspace, linear_artifact,
                                                  mlp_artifact, tmp_path, capsys, kind):
        """A feature far outside the training range gives a finite prediction
        whose squared error overflows: strict JSON cannot hold the report, so
        no file is written."""
        doc = json.loads((workspace / "manifest.json").read_text())
        doc["samples"][0]["features"][1] = 1e200
        manifest, out = tmp_path / "m.json", tmp_path / "out"
        manifest.write_text(json.dumps(doc))
        model = {"linear": linear_artifact, "mlp": mlp_artifact}[kind]
        capsys.readouterr()
        assert run("eval", "--model", model, "--manifest", manifest, "--out", out) == 2
        assert _one_error_line(capsys) == (f"eqrep: {out / 'eval_report.json'} overall_mse: "
                                           "expected a finite number, got inf")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["stft"].update(frame_size=3),
         "manifest stft.frame_size: frame_size must be a power of two, got 3"),
        (lambda doc: doc.update(sample_rate=0),
         f"manifest sample_rate: expected an integer from 1 to {MAX_SAMPLE_RATE}, got 0"),
        (lambda doc: doc["stft"].update(hop_size=4096),
         "manifest stft.hop_size: expected an integer from 1 to 2048, got 4096"),
    ], ids=["frame-3", "rate-0", "hop-above-frame"])
    def test_train_manifest_of_contract_out_of_range(self, workspace, tmp_path, capsys, edit,
                                                      message):
        doc = json.loads((workspace / "manifest.json").read_text())
        edit(doc)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("train", "--manifest", manifest, "--model", "linear",
                   "--outfile", tmp_path / "model.json") == 2
        assert _one_error_line(capsys) == f"eqrep: {message}"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("key, value, message", [
        ("sample_rate", 0, f"sample_rate: expected an integer from 1 to {MAX_SAMPLE_RATE}, "
                           "got 0"),
        ("hop_size", 4096, "hop_size: expected an integer from 1 to 2048, got 4096"),
        ("frame_size", 1000, "frame_size: frame_size must be a power of two, got 1000"),
    ], ids=["rate-0", "hop-above-frame", "frame-1000"])
    def test_artifact_of_contract_out_of_range(self, workspace, linear_artifact, tmp_path,
                                               capsys, command, key, value, message):
        doc = json.loads(linear_artifact.read_text())
        doc["train_config"][key] = value
        model, out = tmp_path / "m.json", tmp_path / "out"
        model.write_text(json.dumps(doc))
        argv = {"predict": ["predict", "--model", model, workspace / "corpus" / "C2.wav"],
                "eval": ["eval", "--model", model, "--manifest", workspace / "manifest.json",
                         "--out", out]}[command]
        capsys.readouterr()
        assert run(*argv) == 2
        assert _one_error_line(capsys) == f"eqrep: model artifact train_config.{message}"
        assert not out.exists() or list(out.iterdir()) == []

    def test_predict_that_overflows_is_one_line(self, workspace, linear_artifact, tmp_path,
                                                capsys):
        doc = json.loads(linear_artifact.read_text())
        doc["normalization"]["mean"][0] = -1.7e308
        doc["params"]["weights"][0][0] = 1.7e308
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("predict", "--model", model, workspace / "corpus" / "C2.wav") == 2
        assert _one_error_line(capsys) == ("eqrep: prediction overflows a float: the features "
                                           "lie far outside the model's training range")

    @pytest.mark.parametrize("key", ["sample_rate", "frame_size", "hop_size"])
    def test_predict_needs_the_feature_contract(self, workspace, linear_artifact, tmp_path,
                                                capsys, key):
        """A model saved without the contract `train` records is refused, not
        read at an assumed sample rate and STFT."""
        model = tmp_path / "m.json"
        if key == "sample_rate":  # an artifact saved with no train_config at all
            save_model(load_model(linear_artifact)[0], model)
        else:
            doc = json.loads(linear_artifact.read_text())
            del doc["train_config"][key]
            model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("predict", "--model", model, workspace / "corpus" / "C2.wav") == 2
        assert _one_error_line(capsys) == \
            f"eqrep: model artifact lacks key {key!r} in train_config"

    def test_eval_reports_the_artifact_seed(self, workspace, tmp_path, capsys):
        """`eval` scores every row, so its report's seed is the one that made
        the model; an artifact that does not record it is refused."""
        model = tmp_path / "m.json"
        assert run("train", "--manifest", workspace / "manifest.json", "--model", "linear",
                   "--seed", "7", "--outfile", model) == 0
        assert run("eval", "--model", model, "--manifest", workspace / "manifest.json",
                   "--out", tmp_path) == 0
        assert json.loads((tmp_path / "eval_report.json").read_text())["seed"] == 7

        doc = json.loads(model.read_text())
        del doc["train_config"]["seed"]
        model.write_text(json.dumps(doc))
        (tmp_path / "eval_report.json").unlink()
        capsys.readouterr()
        assert run("eval", "--model", model, "--manifest", workspace / "manifest.json",
                   "--out", tmp_path) == 2
        assert _one_error_line(capsys) == "eqrep: model artifact lacks key 'seed' in train_config"
        assert not (tmp_path / "eval_report.json").exists()

        doc["train_config"]["seed"] = -5  # no `train --seed` made it
        model.write_text(json.dumps(doc))
        assert run("eval", "--model", model, "--manifest", workspace / "manifest.json",
                   "--out", tmp_path) == 2
        assert _one_error_line(capsys) == ("eqrep: model artifact train_config.seed: expected "
                                           f"an integer from 0 to {2 ** 64 - 1}, got -5")
        assert not (tmp_path / "eval_report.json").exists()

        doc["train_config"]["seed"] = 2 ** 64  # read mod 2**64, it would alias seed 0
        model.write_text(json.dumps(doc))
        assert run("eval", "--model", model, "--manifest", workspace / "manifest.json",
                   "--out", tmp_path) == 2
        assert _one_error_line(capsys) == ("eqrep: model artifact train_config.seed: expected "
                                           f"an integer from 0 to {2 ** 64 - 1}, got {2 ** 64}")
        assert not (tmp_path / "eval_report.json").exists()

    def test_eval_needs_the_feature_contract(self, workspace, linear_artifact, tmp_path,
                                             capsys):
        model = tmp_path / "m.json"
        save_model(load_model(linear_artifact)[0], model)  # no train_config
        capsys.readouterr()
        assert run("eval", "--model", model, "--manifest", workspace / "manifest.json",
                   "--out", tmp_path) == 2
        assert _one_error_line(capsys) == \
            "eqrep: model artifact lacks key 'sample_rate' in train_config"
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize("key, value", [("sample_rate", 22050), ("hop_size", 256)])
    def test_eval_refuses_a_manifest_of_other_features(self, workspace, linear_artifact,
                                                       tmp_path, capsys, key, value):
        doc = json.loads((workspace / "manifest.json").read_text())
        (doc["stft"] if key == "hop_size" else doc)[key] = value
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--model", linear_artifact, "--manifest", manifest,
                   "--out", tmp_path) == 2
        stft = StftConfig(2048, value if key == "hop_size" else 512)
        rate = value if key == "sample_rate" else 44100
        assert _one_error_line(capsys) == (
            f"eqrep: {manifest}: features of {rate} Hz, {stft} != model's 44100 Hz, "
            f"{StftConfig(2048, 512)}")
        assert not (tmp_path / "eval_report.json").exists()

    def test_eval_refuses_a_manifest_of_other_bands(self, workspace, linear_artifact,
                                                    tmp_path, capsys):
        doc = json.loads((workspace / "manifest.json").read_text())
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(_other_bands(doc)))
        capsys.readouterr()
        assert run("eval", "--model", linear_artifact, "--manifest", manifest,
                   "--out", tmp_path) == 2
        assert _one_error_line(capsys) == f"eqrep: {OTHER_BANDS_ERROR}"
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_model_of_other_targets_is_refused(self, workspace, linear_artifact, tmp_path,
                                               capsys, command):
        """A model loads at any output width, but `predict` prints and `eval`
        scores the EQ's five band gains, so a 3-target artifact is refused."""
        manifest = ds.load_manifest(workspace / "manifest.json")
        model, out = tmp_path / "m.json", tmp_path / "out"
        save_model(MODEL_KINDS["linear"].fit(manifest.feature_matrix(),
                                             manifest.target_matrix()[:, :3], TrainConfig()),
                   model, load_model(linear_artifact)[1])
        argv = {"predict": ["predict", "--model", model, workspace / "corpus" / "C2.wav"],
                "eval": ["eval", "--model", model, "--manifest", workspace / "manifest.json",
                         "--out", out]}[command]
        capsys.readouterr()
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"eqrep: {model}: 3 target columns cannot be "
                                             f"labelled by the 5 band names"]
        assert not out.exists() or list(out.iterdir()) == []


# A manifest and a linear artifact in the layout eqrep wrote before the
# feature contract was one class, inlined so that no writer can change them.
OLD_MANIFEST = {
    "schema_version": 1, "sample_rate": 44100, "split_seed": 42,
    "stft": {"frame_size": 2048, "hop_size": 512},
    "bands": [{"center_hz": 80.0, "filter_kind": "low_shelf", "q": 0.707},
              {"center_hz": 240.0, "filter_kind": "bell", "q": 1.0},
              {"center_hz": 2500.0, "filter_kind": "bell", "q": 1.0},
              {"center_hz": 4000.0, "filter_kind": "bell", "q": 1.0},
              {"center_hz": 10000.0, "filter_kind": "high_shelf", "q": 0.707}],
    "samples": [
        {"sample_id": "C2-00000", "base_label": "C2", "gains_db": [-12.0, 0.0, 0.0, 0.0, 0.0],
         "features": [-11.0, 1.5, 0.5, 1.0, 1.0] + [0.0] * 12},
        {"sample_id": "C2-00001", "base_label": "C2", "gains_db": [0.0, 4.0, 0.0, 0.0, -8.0],
         "features": [1.0, 5.0, 1.0, 1.0, -7.0] + [3.0] * 12},
    ],
}
OLD_LINEAR = {
    "schema_version": 1, "kind": "linear",
    "params": {"weights": [[2.0 * (col == row) for col in range(17)] for row in range(5)],
               "bias": [0.0] * 5},
    "normalization": {"mean": [1.0] * 17, "std": [2.0] * 17},
    "train_config": {"model": "linear", "learning_rate": 0.001, "epochs": 500,
                     "batch_size": 64, "hidden_dim": 64, "seed": 42, "trees": 50,
                     "sample_rate": 44100, "frame_size": 2048, "hop_size": 512},
    "metrics": {"train_mse": 0.25, "test_mse": 0.5, "per_band_test_mse": [0.5] * 5},
}
# The gains OLD_LINEAR predicts for the two OLD_MANIFEST rows: (feature - 1) per band.
OLD_PREDICTIONS = [[-12.0, 0.5, -0.5, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0, -8.0]]


class TestFilesWrittenBeforeTheContract:
    def test_they_load_as_the_default_contract(self):
        manifest = ds.manifest_from_dict(copy.deepcopy(OLD_MANIFEST))
        model, train_config, metrics = models.model_from_dict(copy.deepcopy(OLD_LINEAR))
        contract = FeatureContract.from_doc(JsonValue(train_config, "model artifact",
                                                      "train_config"))
        assert manifest.contract == contract == FeatureContract()
        assert manifest.stft == StftConfig() and model.norm.width == contract.width
        np.testing.assert_array_equal(models.predict(model, manifest.feature_matrix()),
                                      OLD_PREDICTIONS)
        assert ds.manifest_to_dict(manifest) == OLD_MANIFEST
        assert models.model_to_dict(model, train_config, metrics) == OLD_LINEAR

    def test_eval_scores_them_as_before(self, tmp_path, capsys):
        for name, doc in (("manifest", OLD_MANIFEST), ("linear", OLD_LINEAR)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert run("eval", "--model", tmp_path / "linear.json",
                   "--manifest", tmp_path / "manifest.json", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "eval_report.json").read_text())
        assert (report["overall_mse"], report["per_band_mse"], report["n_samples"],
                report["seed"]) == (0.05, [0.0, 0.125, 0.125, 0.0, 0.0], 2, 42)
        assert capsys.readouterr().out == "overall MSE 0.05 (2 samples)\n"


def _nan_wav(directory):
    """A 44.1 kHz float WAV `C2.wav` in `directory` with a NaN at sample 1000."""
    directory.mkdir(parents=True, exist_ok=True)
    data = np.full(4096, 0.25, dtype=np.float32)
    data[1000] = np.nan
    wavfile.write(directory / "C2.wav", 44100, data)
    return directory / "C2.wav"


def _wav_argv(command, wav, model, out):
    """argv of `command` reading `wav` (dataset: as its corpus directory)."""
    return {"extract": ["extract", wav],
            "predict": ["predict", "--model", model, wav],
            "dataset": ["dataset", "--corpus", wav.parent, "--mode", "single",
                        "--out", out]}[command]


@pytest.mark.parametrize("command", ["extract", "predict", "dataset"])
def test_non_finite_wav_sample_is_runtime_error(command, linear_artifact, tmp_path, capsys):
    wav = _nan_wav(tmp_path / "corpus")
    argv = _wav_argv(command, wav, linear_artifact, tmp_path / "data")
    capsys.readouterr()
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"eqrep: {wav}: sample 1000 is nan; samples must be finite"]
    header = "path," + ",".join(BAND_NAMES) + "\n"  # predict prints it first
    assert captured.out == (header if command == "predict" else "")
    assert not (tmp_path / "data" / "manifest.json").exists()


def _patched(data, at, value):
    """`data` with the 4 bytes at `at` replaced by little-endian `value`."""
    return data[:at] + value.to_bytes(4, "little") + data[at + 4:]


def _pcm16(wav):
    """A 44.1 kHz int16 WAV of as many samples as the float WAV `wav`."""
    out = io.BytesIO()
    wavfile.write(out, 44100, np.full((len(wav) - 58) // 4, 8192, dtype=np.int16))
    return out.getvalue()


# Malformed copies of a float WAV of 4096 samples (RIFF header, `fmt ` chunk
# at byte 12 with its channel count at byte 22 and its rate at byte 24,
# `fact` chunk at byte 38, `data` chunk at byte 50).
MALFORMED_WAVS = {
    "riff-only": lambda wav: b"RIFF",
    "cut-at-20-bytes": lambda wav: wav[:20],
    "fmt-size-1000": lambda wav: _patched(wav, 16, 1000),
    "chunk-size-huge": lambda wav: _patched(wav, 40, 0x7FFFFFFF),
    "zero-channels": lambda wav: wav[:22] + bytes(2) + wav[24:],
    "empty": lambda wav: b"",
    "cut-in-data": lambda wav: wav[:-4000],
    "cut-mid-sample": lambda wav: _pcm16(wav)[:-1],
    "zero-rate": lambda wav: _patched(wav, 24, 0),
}


@pytest.mark.parametrize("command", ["extract", "predict", "dataset"])
@pytest.mark.parametrize("malformed", MALFORMED_WAVS)
def test_malformed_wav_is_one_line_runtime_error(command, malformed, linear_artifact,
                                                 tmp_path, capsys):
    good = io.BytesIO()
    wavfile.write(good, 44100, np.full(4096, 0.25, dtype=np.float32))
    wav = tmp_path / "corpus" / "C2.wav"
    wav.parent.mkdir()
    wav.write_bytes(MALFORMED_WAVS[malformed](good.getvalue()))
    capsys.readouterr()
    assert run(*_wav_argv(command, wav, linear_artifact, tmp_path / "data")) == 2
    assert _one_error_line(capsys).startswith(f"eqrep: {wav}: ")
    assert not (tmp_path / "data" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["extract", "predict", "dataset"])
def test_note_shorter_than_a_frame_is_named(command, linear_artifact, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run("synth", "--pitches", "C4", "--duration", "0.01", "--out", corpus) == 0
    wav = corpus / "C4.wav"
    capsys.readouterr()
    assert run(*_wav_argv(command, wav, linear_artifact, tmp_path / "data")) == 2
    source = "note C4" if command == "dataset" else wav
    assert _one_error_line(capsys) == (
        f"eqrep: {source}: buffer of 441 samples is shorter than one frame (2048)")
    assert not (tmp_path / "data" / "manifest.json").exists()


def _with_chunk_before_data(wav, chunk_id, body):
    """`wav` with one more chunk right before its `data` chunk, and the RIFF
    size grown to match."""
    at = wav.index(b"data")
    wav = wav[:at] + chunk_id + len(body).to_bytes(4, "little") + body + wav[at:]
    return _patched(wav, 4, len(wav) - 8)


@pytest.mark.parametrize("name, code, lines", [("fmt-size-1000", 2, 1), ("extra-chunk", 0, 0)])
def test_wav_parser_warnings_stay_off_stderr(tmp_path, name, code, lines):
    """Outside pytest's warning capture, a refused WAV prints its one
    `eqrep:` line and a readable one with an unknown chunk prints nothing."""
    good = io.BytesIO()
    wavfile.write(good, 44100, np.full(4096, 0.25, dtype=np.float32))
    wav = tmp_path / f"{name}.wav"
    wav.write_bytes(_patched(good.getvalue(), 16, 1000) if name == "fmt-size-1000"
                    else _with_chunk_before_data(good.getvalue(), b"abcd", bytes(4)))
    src = str(Path(eqrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "eqrep.cli", "extract", str(wav)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, len(proc.stderr.splitlines())) == (code, lines), proc.stderr
    if code:
        assert proc.stderr.startswith(f"eqrep: {wav}: ")
    else:
        assert read_wav(wav).samples.tolist() == [0.25] * 4096


@settings(max_examples=40, deadline=None, database=None)
@seed(2048)
@given(base=st.sampled_from(MUTANT_BASES), **MUTATIONS)
def test_commands_on_mutant_wavs_exit_0_or_one_error_line(linear_artifact, tmp_path_factory,
                                                          base, overwrite, insert, cut):
    """extract and predict on a mutant (test_audio._mutant) of a valid
    2 048-frame 44.1 kHz WAV exit 0 silently, or 2 with one `eqrep: ` line;
    a warning counts as a stderr line, as it would outside pytest."""
    wav = tmp_path_factory.getbasetemp() / "cli-mutant.wav"
    wav.write_bytes(_mutant(base, 2048, overwrite, insert, cut)[0])
    for command in ("extract", "predict"):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(*_wav_argv(command, wav, linear_artifact, None))
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert (code, lines) == (0, []) or (
            code == 2 and len(lines) == 1 and lines[0].startswith("eqrep: ")), (command, lines)


@pytest.fixture(scope="module")
def json_documents(workspace, linear_artifact, forest_artifact, mlp_artifact):
    """The parsed manifest and linear, forest and MLP artifacts that
    `test_commands_on_mutant_json_exit_0_or_one_error_line` mutates."""
    paths = {"manifest": workspace / "manifest.json", "linear": linear_artifact,
             "forest": forest_artifact, "mlp": mlp_artifact}
    return {name: json.loads(path.read_text()) for name, path in paths.items()}


@settings(max_examples=60, deadline=None, database=None)
@seed(36)
@given(data=st.data(), name=st.sampled_from(["manifest", *MODEL_KINDS]))
def test_commands_on_mutant_json_exit_0_or_one_error_line(json_documents, workspace,
                                                          linear_artifact, tmp_path_factory,
                                                          data, name):
    """train and eval on a mutant manifest, and predict and eval on a mutant
    model artifact, exit 0 silently or 2 with one `eqrep: ` line. A mutant
    deletes the value at one key path, often the contract's, or replaces it
    with any JSON value; a warning counts as a stderr line."""
    doc = copy.deepcopy(json_documents[name])
    paths = st.sampled_from(CONTRACT_PATHS[name]) | st.sampled_from(list(_paths(doc)))
    *parents, key = data.draw(paths)
    owner = doc
    for parent in parents:
        owner = owner[parent]
    if data.draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = data.draw(json_values | st.integers())
    work = tmp_path_factory.getbasetemp() / "cli-json"
    work.mkdir(exist_ok=True)
    mutant = work / f"{name}.json"
    mutant.write_text(json.dumps(doc))
    manifest, wav = workspace / "manifest.json", workspace / "corpus" / "C2.wav"
    runs = ([["train", "--manifest", mutant, "--model", "linear", "--outfile", work / "m.json"],
             ["eval", "--model", linear_artifact, "--manifest", mutant, "--out", work]]
            if name == "manifest" else
            [["predict", "--model", mutant, wav],
             ["eval", "--model", mutant, "--manifest", manifest, "--out", work]])
    for argv in runs:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(*argv)
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert (code, lines) == (0, []) or (
            code == 2 and len(lines) == 1 and lines[0].startswith("eqrep: ")), (argv[0], lines)


class TestDatasetSampleRate:
    def test_takes_the_corpus_rate(self, tmp_path):
        corpus = tmp_path / "c22"
        assert run("synth", "--pitches", "C2,G4", "--duration", "0.3",
                   "--sample-rate", "22050", "--out", corpus) == 0
        assert run("dataset", "--corpus", corpus, "--mode", "single", "--step", "12",
                   "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["sample_rate"] == 22050 and len(doc["samples"]) == 2 * 5 * 3

    def test_mixed_rates_are_runtime_error(self, tmp_path, capsys):
        corpus = tmp_path / "mixed"
        for pitch, rate in (("C2", "44100"), ("G4", "22050")):
            assert run("synth", "--pitches", pitch, "--duration", "0.1",
                       "--sample-rate", rate, "--out", corpus) == 0
        capsys.readouterr()
        assert run("dataset", "--corpus", corpus, "--mode", "single",
                   "--out", tmp_path) == 2
        assert capsys.readouterr().err.splitlines() == [
            "eqrep: note G4: sample rate 22050 != 44100 of note C2"]
        assert not (tmp_path / "manifest.json").exists()


def test_dataset_keep_audio_writes_each_processed_note(tmp_path):
    """`--keep-audio`: the workers write one WAV per manifest row, each the
    EQ'd note as float32."""
    corpus = tmp_path / "corpus"
    assert run("synth", "--pitches", "C2", "--duration", "0.3", "--out", corpus) == 0
    assert run("dataset", "--corpus", corpus, "--mode", "multi", "--limit", 6,
               "--jobs", min(2, os.cpu_count() or 1), "--keep-audio", "--out", tmp_path) == 0
    samples = ds.load_manifest(tmp_path / "manifest.json").samples
    kept = tmp_path / "processed_audio"
    assert sorted(p.name for p in kept.iterdir()) == sorted(f"{i}.wav" for i in samples.sample_id)
    row = samples[3]
    processed = apply_eq(read_wav(corpus / "C2.wav"), row.gains_db)
    np.testing.assert_array_equal(read_wav(kept / f"{row.sample_id}.wav").samples,
                                  processed.samples.astype(np.float32))


class TestDatasetStep:
    def test_fractional_step_reaches_plus_12(self, workspace, tmp_path):
        assert run("dataset", "--corpus", workspace / "corpus", "--mode", "single",
                   "--step", "0.3", "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert len(doc["samples"]) == 5 * 81  # 24 dB / 0.3 dB = 80 steps
        gains = [g for s in doc["samples"] for g in s["gains_db"]]
        assert max(gains) == 12.0 and min(gains) == -12.0

    @pytest.mark.parametrize("step", ["0", "-1", "0.7", "nan", "abc", "0.0008", "1e-9", "1e-320"])
    def test_bad_step_is_usage_error(self, tmp_path, capsys, step):
        with pytest.raises(SystemExit) as exc:
            run("dataset", "--corpus", tmp_path, "--mode", "single", "--step", step,
                "--out", tmp_path)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --step" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_finest_step_is_accepted(self):
        argv = ["dataset", "--corpus", "c", "--mode", "single", "--step", "0.001"]
        assert build_parser().parse_args(argv).step == 0.001


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", "1"],
    ["synth", "--frame-size", "1024"],
    ["synth", "--hop-size", "256"],
    ["extract", "--sample-rate", "22050", "a.wav"],
    ["extract", "--seed", "1", "a.wav"],
    ["dataset", "--sample-rate", "44100", "--corpus", "c", "--mode", "single"],
    ["train", "--optimizer", "adam", "--manifest", "m", "--model", "mlp", "--outfile", "o"],
    ["eval", "--seed", "7", "--model", "m", "--manifest", "x"],
])
def test_option_the_command_does_not_read_is_usage_error(argv, capsys):
    """Parsed only: each subcommand accepts only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"eqrep: error: unrecognized arguments: {argv[1]}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["--mode", "single", "--limit", "3"], "--limit"),
    (["--mode", "single", "--full"], "--full"),
    (["--mode", "multi", "--step", "2"], "--step"),
    (["--mode", "single", "--seed", "1"], "--seed"),
])
def test_option_the_dataset_mode_does_not_read_is_usage_error(argv, option, capsys):
    """Parsed only: `dataset` refuses an option that its --mode ignores."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["dataset", "--corpus", "c", *argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == \
        f"eqrep: error: argument {option}: not read by --mode {argv[1]}"
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_dataset_mode_options_keep_their_defaults(mode):
    args = build_parser().parse_args(["dataset", "--corpus", "c", "--mode", mode])
    assert (args.step, args.limit, args.full) == (1.0, 3000, False)
    assert args.seed == 42


@pytest.mark.parametrize("argv", [
    ["extract", "a.wav"],
    ["dataset", "--corpus", "c", "--mode", "single"],
    ["reproduce"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("stft, option", [
    (["--frame-size", "1000"], "--frame-size"),
    (["--frame-size", "0"], "--frame-size"),
    (["--hop-size", "0"], "--hop-size"),
    (["--frame-size", "1024", "--hop-size", "4096"], "--hop-size"),
], ids=["frame-1000", "frame-0", "hop-0", "hop-above-frame"])
def test_bad_stft_option_is_usage_error(argv, stft, option, tmp_path, capsys):
    """Refused at parse time, before any note is read, made or written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(*argv, *stft, *(["--out", out] if argv[0] != "extract" else []))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument {option}: " in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()


def _jobs_argv(command, jobs):
    extra = ["--corpus", "corpus", "--mode", "multi"] if command == "dataset" else []
    return [command, "--jobs", str(jobs)] + extra


class TestJobsBound:
    """Parsed only: no command runs, so no pool of any size starts."""

    @pytest.mark.parametrize("command", ["dataset", "reproduce"])
    @pytest.mark.parametrize("jobs", ["0", "-2", str((os.cpu_count() or 1) + 1), "two"])
    def test_out_of_range_is_usage_error(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(_jobs_argv(command, jobs))
        assert exc.value.code == 1
        assert "argument --jobs" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["dataset", "reproduce"])
    def test_cpu_count_is_accepted(self, command):
        cpus = os.cpu_count() or 1
        assert build_parser().parse_args(_jobs_argv(command, cpus)).jobs == cpus
        assert build_parser().parse_args(_jobs_argv(command, 1)).jobs == 1


class TestTrainOptionBounds:
    """Parsed only: no manifest is read."""

    ARGV = ["train", "--manifest", "m.json", "--model", "forest", "--outfile", "f.json"]

    @pytest.mark.parametrize("option, value", [
        ("--trees", "0"), ("--trees", "-1"), ("--trees", "1.5"),
        ("--epochs", "0"), ("--hidden-dim", "0"), ("--batch-size", "-64"),
        ("--learning-rate", "0"), ("--learning-rate", "-1e-3"),
        ("--learning-rate", "nan"), ("--learning-rate", "inf"), ("--learning-rate", "fast"),
    ])
    def test_bad_value_is_usage_error(self, option, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(self.ARGV + [option, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {option}" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_smallest_values_are_accepted(self):
        args = build_parser().parse_args(self.ARGV + [
            "--trees", "1", "--epochs", "1", "--hidden-dim", "1", "--batch-size", "1",
            "--learning-rate", "1e-9"])
        assert (args.trees, args.epochs, args.hidden_dim, args.batch_size) == (1, 1, 1, 1)
        assert args.learning_rate == 1e-9

    def test_every_train_config_field_is_an_option(self):
        args = build_parser().parse_args(["train", "--manifest", "m", "--model", "linear",
                                          "--outfile", "o"])
        for field in fields(TrainConfig):
            assert getattr(args, field.name) == field.default, field.name

    def test_model_choices_are_the_model_kinds(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        assert "--model {" + ",".join(MODEL_KINDS) + "}" in capsys.readouterr().out


def test_jobs_default_to_the_usable_cores():
    usable = len(os.sched_getaffinity(0))
    assert build_parser().parse_args(["reproduce"]).jobs == usable
    dataset = ["dataset", "--corpus", "corpus", "--mode", "multi"]
    assert build_parser().parse_args(dataset).jobs == usable


def _limit_argv(command, limit):
    extra = ["--corpus", "corpus", "--mode", "multi"] if command == "dataset" else []
    return [command, "--limit", str(limit)] + extra


class TestLimitBound:
    """Parsed only: no dataset is built."""

    @pytest.mark.parametrize("command, limit", [
        ("dataset", "0"), ("dataset", "-5"), ("dataset", "many"),
        ("reproduce", "100"), ("reproduce", "499"), ("reproduce", "16808"),
        ("reproduce", "2e3"),
    ])
    def test_out_of_range_is_usage_error(self, command, limit, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(_limit_argv(command, limit))
        assert exc.value.code == 1
        assert "argument --limit" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("command, limit", [
        ("dataset", 1), ("dataset", 99999), ("reproduce", 500), ("reproduce", 16807),
    ])
    def test_range_ends_are_accepted(self, command, limit):
        assert build_parser().parse_args(_limit_argv(command, limit)).limit == limit


def _seed_argv(command, seed):
    extra = {"dataset": ["--corpus", "corpus", "--mode", "multi"],
             "train": ["--manifest", "m", "--model", "linear", "--outfile", "o"]}
    return [command, "--seed", str(seed)] + extra.get(command, [])


class TestSeedBound:
    """Parsed only: no dataset is built and no model is trained."""

    @pytest.mark.parametrize("command", ["dataset", "train", "reproduce"])
    @pytest.mark.parametrize("seed", ["-1", "-5", "1.5", "x", str(2 ** 64)])
    def test_bad_value_is_usage_error(self, command, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(_seed_argv(command, seed))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --seed" in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, seed", [
        ("dataset", 0), ("train", 0), ("reproduce", 0), ("dataset", 2 ** 64 - 1),
        ("train", 2 ** 64 - 1), ("reproduce", 2 ** 64 - 1),
    ])
    def test_range_ends_are_accepted(self, command, seed):
        assert build_parser().parse_args(_seed_argv(command, seed)).seed == seed

    def test_largest_seed_round_trips(self, tmp_path):
        """The manifest and the artifact a seed of 2**64 - 1 writes read back."""
        seed, manifest, model = str(2 ** 64 - 1), tmp_path / "manifest.json", tmp_path / "m.json"
        assert run("synth", "--pitches", "C2", "--duration", "0.3", "--out", tmp_path) == 0
        assert run("dataset", "--corpus", tmp_path, "--mode", "multi", "--limit", "60",
                   "--jobs", "1", "--seed", seed, "--out", tmp_path) == 0
        assert run("train", "--manifest", manifest, "--model", "linear", "--seed", seed,
                   "--outfile", model) == 0
        assert run("eval", "--model", model, "--manifest", manifest, "--out", tmp_path) == 0
        assert json.loads((tmp_path / "eval_report.json").read_text())["seed"] == 2 ** 64 - 1


def _sample_rate_argv(command, rate):
    extra = ["--gains", "0,0,0,0,0"] if command == "response" else []
    return [command, "--sample-rate", str(rate)] + extra


class TestSampleRateBound:
    """Parsed only: no note is synthesized and no EQ is designed."""

    @pytest.mark.parametrize("command", ["synth", "reproduce", "response"])
    @pytest.mark.parametrize("rate", ["0", "-22050", "22050.5", "fast", str(MAX_SAMPLE_RATE + 1)])
    def test_bad_value_is_usage_error(self, command, rate, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(_sample_rate_argv(command, rate))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --sample-rate" in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "reproduce", "response"])
    def test_positive_value_is_accepted(self, command):
        assert build_parser().parse_args(_sample_rate_argv(command, 1)).sample_rate == 1

    @pytest.mark.parametrize("command", ["synth", "reproduce", "response"])
    def test_largest_wav_rate_is_accepted(self, command):
        args = build_parser().parse_args(_sample_rate_argv(command, MAX_SAMPLE_RATE))
        assert args.sample_rate == MAX_SAMPLE_RATE == (2 ** 32 - 1) // 4


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                      "and data type float64")


# Numeric input that overflowed or ran out of memory in a traceback: argv,
# the exit code and the start of the error line. Code 1 is refused at parse
# time and only parsed; code 2 runs, with `response`'s frequency grid stubbed.
OVERFLOWING_INPUT = [
    (["synth", "--sample-rate", "2000000000", "--pitches", "C4", "--duration", "1e-9"], 1,
     "eqrep synth: error: argument --sample-rate: must be an integer from 1 to 1073741823"),
    (["synth", "--sample-rate", "9" * 401], 1, "eqrep synth: error: argument --sample-rate: "),
    (["response", "--gains", "0,0,0,0,0", "--sample-rate", "9" * 401], 1,
     "eqrep response: error: argument --sample-rate: "),
    (["synth", "--pitches", "C10000"], 2,
     "eqrep: pitch label 'C10000': frequency overflows a float"),
    (["dataset", "--corpus", "c", "--mode", "single", "--step", "1e-9"], 1,
     "eqrep dataset: error: argument --step: grid step must be at least 0.001 dB"),
    (["response", "--gains", "0,0,0,0,0", "--points", "100000000000"], 2,
     "eqrep: Unable to allocate 745. GiB"),
]


@pytest.mark.parametrize("argv, code, line", OVERFLOWING_INPUT,
                         ids=["synth-rate-2e9", "synth-rate-401-digits",
                              "response-rate-401-digits", "synth-pitch-C10000",
                              "dataset-step-1e-9", "response-points-1e11"])
def test_overflowing_numeric_input_is_one_line(argv, code, line, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "log_frequency_grid", _no_memory)
    if code == 1:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 1
    else:
        assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith(line)
    # a runtime failure prints its one line; a usage error its usage, then one error line
    assert [text for text in lines if "error:" in text or text.startswith("eqrep:")] \
        == lines[-1:]
    assert code == 1 or len(lines) == 1
    assert list(tmp_path.iterdir()) == []


def _typed_options():
    """(command, option) of every option a type function parses."""
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.option_strings[0]) for command, sub in commands.choices.items()
            for action in sub._actions if action.type is not None]


def _option_argv(command, option, text):
    """`command` with its required arguments and `option=text`: dataset in
    the mode that reads the option, and --frame-size with a hop every frame fits."""
    mode = "single" if option == "--step" else "multi"
    required = {"dataset": ["--corpus", "c", "--mode", mode], "extract": ["a.wav"],
                "train": ["--manifest", "m", "--model", "linear", "--outfile", "o"],
                "response": ["--gains", "0,0,0,0,0"]}
    hop = ["--hop-size=1"] if option == "--frame-size" else []
    return [command, *required.get(command, []), *hop, f"{option}={text}"]


# Any text, and the numbers a type function may mishandle: huge integers,
# floats at and past both ends of the double range, and special spellings.
NUMBER_TEXT = st.one_of(
    st.text(),
    st.integers().map(str),
    st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "-", "+"]),
              st.text("0123456789", min_size=20, max_size=5000)),
    st.floats().map(repr),
    st.floats(-1e-300, 1e-300).map(repr),
    st.builds("{}e{}".format, st.sampled_from(["1", "-1", "2.5"]), st.integers(-400, 400)),
    st.sampled_from(["nan", "-inf", "1e400", "4e-324", "0x10", "1_000", " 7 ", "", "-0"]),
)
PARSER = build_parser()


@pytest.mark.parametrize("command, option", _typed_options())
@settings(max_examples=40, deadline=None, database=None)
@seed(33)
@given(text=NUMBER_TEXT)
def test_numeric_option_parses_or_is_one_usage_error(command, option, text):
    """Parsed only: any text either parses or exits 1 with one error line
    that names the option, never a traceback. The step bound keeps a fine
    --step from allocating its grid."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            PARSER.parse_args(_option_argv(command, option, text))
            return
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code == 1
    assert [line for line in lines if ": error: " in line] == lines[-1:]
    assert f"error: argument {option}: " in lines[-1]


def test_reproduce_builds_with_the_stft_options(monkeypatch, tmp_path, capsys):
    seen = []

    def build_dataset(corpus, settings, stft=None, **kwargs):
        seen.append(stft)
        raise RuntimeError("build stopped by the test")

    monkeypatch.setattr(ds, "build_dataset", build_dataset)
    assert run("reproduce", "--frame-size", 1024, "--hop-size", 256, "--out", tmp_path) == 2
    assert seen == [StftConfig(1024, 256)]
    assert capsys.readouterr().err.splitlines() == ["eqrep: build stopped by the test"]


def test_reproduce_pitches_take_the_reference_partials(monkeypatch, tmp_path):
    seen = []

    def build_dataset(corpus, settings, stft=None, **kwargs):
        seen.append(corpus)
        raise RuntimeError("build stopped by the test")

    monkeypatch.setattr(ds, "build_dataset", build_dataset)
    assert run("reproduce", "--pitches", "C2", "--sample-rate", 22050,
               "--out", tmp_path) == 2
    [[(label, note)]] = seen
    [(ref_label, ref)] = ev.reproduction_corpus(22050)
    assert label == ref_label and note.sample_rate == ref.sample_rate
    np.testing.assert_array_equal(note.samples, ref.samples)


def test_reproduce_rejects_repeated_pitches(monkeypatch, tmp_path, capsys):
    def apply_eq(*args, **kwargs):
        raise AssertionError("EQ work started")

    monkeypatch.setattr(ds, "apply_eq", apply_eq)
    assert run("reproduce", "--pitches", "C2,C2", "--sample-rate", 8000,
               "--out", tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        "eqrep: corpus repeats note label(s) C2"]
    assert list(tmp_path.iterdir()) == []


POOL_JOBS = str(min(2, os.cpu_count() or 1))


def test_reproduce_error_in_a_worker_is_one_line(tmp_path, capsys):
    assert run("reproduce", "--sample-rate", 16000, "--jobs", POOL_JOBS,
               "--out", tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        "eqrep: center 10000.0 Hz is at or above Nyquist"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
def test_reproduce_dead_worker_is_one_line(monkeypatch, tmp_path, capsys):
    parent = os.getpid()
    real_apply_eq = ds.apply_eq

    def apply_eq(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real_apply_eq(*args, **kwargs)

    monkeypatch.setattr(ds, "apply_eq", apply_eq)
    # A pool that waited forever for the dead worker would hang the suite:
    # end the test run with a traceback instead.
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
    try:
        code = run("reproduce", "--sample-rate", 8000, "--jobs", "2", "--out", tmp_path)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("eqrep: ")
    assert "terminated abruptly" in err[0]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
def test_mlp_error_in_a_worker_is_raised_in_the_caller(monkeypatch, tmp_path, capsys):
    parent = os.getpid()
    diverged = "training diverged: non-finite loss at step 1"

    def train_mlp(*args, **kwargs):
        assert os.getpid() != parent, "the MLP fit in the calling process"
        raise RuntimeError(diverged)

    monkeypatch.setattr(models, "train_mlp", train_mlp)
    rng = np.random.default_rng(5)
    n = ev.MULTI_BAND_MIN_SAMPLES
    samples = ds.sample_table([f"s{i}" for i in range(n)], ["x"] * n,
                              rng.choice(ds.COARSE_GRID, size=(n, 5)),
                              rng.standard_normal((n, len(FEATURE_NAMES))))
    with pytest.raises(RuntimeError) as excinfo:
        ev.experiment_multi_band(ds.DatasetManifest(FeatureContract(), samples, 0), 42,
                                 jobs=2)
    assert excinfo.type is RuntimeError and str(excinfo.value) == diverged
    assert run("reproduce", "--sample-rate", 22050, "--limit", n, "--jobs", "2",
               "--out", tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [f"eqrep: {diverged}"]


def test_reproduce_bytes_do_not_depend_on_blas_threads_or_jobs(tmp_path):
    """The same run with one BLAS thread in process and with two BLAS threads
    on two workers: same exit code, byte-identical output files."""
    src = str(Path(eqrep.__file__).resolve().parents[1])
    runs = []
    for threads, jobs in (("1", "1"), ("2", POOL_JOBS)):
        out = tmp_path / f"blas{threads}_jobs{jobs}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "eqrep.cli", "reproduce", "--sample-rate", "22050",
             "--limit", "500", "--seed", "42", "--jobs", jobs, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((proc.returncode, files))
    assert len(runs[0][1]) == 13
    assert runs[0] == runs[1]


class TestEnvOverride:
    def test_eqrep_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQREP_OUT", str(tmp_path / "env_out"))
        assert run("synth", "--pitches", "A4", "--duration", "0.05", "--out", ".") == 0
        assert (tmp_path / "env_out" / "A4.wav").exists()


class TestHelp:
    @pytest.mark.parametrize("cmd", ["synth", "dataset", "extract", "train",
                                     "predict", "eval", "reproduce", "response"])
    def test_every_subcommand_has_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            run(cmd, "--help")
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out
