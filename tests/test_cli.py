import faulthandler
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqrep
from eqrep import dataset as ds
from eqrep import evaluate as ev
from eqrep.cli import build_parser, main
from eqrep.features import FEATURE_NAMES, StftConfig
from eqrep.models import load_model, save_model


def run(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_single_pitch(self, tmp_path):
        assert run("synth", "--pitches", "A4", "--duration", "0.1", "--out", tmp_path) == 0
        assert (tmp_path / "A4.wav").exists()
        index = json.loads((tmp_path / "corpus_index.json").read_text())
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

    def test_nan_gain_is_runtime_error(self, capsys):
        assert run("response", "--gains", "6,-3,0,4,nan") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run("response")  # --gains is required
        assert exc.value.code == 1


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
        doc = json.loads((workspace / "manifest.json").read_text())
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
        doc = json.loads(model_path.read_text())
        assert doc["kind"] == "linear"
        assert "test_mse" in doc["metrics"]

        # an unprocessed note should predict near the flat setting
        flat_wav = workspace / "corpus" / "C2.wav"
        assert run("predict", "--model", model_path, flat_wav) == 0

        assert run("eval", "--model", model_path,
                   "--manifest", workspace / "manifest.json", "--out", workspace) == 0
        report = json.loads((workspace / "eval_report.json").read_text())
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
        assert err == ["eqrep: non-finite feature in the training set"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_predict_sample_rate_mismatch(self, workspace, tmp_path):
        other = tmp_path / "sr"
        run("synth", "--pitches", "C2", "--duration", "0.3",
            "--sample-rate", "22050", "--out", other)
        assert run("predict", "--model", workspace / "linear.json",
                   other / "C2.wav") == 2

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
        ("feature", 40, "feature index outside [0, 17)"),
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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [], "model artifact: expected an object, got an array"),
        (lambda doc: "x", "model artifact: expected an object, got a string"),
        (lambda doc: dict(doc, normalization=[]),
         "model artifact normalization: expected an object, got an array"),
        (lambda doc: dict(doc, params=[]),
         "model artifact params: expected an object, got an array"),
        (lambda doc: dict(doc, normalization=dict(doc["normalization"], mean="a")),
         "model artifact normalization.mean: expected a (17,) array of numbers, got a string"),
        (lambda doc: dict(doc, normalization=dict(doc["normalization"], std=[1.0] * 16)),
         "model artifact normalization.std: expected a (17,) array of numbers, got shape (16,)"),
        (lambda doc: dict(doc, train_config=[]),
         "model artifact train_config: expected an object, got an array"),
        (lambda doc: dict(doc, schema_version=True),
         "model artifact schema_version: expected an integer, got a boolean"),
    ], ids=["list", "string", "normalization-list", "params-list", "mean-string",
            "std-short", "train-config-list", "version-boolean"])
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
    ], ids=["list", "string", "stft-list", "band-number", "frame-size-string",
            "sample-list", "gains-short", "features-nested"])
    def test_train_manifest_of_wrong_json_type(self, workspace, tmp_path, capsys,
                                               edit, message):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(edit(json.loads(
            (workspace / "manifest.json").read_text()))))
        assert run("train", "--manifest", manifest, "--model", "linear",
                   "--outfile", tmp_path / "model.json") == 2
        assert _one_error_line(capsys) == f"eqrep: {message}"
        assert not (tmp_path / "model.json").exists()

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


class TestDatasetStep:
    def test_fractional_step_reaches_plus_12(self, workspace, tmp_path):
        assert run("dataset", "--corpus", workspace / "corpus", "--mode", "single",
                   "--step", "0.3", "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert len(doc["samples"]) == 5 * 81  # 24 dB / 0.3 dB = 80 steps
        gains = [g for s in doc["samples"] for g in s["gains_db"]]
        assert max(gains) == 12.0 and min(gains) == -12.0

    @pytest.mark.parametrize("step", ["0", "-1", "0.7", "nan", "abc"])
    def test_bad_step_is_usage_error(self, tmp_path, capsys, step):
        with pytest.raises(SystemExit) as exc:
            run("dataset", "--corpus", tmp_path, "--mode", "single", "--step", step,
                "--out", tmp_path)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --step" in err.splitlines()[-1]
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", "1"],
    ["synth", "--frame-size", "1024"],
    ["synth", "--hop-size", "256"],
    ["extract", "--sample-rate", "22050", "a.wav"],
    ["extract", "--seed", "1", "a.wav"],
])
def test_option_the_command_does_not_read_is_usage_error(argv, capsys):
    """Parsed only: each subcommand accepts only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"eqrep: error: unrecognized arguments: {argv[1]}")
    assert "Traceback" not in err


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
