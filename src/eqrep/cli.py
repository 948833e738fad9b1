"""Command-line pipeline: synth, dataset, extract, train, predict, eval,
reproduce, response.

Exit codes: 0 success, 1 usage error, 2 runtime failure. synth, dataset,
eval and reproduce write into the --out directory (default .); the EQREP_OUT
environment variable, when set, replaces it, even when --out is given.
extract and response write a CSV to --out (default stdout), train writes
--outfile and predict prints; EQREP_OUT does not touch these.
"""

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import dataset as ds
from . import evaluate as ev
from . import jsondoc
from .audio import (DEFAULT_SAMPLE_RATE, MAX_SAMPLE_RATE, note_corpus, pitch_to_hz, read_wav,
                    write_wav)
from .eq import BAND_COUNT, band_labels, eq_response, log_frequency_grid
from .features import FeatureContract, StftConfig
from .models import MODEL_KINDS, TrainConfig, load_model, predict, save_model, target_count


# The options of `dataset` that only one --mode reads, with their defaults;
# they parse to None when not given, so that the other mode can refuse them.
_MODE_OPTIONS = {"step": ("single", 1.0), "limit": ("multi", 3000), "full": ("multi", False),
                 "seed": ("multi", 42)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)

    def parse_args(self, args=None, namespace=None):
        args = super().parse_args(args, namespace)
        if "hop_size" in vars(args) and args.hop_size > args.frame_size:
            self.error(f"argument --hop-size: must not exceed --frame-size "
                       f"({args.frame_size}), got {args.hop_size}")
        if args.command == "dataset":
            for name, (mode, default) in _MODE_OPTIONS.items():
                if getattr(args, name) is None:
                    setattr(args, name, default)
                elif args.mode != mode:
                    self.error(f"argument --{name}: not read by --mode {args.mode}")
        return args


def _out_dir(args) -> Path:
    out = Path(os.environ.get("EQREP_OUT", args.out))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_corpus_dir(path):
    """Corpus = every .wav in the directory, labeled by file stem."""
    wavs = sorted(Path(path).glob("*.wav"))
    if not wavs:
        raise RuntimeError(f"no .wav files in {path}")
    return [(wav.stem, read_wav(wav)) for wav in wavs]


def _stft_from_args(args) -> StftConfig:
    return StftConfig(args.frame_size, args.hop_size)


def _write_text(text, out) -> int:
    """Write a command's text to the file `out`, or to stdout without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------- commands


def cmd_synth(args):
    out = _out_dir(args)
    pitches = args.pitches.split(",") if args.pitches else None
    corpus = note_corpus(pitches, args.sample_rate, duration_s=args.duration)
    index = {}
    for label, buf in corpus:
        write_wav(buf, out / f"{label}.wav")
        index[label] = {"file": f"{label}.wav", "fundamental_hz": pitch_to_hz(label)}
    jsondoc.write(index, out / "corpus_index.json")
    print(f"wrote {len(corpus)} notes to {out}")
    return 0


def cmd_dataset(args):
    out = _out_dir(args)
    corpus = _load_corpus_dir(args.corpus)
    if args.mode == "single":
        settings = ds.single_band_settings(ds.gain_grid(args.step))
        limit = None
    else:
        settings = ds.multi_band_settings(ds.COARSE_GRID)
        limit = None if args.full else args.limit
        if limit is not None:
            limit = min(limit, len(corpus) * len(settings))
    keep_dir = None
    if args.keep_audio:
        keep_dir = out / "processed_audio"
        keep_dir.mkdir(exist_ok=True)
    manifest = ds.build_dataset(corpus, settings, stft=_stft_from_args(args),
                                limit=limit, seed=args.seed, jobs=args.jobs,
                                keep_audio_dir=keep_dir)
    ds.save_manifest(manifest, out / "manifest.json")
    if args.csv:
        ds.export_csv(manifest, out / "manifest.csv")
    print(f"{len(manifest.samples)} samples -> {out / 'manifest.json'}")
    return 0


def cmd_extract(args):
    stft = _stft_from_args(args)
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["path", *FeatureContract.names])
    for path in args.wavs:
        buf = read_wav(path)
        row = FeatureContract(buf.sample_rate, stft).extract(buf, f"{path}: ")
        writer.writerow([path, *row.tolist()])
    return _write_text(table.getvalue(), args.out)


def cmd_train(args):
    manifest = ds.load_manifest(args.manifest)
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    train_idx, test_idx = ds.split(manifest, cfg.seed)
    x = manifest.feature_matrix()
    y = manifest.target_matrix()
    model = MODEL_KINDS[args.model].fit(x[train_idx], y[train_idx], cfg)

    test_mse, per_band = ev.mse(predict(model, x[test_idx]), y[test_idx])
    train_mse, _ = ev.mse(predict(model, x[train_idx]), y[train_idx])
    train_config = {"model": args.model, **asdict(cfg), **manifest.contract.to_dict()}
    metrics = {"train_mse": train_mse, "test_mse": test_mse,
               "per_band_test_mse": list(per_band)}
    save_model(model, args.outfile, train_config, metrics)
    print(f"{args.model}: train MSE {train_mse:.6g}, test MSE {test_mse:.6g} "
          f"-> {args.outfile}")
    return 0


def _load_gain_model(path):
    """(model, its band labels, recorded train_config) of an artifact that
    predicts the EQ's band gains."""
    model, train_config, _ = load_model(path)
    try:
        labels = band_labels(target_count(model))
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    return model, labels, jsondoc.JsonValue(train_config, "model artifact", "train_config")


def cmd_predict(args):
    model, labels, recorded = _load_gain_model(args.model)
    contract = FeatureContract.from_doc(recorded)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["path", *labels])
    for path in args.wavs:
        gains = predict(model, contract.extract(read_wav(path), f"{path}: "))
        writer.writerow([path, *(f"{g:.3f}" for g in gains)])
    return 0


def _save_result(result, out, stem):
    """`{stem}_report.json` and `{stem}_scatter.csv` of one result in `out`."""
    ev.save_report(result, out / f"{stem}_report.json")
    ev.scatter_export(result, out / f"{stem}_scatter.csv")


def cmd_eval(args):
    out = _out_dir(args)
    model, _, recorded = _load_gain_model(args.model)
    contract, seed = FeatureContract.from_doc(recorded), recorded["seed"].int(0, 2 ** 64 - 1)
    manifest = ds.load_manifest(args.manifest)
    contract.require(manifest.contract, f"{args.manifest}: ")
    result = ev.evaluate_model(model, manifest, seed)
    _save_result(result, out, "eval")
    print(f"overall MSE {result.overall_mse:.6g} ({len(result.predictions)} samples)")
    return 0


def cmd_reproduce(args):
    out = _out_dir(args)
    pitches = args.pitches.split(",") if args.pitches else None
    results = ev.run_reproduction(ev.reproduction_corpus(args.sample_rate, pitches),
                                  _stft_from_args(args), args.limit, args.seed, args.jobs)
    for res in results:
        _save_result(res, out, f"{res.experiment_id}_{res.model_kind}")
        print(f"{res.experiment_id:>20s}  {res.model_kind:>6s}  "
              f"MSE {res.overall_mse:.4f} dB^2  ({len(res.predictions)} held out)")
    jsondoc.write([ev.report_to_dict(r) for r in results], out / "summary.json")
    failed = ev.failed_checks(results)
    for name, _ in ev.CHECKS:
        print(f"[{'FAIL' if name in failed else 'PASS'}] {name}")
    if failed:
        raise RuntimeError("reproduction checks failed: " + "; ".join(failed))
    return 0


def cmd_response(args):
    try:
        gains = [float(g) for g in args.gains.split(",")]
    except ValueError:
        raise RuntimeError(f"bad gain syntax: {args.gains!r}") from None
    stop = args.stop if args.stop is not None else min(20000.0, 0.95 * args.sample_rate / 2)
    freqs = log_frequency_grid(args.start, stop, args.points)
    response = eq_response(gains, freqs, args.sample_rate)
    lines = ["frequency_hz,gain_db"]
    lines += [f"{float(f)!r},{float(g)!r}" for f, g in zip(freqs, response)]
    return _write_text("\n".join(lines) + "\n", args.out)


# --------------------------------------------------------------- parser


def _grid_step(text):
    """--step: a positive dB step that divides the 24 dB gain span."""
    try:
        step = float(text)
        ds.gain_grid(step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return step


def _checked(convert, ok, requirement):
    """An argparse type: `convert(text)` where `ok` holds for it; text that
    does not convert, or converts to a value that fails `ok`, is refused
    with "must be {requirement}"."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
    return parse


def _int_range(low, high=None, note=""):
    """An argparse type: an integer from `low` to `high` (no upper bound if None)."""
    bound = f"from {low} to {high}{note}" if high is not None else f">= {low}"
    return _checked(int, lambda v: low <= v and (high is None or v <= high),
                    f"an integer {bound}")


_power_of_two = _checked(int, lambda v: v >= 2 and not v & (v - 1), "a power of two >= 2")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "a positive finite number")
_jobs = _int_range(1, os.cpu_count() or 1, " (the CPU count)")
_sample_rate = _int_range(1, MAX_SAMPLE_RATE, " (the most a WAV header holds)")
_seed = _int_range(0, 2 ** 64 - 1, " (seeds are read mod 2**64)")
# The cores this process may run on: the default worker count.
USABLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
JOBS_HELP = "worker processes (1..CPU count; default: the usable cores)"


def _add_stft(parser):
    parser.add_argument("--frame-size", type=_power_of_two, default=StftConfig.frame_size,
                        help="STFT frame in samples (a power of two >= 2)")
    parser.add_argument("--hop-size", type=_int_range(1), default=StftConfig.hop_size,
                        help="samples between frames (1..--frame-size)")


def _add_build(parser):
    """The options of the commands that build datasets: dataset, reproduce."""
    parser.add_argument("--seed", type=_seed, default=42)
    _add_stft(parser)
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eqrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize the base note corpus as WAV files")
    p.add_argument("--sample-rate", type=_sample_rate, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--pitches", help="comma-separated pitch labels (default C/G 0..7)")
    p.add_argument("--duration", type=_positive_float, default=2.0, help="seconds")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("dataset", help="build a labeled EQ dataset manifest")
    _add_build(p)
    p.add_argument("--corpus", required=True, help="directory of base WAV files")
    p.add_argument("--mode", choices=["single", "multi"], required=True)
    p.add_argument("--step", type=_grid_step,
                   help="single mode: grid step in dB (default 1); must divide 24")
    p.add_argument("--limit", type=_int_range(1),
                   help="multi mode: samples (>= 1, default 3000; clamped to the pair count)")
    p.add_argument("--full", action="store_true", default=None, help="multi mode: no subsampling")
    p.add_argument("--csv", action="store_true", help="also export manifest.csv")
    p.add_argument("--keep-audio", action="store_true", help="keep processed WAVs")
    p.add_argument("--jobs", type=_jobs, default=USABLE_CORES, help=JOBS_HELP)
    p.set_defaults(func=cmd_dataset, seed=None)

    p = sub.add_parser("extract", help="extract the 17 features from WAV files")
    _add_stft(p)
    p.add_argument("wavs", nargs="+")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", choices=list(MODEL_KINDS), required=True)
    p.add_argument("--outfile", required=True, help="model artifact path")
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.add_argument("--hidden-dim", type=_int_range(1), default=TrainConfig.hidden_dim)
    p.add_argument("--epochs", type=_int_range(1), default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=_int_range(1), default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=_positive_float, default=TrainConfig.learning_rate)
    p.add_argument("--trees", type=_int_range(1), default=TrainConfig.trees)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help=f"predict the {BAND_COUNT} EQ gains for WAV files")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("wavs", nargs="+")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model artifact against a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce", help="run all four experiments end to end")
    _add_build(p)
    p.add_argument("--sample-rate", type=_sample_rate, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--pitches", default=None,
                   help="distinct corpus notes for the runs (default: broadband C2); "
                        "the five built-in checks are calibrated for the single "
                        "broadband C2 note, so a multi-note corpus such as C2,G4 "
                        "can fail them and exit 2")
    low, high = ev.MULTI_BAND_MIN_SAMPLES, len(ds.COARSE_GRID) ** BAND_COUNT
    p.add_argument("--limit", type=_int_range(low, high), default=3000,
                   help=f"multi-band samples ({low}..{high}); below about 2000 the "
                        "built-in 'MLP MSE < linear MSE' check can fail and exit 2")
    p.add_argument("--jobs", type=_jobs, default=USABLE_CORES, help=JOBS_HELP)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("response", help="CSV of the combined EQ magnitude curve")
    p.add_argument("--gains", required=True, help="five comma-separated dB values")
    p.add_argument("--sample-rate", type=_sample_rate, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--start", type=_positive_float, default=20.0, help="Hz")
    p.add_argument("--stop", type=_positive_float,
                   help="Hz (default 20000, or 0.95 x Nyquist where that is lower)")
    p.add_argument("--points", type=_int_range(1), default=200)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_response)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the size it could not allocate; a bare one says nothing
        print(f"eqrep: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
