"""Command-line pipeline: synth, dataset, extract, train, predict, eval,
reproduce, response.

Exit codes: 0 success, 1 usage error, 2 runtime failure. The EQREP_OUT
environment variable overrides the default output directory.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import dataset as ds
from . import evaluate as ev
from .audio import DEFAULT_SAMPLE_RATE, note_corpus, pitch_to_hz, read_wav, write_wav
from .eq import BAND_NAMES, eq_response, log_frequency_grid, standard_bands
from .features import FEATURE_NAMES, StftConfig, extract_features
from .jsondoc import JsonValue
from .models import (TrainConfig, load_model, predict, save_model,
                     train_forest, train_linear, train_mlp)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _out_dir(args) -> Path:
    out = Path(os.environ.get("EQREP_OUT", args.out))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_corpus_dir(path, sample_rate):
    """Corpus = every .wav in the directory, labeled by file stem."""
    wavs = sorted(Path(path).glob("*.wav"))
    if not wavs:
        raise RuntimeError(f"no .wav files in {path}")
    corpus = []
    for wav in wavs:
        buf = read_wav(wav)
        if buf.sample_rate != sample_rate:
            raise RuntimeError(
                f"{wav}: sample rate {buf.sample_rate} != configured {sample_rate}"
            )
        corpus.append((wav.stem, buf))
    return corpus


def _stft_from_args(args) -> StftConfig:
    return StftConfig(args.frame_size, args.hop_size)


# ------------------------------------------------------------- commands


def cmd_synth(args):
    out = _out_dir(args)
    pitches = args.pitches.split(",") if args.pitches else None
    corpus = note_corpus(pitches, args.sample_rate, duration_s=args.duration)
    index = {}
    for label, buf in corpus:
        write_wav(buf, out / f"{label}.wav")
        index[label] = {"file": f"{label}.wav", "fundamental_hz": pitch_to_hz(label)}
    with open(out / "corpus_index.json", "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(corpus)} notes to {out}")
    return 0


def cmd_dataset(args):
    out = _out_dir(args)
    corpus = _load_corpus_dir(args.corpus, args.sample_rate)
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
    lines = ["path," + ",".join(FEATURE_NAMES)]
    for path in args.wavs:
        features = extract_features(read_wav(path), stft).to_array()
        lines.append(f"{path}," + ",".join(repr(float(v)) for v in features))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_train(args):
    manifest = ds.load_manifest(args.manifest)
    train_idx, test_idx = ds.split(manifest, 0.8, args.seed)
    x = manifest.feature_matrix()
    y = manifest.target_matrix()
    cfg = TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                      batch_size=args.batch_size, hidden_dim=args.hidden_dim,
                      seed=args.seed, optimizer=args.optimizer)
    if args.model == "linear":
        model = train_linear(x[train_idx], y[train_idx])
    elif args.model == "forest":
        model = train_forest(x[train_idx], y[train_idx], args.trees, args.seed)
    else:
        model = train_mlp(x[train_idx], y[train_idx], cfg)

    test_mse, per_band = ev.mse(predict(model, x[test_idx]), y[test_idx])
    train_mse, _ = ev.mse(predict(model, x[train_idx]), y[train_idx])
    train_config = {
        "model": args.model, "seed": args.seed, "hidden_dim": args.hidden_dim,
        "epochs": args.epochs, "batch_size": args.batch_size,
        "learning_rate": args.learning_rate, "optimizer": args.optimizer,
        "trees": args.trees, "sample_rate": manifest.sample_rate,
        "frame_size": manifest.stft.frame_size, "hop_size": manifest.stft.hop_size,
    }
    metrics = {"train_mse": train_mse, "test_mse": test_mse,
               "per_band_test_mse": list(per_band)}
    save_model(model, args.outfile, train_config, metrics)
    print(f"{args.model}: train MSE {train_mse:.6g}, test MSE {test_mse:.6g} "
          f"-> {args.outfile}")
    return 0


def cmd_predict(args):
    model, train_config, _ = load_model(args.model)
    # the feature contract `train` records; an artifact without it is refused
    contract = JsonValue(train_config, "model artifact", "train_config")
    sample_rate = contract["sample_rate"].int()
    stft = StftConfig(contract["frame_size"].int(), contract["hop_size"].int())
    print("path," + ",".join(BAND_NAMES))
    for path in args.wavs:
        buf = read_wav(path)
        if buf.sample_rate != sample_rate:
            raise RuntimeError(
                f"{path}: sample rate {buf.sample_rate} != model's {sample_rate}"
            )
        gains = predict(model, extract_features(buf, stft).to_array())
        print(f"{path}," + ",".join(f"{g:.3f}" for g in gains))
    return 0


def _save_result(result, out, stem):
    """`{stem}_report.json` and `{stem}_scatter.csv` of one result in `out`."""
    ev.save_report(result.report, out / f"{stem}_report.json")
    ev.scatter_export(result.sample_ids, result.predictions, result.targets,
                      out / f"{stem}_scatter.csv")


def cmd_eval(args):
    out = _out_dir(args)
    model, _, _ = load_model(args.model)
    result = ev.evaluate_model(model, ds.load_manifest(args.manifest), args.seed)
    _save_result(result, out, "eval")
    report = result.report
    print(f"overall MSE {report.overall_mse:.6g} ({report.n_samples} samples)")
    return 0


def cmd_reproduce(args):
    out = _out_dir(args)
    pitches = args.pitches.split(",") if args.pitches else None
    results = ev.run_reproduction(ev.reproduction_corpus(args.sample_rate, pitches),
                                  _stft_from_args(args), args.limit, args.seed, args.jobs)
    for res in results:
        rep = res.report
        _save_result(res, out, f"{rep.experiment_id}_{rep.model_kind}")
        print(f"{rep.experiment_id:>20s}  {rep.model_kind:>6s}  "
              f"MSE {rep.overall_mse:.4f} dB^2  ({rep.n_samples} held out)")
    with open(out / "summary.json", "w") as fh:
        json.dump([ev.report_to_dict(r.report) for r in results], fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
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
    freqs = log_frequency_grid(args.start, args.stop, args.points)
    response = eq_response(gains, standard_bands(), freqs, args.sample_rate)
    lines = ["frequency_hz,gain_db"]
    lines += [f"{float(f)!r},{float(g)!r}" for f, g in zip(freqs, response)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------- parser


def _grid_step(text):
    """--step: a positive dB step that divides the 24 dB gain span."""
    try:
        step = float(text)
        ds.gain_grid(step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return step


def _int_range(low, high=None, note=""):
    """An argparse type: an integer from `low` to `high` (no upper bound if None)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (high is not None and value > high):
            bound = f"from {low} to {high}{note}" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {text!r}")
        return value
    return parse


def _positive_float(text):
    """An argparse type: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


_jobs = _int_range(1, os.cpu_count() or 1, " (the CPU count)")
# The cores this process may run on: the default worker count.
USABLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
JOBS_HELP = "worker processes (1..CPU count; default: the usable cores)"


def _add_stft(parser):
    parser.add_argument("--frame-size", type=int, default=2048)
    parser.add_argument("--hop-size", type=int, default=512)


def _add_build(parser):
    """The options of the commands that build datasets: dataset, reproduce."""
    parser.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE)
    parser.add_argument("--seed", type=int, default=42)
    _add_stft(parser)
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eqrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize the base note corpus as WAV files")
    p.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--pitches", help="comma-separated pitch labels (default C/G 0..7)")
    p.add_argument("--duration", type=_positive_float, default=2.0, help="seconds")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("dataset", help="build a labeled EQ dataset manifest")
    _add_build(p)
    p.add_argument("--corpus", required=True, help="directory of base WAV files")
    p.add_argument("--mode", choices=["single", "multi"], required=True)
    p.add_argument("--step", type=_grid_step, default=1.0,
                   help="single-band grid step (dB); must divide 24")
    p.add_argument("--limit", type=_int_range(1), default=3000,
                   help="multi-band samples (>= 1; clamped to the pair count)")
    p.add_argument("--full", action="store_true", help="no subsampling (multi mode)")
    p.add_argument("--csv", action="store_true", help="also export manifest.csv")
    p.add_argument("--keep-audio", action="store_true", help="keep processed WAVs")
    p.add_argument("--jobs", type=_jobs, default=USABLE_CORES, help=JOBS_HELP)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("extract", help="extract the 17 features from WAV files")
    _add_stft(p)
    p.add_argument("wavs", nargs="+")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", choices=["linear", "forest", "mlp"], required=True)
    p.add_argument("--outfile", required=True, help="model artifact path")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--hidden-dim", type=_int_range(1), default=64)
    p.add_argument("--epochs", type=_int_range(1), default=500)
    p.add_argument("--batch-size", type=_int_range(1), default=64)
    p.add_argument("--learning-rate", type=_positive_float, default=1e-3)
    p.add_argument("--optimizer", choices=["adam", "sgd_momentum"], default="adam")
    p.add_argument("--trees", type=_int_range(1), default=50)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict the 5 EQ gains for WAV files")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("wavs", nargs="+")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a model artifact against a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce", help="run all four experiments end to end")
    _add_build(p)
    p.add_argument("--pitches", default=None,
                   help="distinct corpus notes for the runs (default: broadband C2); "
                        "the five built-in checks are calibrated for the single "
                        "broadband C2 note, so a multi-note corpus such as C2,G4 "
                        "can fail them and exit 2")
    low, high = ev.MULTI_BAND_MIN_SAMPLES, len(ds.COARSE_GRID) ** 5
    p.add_argument("--limit", type=_int_range(low, high), default=3000,
                   help=f"multi-band samples ({low}..{high}); below about 2000 the "
                        "built-in 'MLP MSE < linear MSE' check can fail and exit 2")
    p.add_argument("--jobs", type=_jobs, default=USABLE_CORES, help=JOBS_HELP)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("response", help="CSV of the combined EQ magnitude curve")
    p.add_argument("--gains", required=True, help="five comma-separated dB values")
    p.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--start", type=float, default=20.0)
    p.add_argument("--stop", type=float, default=20000.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_response)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"eqrep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
