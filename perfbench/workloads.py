"""The benchmark workloads. Each makes its inputs from the run's seed in
`setup`, runs one measured operation per `op` call, and judges that
operation's outputs in `check`, outside the timed region.

Every call into eqrep goes through a module attribute (`ds.build_dataset`,
not a name imported here), so the tracer's rebinding sees it.
"""

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from eqrep import audio, cli, eq, features
from eqrep import dataset as ds
from eqrep import models

# reproduce: the CLI pipeline at the smallest size whose built-in checks pass
# on every seed tried (MLP beats linear needs ~2000 multi-band rows) and
# whose runs fit the benchmark's time budget. At the CLI defaults (44.1 kHz,
# --limit 3000) one run takes 69-107 s on 2 cores.
REPRODUCE_SAMPLE_RATE = 22050
REPRODUCE_LIMIT = 2000

BUILD_LIMIT = 100            # samples per build_dataset call, 2 s notes

PREDICT_POOL = 25            # WAVs; coprime with the 3 models, so 75 pairings
PREDICT_MIN_S, PREDICT_MAX_S = 0.5, 4.0
PREDICT_NOTE_S = 0.5         # training notes of the three artifacts
PREDICT_TRAIN_LIMIT = 300
PREDICT_TREES = 50
PREDICT_MIN_REQUESTS = 1000  # p99 needs ten requests beyond it
PREDICT_TRACE_REQUESTS = 300

# Feature tolerance of acceptance criterion 2 (fast path vs brute-force oracle).
FEATURE_RTOL, FEATURE_ATOL = 1e-6, 1e-9


def _sub_seed(seed, *keys):
    """A 31-bit seed derived from the run seed and `keys`."""
    return int(np.random.default_rng([seed, *keys]).integers(1, 2**31 - 1))


class Workload:
    """One named workload. `op` is timed; `check` returns
    (attempted, failed, messages) for the operation it judges."""

    name = ""
    unit = ""            # what one operation is
    setup_reps = 3       # set-ups per untraced run; setup_s is their median
    min_ops = 1          # operations per untraced run, at least
    trace_ops = 1        # operations in each block of a traced run

    def __init__(self, work_dir: Path, jobs: int):
        self.work_dir = work_dir
        self.jobs = jobs

    def setup(self, seed):
        raise NotImplementedError

    def op(self, state, index):
        raise NotImplementedError

    def check(self, state, index, output):
        raise NotImplementedError

    def details(self, state, times):
        """This workload's own headline figures, from the measured
        operations' times and what `check` kept in `state`:
        {name: (value, unit, sample count)}."""
        return {}


class Reproduce(Workload):
    """`eqrep reproduce`, in process, through `cli.main`."""

    name = "reproduce"
    unit = "reproduce run"

    def setup(self, seed):
        out = self.work_dir / "reproduce"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return {"out": out, "seed": _sub_seed(seed, 0), "digest": None}

    def op(self, state, index):
        out = state["out"] / f"run{index}"
        argv = ["reproduce", "--seed", str(state["seed"]), "--out", str(out),
                "--sample-rate", str(REPRODUCE_SAMPLE_RATE),
                "--limit", str(REPRODUCE_LIMIT)]
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = cli.main(argv)
        return code, text.getvalue(), out

    def check(self, state, index, output):
        code, text, out = output
        errors = []
        if code != 0:
            errors.append(f"exit code {code}: {text.strip().splitlines()[-1:]}")
        passes = text.count("[PASS]")
        if passes != 5 or "[FAIL]" in text:
            errors.append(f"{passes}/5 built-in checks passed")
        summary = out / "summary.json"
        if summary.is_file():
            digest = hashlib.sha256(summary.read_bytes()).hexdigest()
            if state["digest"] is None:
                state["digest"] = digest
            elif digest != state["digest"]:
                errors.append("summary.json differs from the first run's")
        else:
            errors.append("no summary.json")
        shutil.rmtree(out, ignore_errors=True)
        return 1, int(bool(errors)), errors

    def details(self, state, times):
        return {"reproduce_s": (float(np.median(times)), "s", len(times))}


class Build(Workload):
    """Multi-band `build_dataset` over the 16-note default corpus on a thread
    pool, then `save_manifest`."""

    name = "build"
    unit = f"build_dataset + save_manifest of {BUILD_LIMIT} samples"

    def setup(self, seed):
        corpus = audio.note_corpus()
        return {
            "corpus": corpus,
            "by_label": dict(corpus),
            "settings": ds.multi_band_settings(ds.COARSE_GRID),
            "seed": seed,
            "path": self.work_dir / "manifest.json",
        }

    def op(self, state, index):
        manifest = ds.build_dataset(state["corpus"], state["settings"],
                                    limit=BUILD_LIMIT,
                                    seed=_sub_seed(state["seed"], 1, index),
                                    jobs=self.jobs)
        ds.save_manifest(manifest, state["path"])
        return manifest

    def check(self, state, index, manifest):
        samples = manifest.samples
        if len(samples) != BUILD_LIMIT:
            return BUILD_LIMIT, BUILD_LIMIT, [f"{len(samples)} samples, want {BUILD_LIMIT}"]
        bad = {i for i, s in enumerate(samples) if not np.all(np.isfinite(s.features))}
        rng = np.random.default_rng(_sub_seed(state["seed"], 2, index))
        for i in rng.choice(len(samples), size=3, replace=False):
            s = samples[i]
            processed = eq.apply_eq(state["by_label"][s.base_label], s.gains_db)
            expect = features.extract_features(processed, manifest.stft).to_array()
            if not np.allclose(s.features, expect, rtol=FEATURE_RTOL, atol=FEATURE_ATOL):
                bad.add(int(i))
        errors = [f"{len(bad)} samples non-finite or off the single-sample path"] if bad else []
        return len(samples), len(bad), errors

    def details(self, state, times):
        rates = [BUILD_LIMIT / t for t in times]
        return {"build_samples_per_s": (float(np.median(rates)), "1/s", len(times))}


class Predict(Workload):
    """Closed loop, one client: read_wav -> extract_features -> predict,
    round-robin over saved-and-loaded linear / MLP / forest artifacts."""

    name = "predict"
    unit = "request"
    setup_reps = 1       # ~6 s: three fits, 25 WAVs and their reference answers
    min_ops = PREDICT_MIN_REQUESTS
    trace_ops = PREDICT_TRACE_REQUESTS

    def setup(self, seed):
        rng = np.random.default_rng(_sub_seed(seed, 5))
        sr = audio.DEFAULT_SAMPLE_RATE
        stft = features.StftConfig()
        base = self.work_dir / "predict"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)

        corpus = audio.note_corpus(["C2"], sr, duration_s=PREDICT_NOTE_S, partial_count=300)
        manifest = ds.build_dataset(corpus, ds.multi_band_settings(ds.COARSE_GRID),
                                    stft=stft, limit=PREDICT_TRAIN_LIMIT,
                                    seed=_sub_seed(seed, 6), jobs=self.jobs)
        x, y = manifest.feature_matrix(), manifest.target_matrix()
        fit_seed = _sub_seed(seed, 7)
        artifacts = []
        contract = {"sample_rate": sr, "frame_size": stft.frame_size,
                    "hop_size": stft.hop_size}
        for kind, model in (
            ("linear", models.train_linear(x, y)),
            ("mlp", models.train_mlp(x, y, models.TrainConfig(seed=fit_seed))),
            ("forest", models.train_forest(x, y, PREDICT_TREES, fit_seed)),
        ):
            path = base / f"{kind}.json"
            models.save_model(model, path, dict(contract, model=kind))
            artifacts.append(models.load_model(path)[0])

        # The same log-spaced lengths on every seed, since a request's cost
        # follows its length; the seed picks pitches and held-out settings
        # (continuous gains, off every training grid point).
        wavs = []
        durations = np.geomspace(PREDICT_MIN_S, PREDICT_MAX_S, PREDICT_POOL)
        for j, duration in enumerate(durations):
            pitch = audio.DEFAULT_PITCHES[rng.integers(len(audio.DEFAULT_PITCHES))]
            gains = rng.uniform(-12.0, 12.0, 5)
            [(_, note)] = audio.note_corpus([pitch], sr, duration_s=float(duration))
            path = base / f"req{j:02d}.wav"
            audio.write_wav(eq.apply_eq(note, gains), path)
            wavs.append(path)

        reference = []
        for path in wavs:
            feats = features.extract_features(audio.read_wav(path), stft).to_array()
            reference.append([models.predict(m, feats) for m in artifacts])
        return {"wavs": wavs, "models": artifacts, "stft": stft, "reference": reference}

    def op(self, state, index):
        wav = index % PREDICT_POOL
        buf = audio.read_wav(state["wavs"][wav])
        feats = features.extract_features(buf, state["stft"]).to_array()
        return models.predict(state["models"][index % 3], feats)

    def check(self, state, index, gains):
        expect = state["reference"][index % PREDICT_POOL][index % 3]
        ok = (np.shape(gains) == (5,) and np.all(np.isfinite(gains))
              and np.array_equal(gains, expect))
        return 1, int(not ok), [] if ok else [f"request {index}: {gains} != {expect}"]

    def details(self, state, times):
        ms = np.asarray(times) * 1e3
        return {
            "predict_p50_ms": (float(np.percentile(ms, 50)), "ms", len(ms)),
            "predict_p99_ms": (float(np.percentile(ms, 99)), "ms", len(ms)),
        }


WORKLOADS = {w.name: w for w in (Reproduce, Build, Predict)}
