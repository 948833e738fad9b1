"""In-memory span tracing around calls into eqrep's layers.

`Tracer.install()` rebinds each traced public function both on its defining
module and on every eqrep module that imported the name (`eqrep.eq.apply_eq`
and `eqrep.dataset.apply_eq` alike), so calls made inside the library are
seen. `uninstall()` puts the originals back. Nothing under `src/` changes.

A span is `[name, start, end, parent, thread, attrs, cpu]`, where `cpu` is
the thread CPU time spent inside it. Each thread keeps its own parent stack;
a span opened on a worker thread with an empty stack takes the innermost open
span of the main thread as its parent, which is how `build_dataset`'s thread
pool work is attributed to `build_dataset`.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter, thread_time

# The layer entry points and the feature stages each get a span. Helpers
# below them (design_biquad, frame_signal, hz_to_mel, ...) are left to their
# caller's self time, so a refactor that removes a helper does not move a
# layer's numbers between metrics.
TRACED = {
    "audio": ["synthesize_note", "note_corpus", "read_wav", "write_wav"],
    "eq": ["apply_eq", "eq_response"],
    "features": ["extract_features", "stft_magnitudes", "spectral_centroid",
                 "spectral_bandwidth", "spectral_rolloff", "mel_filterbank",
                 "mel_log_energies", "rms_mean"],
    "dataset": ["build_dataset", "split", "interpolation_split",
                "single_band_settings", "multi_band_settings",
                "save_manifest", "load_manifest"],
    "models": ["train_linear", "train_forest", "train_mlp", "predict",
               "save_model", "load_model"],
    # next_u64 runs once per draw inside uniform; it stays in uniform's self
    # time instead of paying a span per draw.
    "rng": ["SplitMix64.uniform"],
    "evaluate": ["reproduction_corpus", "experiment_single_band_fine",
                 "experiment_single_band_coarse", "experiment_interpolation",
                 "experiment_multi_band", "make_report", "save_report",
                 "scatter_export"],
    "cli": ["main", "cmd_reproduce"],
}

# Counted without a span: one call is one MLP optimisation step.
COUNTED = {"models": ["mlp_loss_and_grads"]}

ROOT_PREFIX = "bench."


def _model_kind(model):
    return type(model).__name__.replace("Model", "").lower()


def _annotate(name, call, result):
    """(span name, attrs) for the spans whose metrics need call details;
    `call` maps parameter names to the arguments bound to them."""
    if name == "models.predict":
        features = call["features"]
        rows = 1 if getattr(features, "ndim", 2) == 1 else len(features)
        return f"models.predict.{_model_kind(call['model'])}", {"rows": rows}
    if name == "dataset.build_dataset":
        return name, {"jobs": call.get("jobs", 1), "samples": len(result.samples)}
    if name == "eq.apply_eq":
        pair = (id(call["buffer"]), tuple(float(g) for g in call["gains_db"]))
        return name, {"pair": pair}
    if name == "models.train_forest":
        trees = getattr(result, "trees", [])
        nodes = sum(len(t["feature"]) for t in trees if isinstance(t, dict))
        return name, {"nodes": nodes}
    return name, None


ANNOTATED = ("models.predict", "dataset.build_dataset", "eq.apply_eq",
             "models.train_forest")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.main_thread()
        self._originals = []  # (owner, attr, original)

    # ------------------------------------------------------------ recording

    def _stack(self):
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-level root span around the block."""
        rec = self._open(ROOT_PREFIX + name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        rec = [name, 0.0, 0.0, parent, threading.get_ident(), None, thread_time()]
        stack.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        rec[6] = thread_time() - rec[6]
        self._stack().pop()
        self.spans.append(rec)

    def _wrap(self, name, fn):
        tracer = self
        signature = inspect.signature(fn) if name in ANNOTATED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if signature is not None:
                call = signature.bind(*args, **kwargs).arguments
                rec[0], rec[5] = _annotate(name, call, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -------------------------------------------------------- installation

    def install(self):
        """Wrap every traced function; returns the names not found."""
        missing = []
        for table, make in ((TRACED, self._wrap), (COUNTED, self._counter)):
            for layer, names in table.items():
                module = importlib.import_module(f"eqrep.{layer}")
                for qualname in names:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    original = getattr(owner, attr, None)
                    if original is None:
                        missing.append(f"{layer}.{qualname}")
                        continue
                    self._rebind(owner, attr, original,
                                 make(f"{layer}.{qualname}", original))
        return missing

    def _rebind(self, owner, attr, original, wrapper):
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod is owner:
                    continue
                if mod_name == "eqrep" or mod_name.startswith("eqrep."):
                    targets += [(mod, a) for a, v in vars(mod).items() if v is original]
        for target, name in targets:
            self._originals.append((target, name, original))
            setattr(target, name, wrapper)

    def uninstall(self):
        for target, name, original in reversed(self._originals):
            setattr(target, name, original)
        self._originals.clear()


# ------------------------------------------------------------------ analysis


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{id(span): duration minus the time its children cover}."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            parent = rec[3]
            children[id(parent)].append((max(rec[1], parent[1]), min(rec[2], parent[2])))
    return {id(rec): (rec[2] - rec[1]) - _covered(children[id(rec)]) for rec in spans}


def _under(rec, name):
    parent = rec[3]
    while parent is not None:
        if parent[0] == name:
            return True
        parent = parent[3]
    return False


def in_scope(spans):
    """The spans under a benchmark root span (set-up or operation), which
    leaves out the calls the correctness checks make."""
    keep = []
    for rec in spans:
        node = rec
        while node[3] is not None:
            node = node[3]
        if node[0].startswith(ROOT_PREFIX):
            keep.append(rec)
    return keep


def layer_metrics(tracer):
    """Per-layer metrics over the spans of the traced set-up and operations."""
    spans = in_scope(tracer.spans)
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for rec in spans:
        calls[rec[0]] += 1
        self_s[rec[0]] += own[id(rec)]
        total_s[rec[0]] += rec[2] - rec[1]

    def per_call(name, scale):
        return total_s[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["audio.synthesize_note.self_s"] = self_s["audio.synthesize_note"]
    m["audio.read_wav.ms_per_call"] = per_call("audio.read_wav", 1e3)
    m["eq.apply_eq.calls"] = calls["eq.apply_eq"]
    m["eq.apply_eq.self_s"] = self_s["eq.apply_eq"]
    m["eq.apply_eq.ms_per_call"] = per_call("eq.apply_eq", 1e3)
    m["features.extract_features.calls"] = calls["features.extract_features"]
    m["features.extract_features.self_s"] = self_s["features.extract_features"]
    m["features.extract_features.ms_per_call"] = per_call("features.extract_features", 1e3)
    for stage in ("stft_magnitudes", "spectral_centroid", "spectral_bandwidth",
                  "spectral_rolloff", "mel_filterbank", "mel_log_energies", "rms_mean"):
        m[f"features.{stage}.self_s"] = self_s[f"features.{stage}"]
    m["features.mel_filterbank.builds_per_extract"] = ratio(
        calls["features.mel_filterbank"], calls["features.extract_features"])

    # dataset: samples, parallel efficiency and wasted extraction under
    # build_dataset. Busy time is thread CPU time: on the pool, wall time
    # inside a call also counts waits for the interpreter lock.
    builds = [r for r in spans if r[0] == "dataset.build_dataset"]
    build_wall = sum(r[2] - r[1] for r in builds)
    build_capacity = sum((r[2] - r[1]) * r[5]["jobs"] for r in builds)
    samples = sum(r[5]["samples"] for r in builds)
    busy = 0.0
    pairs = set()
    extracts = 0
    for rec in spans:
        if rec[0] in ("eq.apply_eq", "features.extract_features") and _under(
                rec, "dataset.build_dataset"):
            busy += rec[6]
            if rec[0] == "eq.apply_eq":
                pairs.add(rec[5]["pair"])
            else:
                extracts += 1
    m["dataset.build_dataset.self_s"] = self_s["dataset.build_dataset"]
    m["dataset.build_dataset.samples_per_s"] = ratio(samples, build_wall)
    m["dataset.build_dataset.parallel_efficiency"] = ratio(busy, build_capacity)
    m["dataset.useful_extraction_ratio"] = ratio(len(pairs), extracts)
    m["dataset.save_manifest.self_s"] = self_s["dataset.save_manifest"]

    m["models.train_linear.self_s"] = self_s["models.train_linear"]
    nodes = sum(r[5]["nodes"] for r in spans if r[0] == "models.train_forest")
    m["models.train_forest.self_s"] = self_s["models.train_forest"]
    m["models.train_forest.nodes"] = nodes
    m["models.train_forest.us_per_node"] = ratio(total_s["models.train_forest"], nodes) * 1e6
    steps = tracer.counts["models.mlp_loss_and_grads"]
    m["models.train_mlp.self_s"] = self_s["models.train_mlp"]
    m["models.train_mlp.steps"] = steps
    m["models.train_mlp.us_per_step"] = ratio(total_s["models.train_mlp"], steps) * 1e6
    for kind in ("linear", "mlp", "forest"):
        single = [r[2] - r[1] for r in spans
                  if r[0] == f"models.predict.{kind}" and r[5]["rows"] == 1]
        m[f"models.predict.{kind}.single_row_us"] = ratio(sum(single), len(single)) * 1e6
    batch = [r for r in spans if r[0] == "models.predict.forest" and r[5]["rows"] > 1]
    m["models.predict.forest.rows_per_s"] = ratio(
        sum(r[5]["rows"] for r in batch), sum(r[2] - r[1] for r in batch))
    m["models.load_model.self_s"] = self_s["models.load_model"]

    m["rng.SplitMix64.uniform.self_s"] = self_s["rng.SplitMix64.uniform"]

    for exp in ("single_band_fine", "single_band_coarse", "interpolation", "multi_band"):
        m[f"evaluate.experiment_{exp}.s"] = total_s[f"evaluate.experiment_{exp}"]
    m["evaluate.scatter_export.self_s"] = self_s["evaluate.scatter_export"]
    m["evaluate.save_report.self_s"] = self_s["evaluate.save_report"]
    m["cli.cmd_reproduce.self_s"] = self_s["cli.cmd_reproduce"]

    # Accounting: the root spans' own self time is time spent in benchmark
    # code outside every layer call.
    roots = [r for r in spans if r[0].startswith(ROOT_PREFIX)]
    wall = sum(r[2] - r[1] for r in roots)
    untraced = sum(own[id(r)] for r in roots)
    m["trace.wall_s"] = wall
    m["trace.untraced_s"] = untraced
    m["trace.accounted_share"] = ratio(wall - untraced, wall)
    m["trace.spans"] = len(spans)
    return m
