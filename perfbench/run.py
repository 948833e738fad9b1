"""eqrep benchmark harness.

    python3 perfbench/run.py --workload {reproduce,build,predict}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports eqrep from `src/` and
writes only under `.perfbench/` there. Each run is one process and one
workload. The inputs come from `--seed`; every operation's outputs are
checked. With `--trace 0` the last stdout line carries the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` it carries the per-layer metrics of
one traced set-up and one traced block of operations. The line before it is
a JSON object with the machine facts, sample counts, the workload's own
figures and any errors. The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------ machine facts


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------- measuring


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, attempted, failed, errors):
        self.attempted += attempted
        self.failed += failed
        self.errors += errors


def _run_op(workload, state, index, tally, tracer=None):
    """Time one operation, then check it. Returns its seconds, or None when
    it raised."""
    try:
        start = time.perf_counter()
        if tracer is None:
            output = workload.op(state, index)
        else:
            with tracer.span("op"):
                output = workload.op(state, index)
        elapsed = time.perf_counter() - start
    except Exception:
        tally.add(1, 1, [traceback.format_exc(limit=3)])
        return None
    tally.add(*workload.check(state, index, output))
    return elapsed


def run_untraced(workload, seed, seconds):
    setups = []
    for _ in range(workload.setup_reps):
        start = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - start)
    tally, times = Tally(), []
    start = time.perf_counter()
    while len(times) < workload.min_ops or time.perf_counter() - start < seconds:
        elapsed = _run_op(workload, state, len(times), tally)
        if elapsed is None:
            break
        times.append(elapsed)
    return setups, times, state, tally


def run_traced(workload, seed):
    """One traced set-up, then the same block of operations untraced and
    traced; the difference of the two blocks is the tracing overhead."""
    from spans import Tracer
    tracer = Tracer()
    missing = tracer.install()
    try:
        with tracer.span("setup"):
            state = workload.setup(seed)
    finally:
        tracer.uninstall()
    tally = Tally()
    blocks = []
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            times = [_run_op(workload, state, i, tally, tracer if traced else None)
                     for i in range(workload.trace_ops)]
        finally:
            tracer.uninstall()
        if None in times:
            break
        blocks.append(sum(times))
    return tracer, blocks, missing, tally


def write_spans(tracer, path):
    """Spans as JSON lines: name, start and end (s from the first span),
    parent line number and thread number."""
    from spans import in_scope
    spans = sorted(in_scope(tracer.spans), key=lambda r: r[1])
    index = {id(rec): i for i, rec in enumerate(spans)}
    threads = {}
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps({
                "name": rec[0], "start": rec[1] - t0, "end": rec[2] - t0,
                "parent": index.get(id(rec[3])) if rec[3] is not None else None,
                "thread": threads.setdefault(rec[4], len(threads)),
            }) + "\n")


# -------------------------------------------------------------------- main


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m for m in json.load(fh)[kind]}


def run(workload_name, seed, seconds, trace, work_dir, spans_path=None, import_s=0.0):
    """Run one workload; returns (result, details) as printed by `main`.
    `import_s` is the library's import time, which set-up time includes."""
    import numpy as np
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name](work_dir, len(os.sched_getaffinity(0)))
    details = {"workload": workload_name, "seed": seed, "trace": trace,
               "operation": workload.unit, "machine": machine_facts()}

    if trace:
        from spans import layer_metrics
        tracer, blocks, missing, tally = run_traced(workload, seed)
        values = layer_metrics(tracer)
        overhead = blocks[1] - blocks[0] if len(blocks) == 2 else float("nan")
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / blocks[0] if blocks else overhead
        details["untraced_block_s"], details["traced_block_s"] = (blocks + [None, None])[:2]
        details["missing_functions"] = missing
        if spans_path is not None:
            write_spans(tracer, spans_path)
            details["spans_file"] = str(spans_path)
        declared = _declared("per_layer")
        details["per_layer"] = values
        if values.get("trace.accounted_share", 1.0) < 0.95:
            details["finding"] = ("per-layer self times cover less than 95 % of "
                                  "the traced wall time; see trace.untraced_s")
    else:
        setups, times, state, tally = run_untraced(workload, seed, seconds)
        values = {
            "setup_s": import_s + statistics.median(setups),
            "op_p50_ms": statistics.median(times) * 1e3 if times else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = _declared("end_to_end")
        samples = {"setup_s": len(setups), "op_p50_ms": len(times), "peak_rss_mb": 1}
        details["import_s"] = import_s
        if times:
            details["op_quantiles_ms"] = dict(zip(
                ("min", "p25", "p50", "p75", "max"),
                np.percentile(times, [0, 25, 50, 75, 100]) * 1e3))
        details["setup_runs_s"] = setups
        details["end_to_end"] = {
            name: {"value": values[name], "unit": declared[name]["unit"],
                   "better": declared[name]["better"], "samples": samples[name]}
            for name in declared}
        if times:
            for name, (value, unit, n) in workload.details(state, times).items():
                details["end_to_end"][name] = {"value": value, "unit": unit, "samples": n}
    details["error_rate"] = tally.failed / max(tally.attempted, 1)
    details["errors"] = tally.errors[:10]

    missing_metrics = sorted(set(declared) - set(values))
    if missing_metrics:
        raise RuntimeError(f"metrics not computed: {missing_metrics}")
    correct = tally.failed == 0 and tally.attempted > 0 and bool(np.all(
        [np.isfinite(values[name]) for name in declared]))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]["unit"]}
                    for name in declared},
    }
    return result, details


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread: with build's pool of nproc workers the process then
    # runs no more compute threads than cores, in every workload alike.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "eqrep" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no eqrep source tree under {ROOT}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import eqrep.cli  # noqa: F401  (the library, numpy and scipy)
    import_s = time.perf_counter() - start
    if Path(eqrep.__file__).resolve().parent != SRC / "eqrep":
        print(f"perfbench: imported eqrep from {eqrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        result, details = run(args.workload, args.seed, args.seconds, args.trace,
                              work_dir, spans_path, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
