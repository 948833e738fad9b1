"""Record paired benchmark runs of a parent revision and the working tree.

    python3 tools/bench_record.py --parent REV --pairs N --out BENCH_<n>.json

The parent's committed files are unpacked with `git archive` into a
temporary directory, as the benchmark gate checks out each side, and the
working tree runs from the repository root. For each of the N pairs and each
workload of BENCHMARK.json, `perfbench/run.py --trace 0` runs once on each
side for the benchmark's `run_seconds`, with the same seed (pair i, counted
from 0, uses seed i + 1), in one process per run; the side that runs
first alternates from pair to pair, so a drift of the machine's speed falls
on both sides alike. Nothing is written under `perfbench/`; the harness
itself writes only its `.perfbench/` work directory in each tree.

The output holds every run (its end-to-end metrics, operation quantiles,
set-up times, `correct` flag and exit code), the parent's commit id, each
side's machine facts from its first run that printed them, and per workload
and metric: each side's median, the parent's interquartile range, and in how
many pairs the working tree was better. The harness's own `git_commit` fact
is left out: the parent's unpacked files are no repository, and the working
tree may differ from its HEAD; `src_sha256` tells the two sources apart.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def unpack(revision, directory):
    """The committed files of `revision`, written under `directory`; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_once(tree, workload, seed, seconds):
    """One harness run in `tree`: (details, result, exit code). A run that
    printed no result line gets result None and its stderr's last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"error": tail}, None, proc.returncode
    return details, result, proc.returncode


def machine_facts(details):
    """The machine facts of one run's details line without its `git_commit`,
    or None if the run printed none."""
    facts = details.get("machine")
    return facts and {fact: value for fact, value in facts.items() if fact != "git_commit"}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs, better):
    """{workload: {metric: {parent_median, change_median, parent_iqr, pairs,
    change_better}}} over the runs that printed a result; `better` maps each
    metric to "lower" or "higher"."""
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        paired = {}
        for run in runs:
            if run["workload"] == workload and run["metrics"] is not None:
                paired.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
        summary[workload] = {}
        for metric, direction in better.items():
            pairs = [(sides["parent"][metric], sides["change"][metric])
                     for sides in paired.values() if {"parent", "change"} <= set(sides)]
            if not pairs:
                continue
            parent, change = zip(*pairs)
            low, high = _quartiles(list(parent))
            sign = 1 if direction == "lower" else -1
            summary[workload][metric] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_iqr": high - low,
                "pairs": len(pairs),
                "change_better": sum(sign * (c - p) < 0 for p, c in pairs),
            }
    return summary


def main(argv=None):
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    runs, machine = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        commit = unpack(args.parent, parent_dir)
        trees = {"parent": Path(parent_dir), "change": ROOT}
        for pair in range(args.pairs):
            seed = pair + 1
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for position, side in enumerate(order):
                    details, result, code = run_once(trees[side], workload, seed, seconds)
                    if side not in machine and (facts := machine_facts(details)):
                        machine[side] = facts
                    runs.append({
                        "workload": workload, "pair": pair, "seed": seed, "side": side,
                        "position": position, "exit_code": code,
                        "correct": bool(result and result["correct"]),
                        "metrics": result and {name: m["value"]
                                               for name, m in result["metrics"].items()},
                        "op_quantiles_ms": details.get("op_quantiles_ms"),
                        "setup_runs_s": details.get("setup_runs_s"),
                        "error_rate": details.get("error_rate"),
                        "error": details.get("error"),
                    })
                    print(f"pair {pair} {workload} {side}: exit {code}, "
                          f"{runs[-1]['metrics']}", file=sys.stderr, flush=True)
    record = {
        "parent": {"revision": args.parent, "commit": commit},
        "change": "working tree",
        "seconds": seconds,
        "machine": machine,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
