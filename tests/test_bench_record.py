"""The benchmark recorder's pairing and summary, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _run(pair, side, op_ms, rss=50.0, workload="predict"):
    metrics = None if op_ms is None else {"op_p50_ms": op_ms, "peak_rss_mb": rss}
    return {"workload": workload, "pair": pair, "side": side, "metrics": metrics}


def test_summary_pairs_by_pair_and_counts_wins():
    runs = [_run(0, "parent", 4.0), _run(0, "change", 3.0),
            _run(1, "change", 3.5), _run(1, "parent", 3.0),
            _run(2, "parent", 5.0), _run(2, "change", 4.0, rss=51.0),
            _run(3, "parent", 9.0), _run(3, "change", None)]  # no result: unpaired
    summary = bench_record.summarize(runs, {"op_p50_ms": "lower", "peak_rss_mb": "lower"})
    op = summary["predict"]["op_p50_ms"]
    assert op == {"parent_median": 4.0, "change_median": 3.5, "parent_iqr": 1.0,
                  "pairs": 3, "change_better": 2}
    assert summary["predict"]["peak_rss_mb"]["change_better"] == 0


def test_higher_is_better_counts_the_other_way():
    runs = [_run(0, "parent", 1.0), _run(0, "change", 2.0)]
    op = bench_record.summarize(runs, {"op_p50_ms": "higher"})["predict"]["op_p50_ms"]
    assert op["change_better"] == 1 and op["parent_iqr"] == 0.0


def test_pairs_must_be_positive():
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--parent", "HEAD", "--pairs", "0", "--out", "x.json"])


def test_machine_facts_leave_out_the_commit_and_a_failed_run():
    facts = {"nproc": 2, "git_commit": None, "src_sha256": "ab"}
    assert bench_record.machine_facts({"machine": facts}) == {"nproc": 2, "src_sha256": "ab"}
    assert bench_record.machine_facts({"error": "Traceback"}) is None
