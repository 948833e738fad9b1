"""The benchmark recorder's pairing, summary and Tier-1 line parsing, on made-up input."""

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
                  "pairs": 3, "change_better": 2, "resolved": False}
    assert summary["predict"]["peak_rss_mb"]["change_better"] == 0


def test_higher_is_better_counts_the_other_way():
    runs = [_run(0, "parent", 1.0), _run(0, "change", 2.0)]
    op = bench_record.summarize(runs, {"op_p50_ms": "higher"})["predict"]["op_p50_ms"]
    assert op["change_better"] == 1 and op["parent_iqr"] == 0.0


def _pairs(parent, change):
    return [run for pair, (p, c) in enumerate(zip(parent, change))
            for run in (_run(pair, "parent", p), _run(pair, "change", c))]


@pytest.mark.parametrize("change, resolved", [
    ([7.5] * 10, True),                # better in 10 of 10, by 2.5 against an IQR of 2
    ([7.5] * 9 + [12.0], True),        # 9 of 10 is enough
    ([7.5] * 8 + [12.0] * 2, False),   # 8 of 10 is not
    ([8.5] * 10, False),               # 10 of 10, but the medians differ by less than the IQR
    ([12.5] * 10, False),              # worse by more than the IQR
])
def test_resolved_needs_nine_in_ten_and_a_median_gap_above_the_iqr(change, resolved):
    parent = [9.0, 11.0] * 5  # median 10, quartiles 9 and 11
    op = bench_record.summarize(_pairs(parent, change), {"op_p50_ms": "lower"})
    assert op["predict"]["op_p50_ms"]["parent_iqr"] == 2.0
    assert op["predict"]["op_p50_ms"]["resolved"] is resolved


def test_resolved_follows_the_metrics_direction():
    parent = [10.0] * 10
    higher = bench_record.summarize(_pairs(parent, [12.0] * 10), {"op_p50_ms": "higher"})
    lower = bench_record.summarize(_pairs(parent, [12.0] * 10), {"op_p50_ms": "lower"})
    assert higher["predict"]["op_p50_ms"]["resolved"] is True
    assert lower["predict"]["op_p50_ms"]["resolved"] is False


def test_pairs_must_be_positive():
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--parent", "HEAD", "--pairs", "0", "--out", "x.json"])


def test_machine_facts_leave_out_the_commit_and_a_failed_run():
    facts = {"nproc": 2, "git_commit": None, "src_sha256": "ab"}
    assert bench_record.machine_facts({"machine": facts}) == {"nproc": 2, "src_sha256": "ab"}
    assert bench_record.machine_facts({"error": "Traceback"}) is None


@pytest.mark.parametrize("line, passed, failed", [
    ("847 passed in 70.24s (0:01:10)", 847, 0),
    ("2 failed, 845 passed, 1 warning in 71.03s (0:01:11)", 845, 2),
    ("1 failed, 3 passed, 2 errors in 1.20s", 3, 1),
    ("no tests ran in 0.01s", 0, 0),
    ("", 0, 0),
])
def test_tier1_counts_read_pytests_last_line(line, passed, failed):
    assert bench_record.tier1_counts(line) == {"passed": passed, "failed": failed}
