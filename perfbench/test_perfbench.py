"""Smoke test of the benchmark harness at tiny sizes: every metric that
BENCHMARK.json names is emitted, with its declared unit, in both modes.

`reproduce` is left out: its smallest valid run (--limit 500) takes ~10 s,
and it emits its metrics through the same code as the other workloads.
"""

import json
import math

import pytest

import run
import workloads

TINY = {
    "BUILD_LIMIT": 4,
    "PREDICT_POOL": 4,
    "PREDICT_MIN_S": 0.1,
    "PREDICT_MAX_S": 0.2,
    "PREDICT_TRAIN_LIMIT": 40,
    "PREDICT_TREES": 3,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(workloads.Predict, "min_ops", 6)
    monkeypatch.setattr(workloads.Predict, "trace_ops", 3)


@pytest.mark.parametrize("workload", ["build", "predict"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, tmp_path, workload, trace):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    result, details = run.run(workload, seed=3, seconds=0.0, trace=trace,
                              work_dir=tmp_path, spans_path=tmp_path / "spans.jsonl")

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas",
            "blas_threads", "git_commit"} <= set(details["machine"])
    json.dumps(result)
    json.dumps(details, default=str)
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0
