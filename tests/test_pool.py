import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqrep
from eqrep import pool
from eqrep.pool import fork_map

MAX_FAULTS_PER_SAMPLE = 8

# Run in a fresh interpreter, whose allocator has glibc's default dynamic
# thresholds, as at the start of an `eqrep` run: a long test session may
# already have raised them far enough that no sample trims the heap. Each of
# the two worker items runs 5 warm-up samples, then 20 measured ones, of EQ
# and features on a 2 s C2 note, and returns its minor faults per sample.
FAULTS_PER_SAMPLE = """
import json, resource, sys
import numpy as np
from eqrep.audio import note_corpus
from eqrep.eq import apply_eq
from eqrep.features import extract_features
from eqrep.pool import fork_map

(_, note), = note_corpus(["C2"], int(sys.argv[1]), duration_s=2.0)
settings = np.random.default_rng(3).uniform(-12, 12, (25, 5))

def faults_per_sample(_item):
    for gains in settings[:5]:
        extract_features(apply_eq(note, gains))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for gains in settings[5:]:
        extract_features(apply_eq(note, gains))
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20

print(json.dumps(fork_map(faults_per_sample, range(2), jobs=2)))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="C library has no mallopt")
@pytest.mark.parametrize("sample_rate", [22050, 44100])
def test_build_worker_does_not_refault_its_heap(sample_rate):
    src = str(Path(eqrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_SAMPLE, str(sample_rate)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    faults = json.loads(proc.stdout)
    assert len(faults) == 2 and max(faults) <= MAX_FAULTS_PER_SAMPLE, faults


@pytest.mark.parametrize("jobs", [1, 2])
def test_heap_setting_stays_in_the_workers(monkeypatch, jobs):
    calls = []
    monkeypatch.setattr(pool, "_keep_heap", lambda: calls.append(1))
    assert fork_map(len, ["ab", "c"], jobs) == [2, 1]
    assert calls == []


def _square_unless_seven(item):
    if item == 7:
        raise ValueError("item 7")
    return item * item


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_come_back_in_item_order(jobs):
    # 40 items at jobs=2 make 40 one-item chunks, many per worker; the items
    # are not sorted, so the result order is the item order, not the value order.
    items = [(17 * k) % 40 + 10 for k in range(40)]
    assert fork_map(_square_unless_seven, items, jobs) == [k * k for k in items]


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_items_give_no_results(jobs):
    assert fork_map(_square_unless_seven, [], jobs) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_items_exception_is_raised_in_the_caller(jobs):
    with pytest.raises(ValueError) as excinfo:
        fork_map(_square_unless_seven, range(40), jobs)
    assert excinfo.type is ValueError and str(excinfo.value) == "item 7"
