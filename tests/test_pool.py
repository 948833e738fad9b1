import ctypes
import faulthandler
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eqrep
from eqrep import pool
from eqrep.pool import fork_map
from fresh import run_fresh

MAX_FAULTS_PER_SAMPLE = 8

# Run in a fresh interpreter, whose allocator has glibc's default dynamic
# thresholds, as at the start of an `eqrep` run: a long test session may
# already have raised them far enough that no sample trims the heap. Each of
# the two items, mapped at the given job count, runs 5 warm-up samples, then
# 20 measured ones, of EQ and features on a 2 s C2 note, and returns the
# minor faults per sample of the process that ran it.
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

print(json.dumps(fork_map(faults_per_sample, range(2), jobs=int(sys.argv[2]))))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="C library has no mallopt")
@pytest.mark.parametrize("sample_rate", [22050, 44100])
@pytest.mark.parametrize("jobs", [1, 2])
def test_build_worker_does_not_refault_its_heap(jobs, sample_rate):
    src = str(Path(eqrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_SAMPLE, str(sample_rate), str(jobs)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    faults = json.loads(proc.stdout)
    assert len(faults) == 2 and max(faults) <= MAX_FAULTS_PER_SAMPLE, faults


@pytest.mark.parametrize("jobs", [0, 1, 2])  # 0 still runs one worker
def test_heap_setting_stays_in_the_workers(monkeypatch, jobs):
    calls = []
    monkeypatch.setattr(pool, "_keep_heap", lambda: calls.append(1))
    assert fork_map(len, ["ab", "c"], jobs) == [2, 1]
    assert calls == []


def _square_unless_seven(item):
    if item == 7:
        raise ValueError("item 7")
    return item * item


def _hundred_kb(item):
    return bytes([item]) * 100_000


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_come_back_in_item_order(jobs):
    # The first items are not sorted, so the result order is the item order,
    # not the value order. The 100 KB results, 4 MB in all, make each
    # worker's payload many times a pipe's buffer.
    for task, items in [(_square_unless_seven, [(17 * k) % 40 + 10 for k in range(40)]),
                        (_hundred_kb, range(40))]:
        assert fork_map(task, items, jobs) == [task(item) for item in items]
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("count", [1, 3])
def test_no_item_runs_in_the_caller(count, jobs):
    assert os.getpid() not in fork_map(lambda _: os.getpid(), range(count), jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_items_give_no_results(monkeypatch, jobs):
    def no_fork():
        raise AssertionError("a process was started")
    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(_square_unless_seven, [], jobs) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_items_exception_is_raised_in_the_caller(jobs):
    with pytest.raises(ValueError) as excinfo:
        fork_map(_square_unless_seven, range(40), jobs)
    assert excinfo.type is ValueError and str(excinfo.value) == "item 7"
    assert "_square_unless_seven" in str(excinfo.value.__cause__)  # the worker's traceback
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_item_starts_after_an_exception(tmp_path, jobs):
    started = tmp_path / "started"

    def task(item):
        with open(started, "a") as fh:
            fh.write(f"{item}\n")
        if item == 0:
            raise ValueError("item 0")
        time.sleep(0.05)

    items = range(20)
    with pytest.raises(ValueError, match="item 0"):
        fork_map(task, items, jobs)
    assert len(started.read_text().split()) < len(items)
    _assert_no_child_left()


def test_every_item_runs_once_on_more_workers_than_cores(tmp_path):
    # Two workers that read the counter before either moves it would run
    # one item twice.
    ran = tmp_path / "ran"

    def task(item):
        with open(ran, "a") as fh:
            fh.write(f"{item}\n")
        return item

    items = range(2000)
    assert fork_map(task, items, 4 * (os.cpu_count() or 1)) == list(items)
    assert sorted(map(int, ran.read_text().split())) == list(items)
    _assert_no_child_left()


def _exit_3():
    os._exit(3)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("die, how", [(_exit_3, "exit code 3"),
                                      (_kill_self, f"signal {signal.SIGKILL.value}")])
def test_a_dead_worker_is_an_error(die, how, jobs):
    def task(item):
        if item == 0:
            die()
        time.sleep(60)  # a map that waited for this worker would time out

    # A map that waited forever would hang the suite: end the test run with
    # a traceback instead.
    faulthandler.dump_traceback_later(30, exit=True, file=sys.__stderr__)
    try:
        with pytest.raises(RuntimeError) as excinfo:
            fork_map(task, range(4), jobs)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert str(excinfo.value) == f"a worker process terminated abruptly ({how})"
    _assert_no_child_left()


# Printed lines, each once, from the caller before and after a map and from
# every item, on a stdout that is a pipe and so block-buffered.
STD_STREAMS = """
import sys
from eqrep.pool import fork_map

print("before")

def task(item):
    print(f"item {item}")

fork_map(task, range(4), int(sys.argv[1]))
print("after")
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_printed_lines_appear_once(jobs):
    lines = run_fresh(STD_STREAMS, jobs, env={"PYTHONUNBUFFERED": ""}).splitlines()
    assert lines[0] == "before" and lines[-1] == "after"
    assert sorted(lines[1:-1]) == [f"item {k}" for k in range(4)]
