"""Order-preserving map over fork-started worker processes.

The task reaches the workers by fork inheritance and is never pickled, so it
may be a closure over large inputs (a note corpus, a feature matrix); only the
items and the results cross the process boundary. An exception raised in a
worker is raised again in the caller. A worker that dies raises
`BrokenProcessPool`, a RuntimeError, instead of leaving the caller waiting.

Each worker keeps its heap. A build sample frees its EQ output and its
feature-pass temporaries, about 1.6 MB, together at its end; with glibc's
dynamic thresholds the allocator then trims the heap top and the next sample
faults the same pages in again, some 300 minor faults and about 1 ms of system
time per sample. The worker initializer therefore fixes glibc's mmap and trim
thresholds (`mallopt`), so freed memory stays in the worker's heap and is
reused. Only worker processes change; the calling process keeps its settings.
"""

import ctypes
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

# Chunks per worker: enough to even out the workers' finishing times, few
# enough that per-chunk queue traffic stays negligible.
CHUNKS_PER_WORKER = 16

# glibc `mallopt` parameters and the values a worker sets: blocks below
# WORKER_MMAP_THRESHOLD come from the heap, and the heap top is returned to
# the kernel only once WORKER_TRIM_THRESHOLD of it is free.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
WORKER_MMAP_THRESHOLD = 32 << 20
WORKER_TRIM_THRESHOLD = 64 << 20

# The running pool's task. Set only in worker processes, by the pool's
# initializer; the calling process never changes it.
_task = None


def _keep_heap():
    """Fix this process's glibc mmap and trim thresholds; on a C library
    without `mallopt`, do nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((M_MMAP_THRESHOLD, WORKER_MMAP_THRESHOLD),
                         (M_TRIM_THRESHOLD, WORKER_TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            raise RuntimeError(f"mallopt({param}, {value}) failed")


def _install(task):
    global _task
    _keep_heap()
    _task = task


def _run(item):
    return _task(item)


def fork_map(task, items, jobs: int) -> list:
    """[task(item) for item in items], run on up to `jobs` worker processes;
    the results come back in item order. With one job, or fewer than two
    items, the items run in this process. An exception raised by an item
    cancels the items no worker has started."""
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [task(item) for item in items]
    chunksize = max(1, len(items) // (workers * CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install, initargs=(task,)) as pool:
        try:
            return list(pool.map(_run, items, chunksize=chunksize))
        finally:
            pool.shutdown(cancel_futures=True)
