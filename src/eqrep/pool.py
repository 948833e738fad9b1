"""Order-preserving map over fork-started worker processes.

The task reaches the workers by fork inheritance and is never pickled, so it
may be a closure over large inputs (a note corpus, a feature matrix); only the
items and the results cross the process boundary. An exception raised in a
worker is raised again in the caller. A worker that dies raises
`BrokenProcessPool`, a RuntimeError, instead of leaving the caller waiting.
"""

import contextlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

# Chunks per worker: enough to even out the workers' finishing times, few
# enough that per-chunk queue traffic stays negligible.
CHUNKS_PER_WORKER = 16

# The running pool's task. Set only in worker processes, by the pool's
# initializer; the calling process never changes it.
_task = None


def _install(task):
    global _task
    _task = task


def _run(item):
    return _task(item)


@contextlib.contextmanager
def fork_map(task, items, jobs: int):
    """Start task(item) for every item on up to `jobs` worker processes and
    yield an iterator over the results, in item order; the caller may do
    other work before reading it. With one job, or fewer than two items, the
    items run in this process as the iterator is read. Leaving the block
    cancels the items no worker has started."""
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        yield map(task, items)
        return
    chunksize = max(1, len(items) // (workers * CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install, initargs=(task,)) as pool:
        try:
            yield pool.map(_run, items, chunksize=chunksize)
        finally:
            pool.shutdown(cancel_futures=True)
