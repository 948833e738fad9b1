"""Order-preserving map over fork-started worker processes.

The task reaches the workers by fork inheritance and is never pickled, so it
may be a closure over large inputs (a note corpus, a feature matrix); only the
results cross the process boundary. Each worker claims one item index at a
time from a counter in shared memory, so the workers even out their finishing
times without any traffic from the caller. When a worker has no item left, it
writes one pickle of its results to its own pipe and exits; the caller reads
every pipe and puts the results in item order. The caller starts no thread
and keeps no queue. An exception raised by an item is raised again in the
caller, and no worker starts an item after it. A worker that dies raises a
RuntimeError that names its exit code or signal, instead of leaving the
caller waiting. No worker outlives the call. The caller flushes its standard
streams before it forks and each worker flushes its own before it exits, so
every line that the caller or a task prints appears once.

Each worker keeps its heap. A build sample frees its EQ output and its
feature-pass temporaries, about 1.6 MB, together at its end; with glibc's
dynamic thresholds the allocator then trims the heap top and the next sample
faults the same pages in again, some 300 minor faults and about 1 ms of system
time per sample. A worker therefore first fixes glibc's mmap and trim
thresholds (`mallopt`), so freed memory stays in the worker's heap and is
reused. Every item runs on a worker, even at one job, so every build keeps its
heap, and the calling process keeps its settings.
"""

import ctypes
import multiprocessing
import os
import pickle
import select
import signal
import sys
import traceback

# glibc `mallopt` parameters and the values a worker sets: blocks below
# WORKER_MMAP_THRESHOLD come from the heap, and the heap top is returned to
# the kernel only once WORKER_TRIM_THRESHOLD of it is free.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
WORKER_MMAP_THRESHOLD = 32 << 20
WORKER_TRIM_THRESHOLD = 64 << 20


class _WorkerTraceback(Exception):
    """The traceback of an item's exception, as formatted in the worker; the
    exception raised again in the caller has it as its cause."""


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


def _flush_std_streams():
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _work(task, items, counter, read_fd, write_fd):
    """A worker's whole life: claim and run items until none is left or one
    raises, write one pickle of `(results, failure)` to `write_fd`, where
    results are `(index, result)` pairs and failure is None or
    `(index, exception, traceback text)`, and exit. Never returns."""
    status = 1
    try:
        os.close(read_fd)
        _keep_heap()
        results, failure = [], None
        while True:
            with counter.get_lock():
                index = counter.value
                counter.value = index + 1
            if index >= len(items):
                break
            try:
                results.append((index, task(items[index])))
            except BaseException as exc:  # raised again in the caller
                with counter.get_lock():
                    counter.value = len(items)
                failure = (index, exc, traceback.format_exc())
                break
        try:
            payload = pickle.dumps((results, failure))
        except Exception as exc:
            # Charged to this worker's first item; a worker claims in order.
            first = (results or [failure])[0][0]
            payload = pickle.dumps(([], (first, exc, traceback.format_exc())))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)


def fork_map(task, items, jobs: int) -> list:
    """[task(item) for item in items], run on max(1, min(jobs, len(items)))
    worker processes, even for one job or one item; the results come back in
    item order. No item runs in this process, and with no items no process
    starts. After an item raises, no worker starts another item, and the
    exception of the lowest failing item is raised once every worker has
    exited."""
    items = list(items)
    if not items:
        return []
    counter = multiprocessing.get_context("fork").Value("q", 0)
    # What this process has buffered would otherwise be written again by
    # every worker when it flushes its streams at exit.
    _flush_std_streams()
    workers = {}  # read end of each unreaped worker's pipe -> its pid
    try:
        for _ in range(max(1, min(jobs, len(items)))):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _work(task, items, counter, read_fd, write_fd)
            os.close(write_fd)
            workers[read_fd] = pid
        poller = select.poll()
        for read_fd in workers:
            poller.register(read_fd, select.POLLIN)
        payloads = {read_fd: bytearray() for read_fd in workers}
        results, failures = [None] * len(items), []
        while workers:
            for read_fd, _ in poller.poll():
                # Small reads: a large read buffer stays in this process's heap.
                chunk = os.read(read_fd, 64 << 10)
                if chunk:
                    payloads[read_fd] += chunk
                    continue
                poller.unregister(read_fd)
                payload = payloads.pop(read_fd)
                _, status = os.waitpid(workers[read_fd], 0)
                del workers[read_fd]
                os.close(read_fd)
                if not payload or status != 0:
                    code = os.waitstatus_to_exitcode(status)
                    how = f"signal {-code}" if code < 0 else f"exit code {code}"
                    raise RuntimeError(f"a worker process terminated abruptly ({how})")
                done, failure = pickle.loads(payload)
                del payload
                for index, result in done:
                    results[index] = result
                if failure is not None:
                    failures.append(failure)
        if failures:
            _, exc, text = min(failures, key=lambda failure: failure[0])
            raise exc from _WorkerTraceback(text)
        return results
    finally:
        for read_fd, pid in workers.items():
            os.close(read_fd)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass
