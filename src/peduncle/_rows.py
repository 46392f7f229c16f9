"""Row-independent work on every CPU the process may run on.

for_row_chunks(fn, n) calls fn(lo, hi) over contiguous chunks of rows
0..n-1 that cover each row once. The calling thread takes chunks from a
shared queue and so do the threads of one lazily created pool, one thread
fewer than the CPUs in the process's affinity mask, so a call returns
once every chunk is done. A caller must make fn write each row's result
from that row alone: the chunking then changes no byte.

It runs every chunk on the calling thread when the process has one CPU,
when the rows make a single chunk, or when it is called from one of the
pool's own threads, so nested calls cannot deadlock. The first exception
a chunk raises reaches the caller, after every started chunk has ended.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Rows in one chunk at most: it bounds a chunk's temporaries (a full
# training cloud's kNN query), whose memory a thread's malloc arena keeps.
_CHUNK_ROWS = 2048
# Rows in one chunk at least: fewer would cost more in hand-over than they
# save.
_MIN_ROWS = 128


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # a platform without affinity masks
        return os.cpu_count() or 1


# Threads that run chunks at once, the calling thread included.
_WORKERS = _cpus()

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.inside = True


def _forget_pool() -> None:
    # a forked child has none of the parent's threads, and a lock another
    # thread held stays held
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):         # POSIX only
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, "peduncle-rows", _mark_pool_thread)
        return _pool


def _drain(fn, spans, lock) -> None:
    while True:
        with lock:
            span = next(spans, None)
        if span is None:
            return
        fn(*span)


def for_row_chunks(fn, n: int) -> None:
    """Call fn(lo, hi) once for each chunk [lo, hi) of rows 0..n-1, on
    every CPU of the process's affinity mask; see the module docstring."""
    chunks = max(-(-n // _CHUNK_ROWS), min(_WORKERS, n // _MIN_ROWS))
    spans = [(n * i // chunks, n * (i + 1) // chunks) for i in range(chunks)]
    helpers = min(_WORKERS, chunks) - 1
    if helpers < 1 or getattr(_pool_thread, "inside", False):
        for lo, hi in spans:
            fn(lo, hi)
        return
    todo, lock = iter(spans), threading.Lock()
    futures = [_executor().submit(_drain, fn, todo, lock) for _ in range(helpers)]
    try:
        _drain(fn, todo, lock)
    finally:
        wait(futures)
    for future in futures:
        future.result()
