"""The process pool behind every parallel stage.

GMTC_THREADS caps the worker count (default: the core count, at most 4);
GMTC_THREADS=1 runs every stage serially in the calling process. Each
worker caps its OpenBLAS at one thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import DataError


def worker_count() -> int:
    env = os.environ.get("GMTC_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise DataError(f"GMTC_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)


# numpy's wheel build (its OpenBLAS exports the scipy_openblas names), then
# plain OpenBLAS
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Cap the OpenBLAS loaded in this process at one thread, if it can be
    found. Each pool worker has a core of its own; OpenBLAS's default of a
    thread per core in every worker outnumbers the cores, and the threads'
    spin-waits then slow every GEMM large enough to be split."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split(None, 5)[5].strip() for line in fh
                    if "openblas" in line and line.count(" ") >= 5}
    except OSError:
        return
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                break


def _pool_map(fn, tasks):
    """Order-preserving map over up to worker_count() processes, no more
    than there are tasks, each limited to one BLAS thread; serial in this
    process for one worker or one task."""
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, tasks,
                             chunksize=max(1, len(tasks) // (workers * 4))))
