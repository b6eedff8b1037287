"""The process pool behind every parallel stage, and the thread map behind
every batched inference forward.

GMTC_THREADS is one budget for both (default: the core count, at most 4;
a value below 1, like one that is not an integer, is a DataError);
GMTC_THREADS=1 runs every stage serially in the calling process. A pool
worker caps its OpenBLAS at one thread and sees a budget of 1 itself, so a
worker never threads and processes × threads stays within the budget. The
thread map caps the process's OpenBLAS at one thread while its threads run
and restores the count afterwards; where it finds no OpenBLAS to cap, it
runs serially rather than let BLAS threads outnumber the cores.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from .errors import DataError


def worker_count() -> int:
    env = os.environ.get("GMTC_THREADS", "")
    if env.strip():
        try:
            value = int(env)
        except ValueError:
            raise DataError(f"GMTC_THREADS must be an integer, got {env!r}")
        if value < 1:
            raise DataError(f"GMTC_THREADS must be at least 1, got {env!r}")
        return value
    return min(4, os.cpu_count() or 1)


# numpy's wheel build (its OpenBLAS exports the scipy_openblas names), then
# plain OpenBLAS
_BLAS_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
               "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.lru_cache(maxsize=None)
def _blas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process; empty where none is found. Looked up once per process (a
    forked worker inherits the lookup with the library)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split(None, 5)[5].strip() for line in fh
                    if "openblas" in line and line.count(" ") >= 5}
    except OSError:
        return ()
    controls = []
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _BLAS_NAMES:
            get_name, set_name = pattern.format("get"), pattern.format("set")
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get_threads, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Cap every OpenBLAS in this process at one thread for the block and
    restore the counts it found; yields whether there was one to cap.
    Python threads that each call a BLAS running a thread per core
    outnumber the cores, and the BLAS threads' spin-waits then slow every
    GEMM large enough to be split."""
    controls = _blas_controls()
    found = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield bool(controls)
    finally:
        for (_, set_threads), n in zip(controls, found):
            set_threads(n)


def _worker_init() -> None:
    """Each pool worker has a core of its own: one BLAS thread, and a
    budget of 1 for anything it would parallelise itself."""
    os.environ["GMTC_THREADS"] = "1"
    for _, set_threads in _blas_controls():
        set_threads(1)


def _pool_map(fn, tasks):
    """Order-preserving map over up to worker_count() processes, no more
    than there are tasks, each limited to one BLAS thread; serial in this
    process for one worker or one task."""
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
        return list(pool.map(fn, tasks))


def _shares(tasks: list) -> list[list]:
    """`tasks` cut into one contiguous run for each worker _pool_map would
    start, run sizes differing by at most one; `[tasks]` where _pool_map
    would map serially, `[]` for no tasks. A worker then gets one pool task
    a run, not one a task: `gmtc features` with one pool task per clip was
    slower on the benchmark's `extract` input in 9 of 10 alternating pairs
    (median 375.9 against 353.8 clips/s on a 2-vCPU VM)."""
    n, workers = len(tasks), min(worker_count(), len(tasks))
    return [tasks[i * n // workers : (i + 1) * n // workers] for i in range(workers)]


def _thread_map(fn, items):
    """Order-preserving map over up to worker_count() threads of this
    process, no more than there are items, with the process's OpenBLAS at
    one thread meanwhile; serial for one thread or one item, or when no
    OpenBLAS can be capped. For work that releases the GIL (numpy's GEMMs
    and ufunc loops) and returns the same bits on any thread."""
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with _one_blas_thread() as capped:
        if not capped:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=workers) as threads:
            return list(threads.map(fn, items))
