"""Tests for the process pool behind the parallel stages."""

import os

import pytest

from gmtc import pool


def test_pool_map_starts_no_more_workers_than_tasks(monkeypatch):
    sizes = []

    class FakeExecutor:
        """Stands in for ProcessPoolExecutor: records its size, runs serially."""

        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setenv("GMTC_THREADS", "64")
    assert pool._pool_map(abs, [-1, -2, -3]) == [1, 2, 3]
    assert pool._pool_map(abs, [-4]) == [4]  # one task runs in this process
    monkeypatch.setenv("GMTC_THREADS", "2")
    assert pool._pool_map(abs, list(range(-5, 0))) == [5, 4, 3, 2, 1]
    assert sizes == [3, 2]


def _openblas_threads(_):
    """Thread count of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split(None, 5)[5].strip() for line in fh
                 if "openblas" in line and line.count(" ") >= 5}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get_threads = getattr(lib, name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                counts.append(get_threads())
                break
    return counts


def test_pool_workers_run_one_blas_thread(monkeypatch):
    if not os.path.exists("/proc/self/maps") or not _openblas_threads(0):
        pytest.skip("no OpenBLAS found in this process")
    monkeypatch.setenv("GMTC_THREADS", "2")
    per_task = pool._pool_map(_openblas_threads, list(range(4)))
    assert per_task and all(counts and set(counts) == {1} for counts in per_task)
