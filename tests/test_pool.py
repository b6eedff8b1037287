"""Tests for the process pool and the thread map behind the parallel stages."""

import ast
import contextlib
import os
from pathlib import Path

import numpy as np
import pytest

import gmtc
from gmtc import corpus, dsp, model, pool


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


def test_chunks_are_the_runs_pool_workers_take(monkeypatch):
    tasks = list(range(103))
    monkeypatch.setenv("GMTC_THREADS", "2")
    assert pool._shares(tasks) == [tasks[:51], tasks[51:]]  # one share a worker
    monkeypatch.setenv("GMTC_THREADS", "64")
    assert pool._shares(tasks[:5]) == [[0], [1], [2], [3], [4]]
    monkeypatch.setenv("GMTC_THREADS", "1")
    assert pool._shares(tasks) == [tasks]
    assert pool._shares([]) == []
    # any count at any budget: one nonempty share a worker, in order, sizes within one
    for budget in range(1, 6):
        monkeypatch.setenv("GMTC_THREADS", str(budget))
        for n in range(12):
            tasks = list(range(n))
            shares = pool._shares(tasks)
            assert len(shares) == min(budget, n), (budget, n)
            assert [t for share in shares for t in share] == tasks, (budget, n)
            assert all(share for share in shares), (budget, n)
            sizes = [len(share) for share in shares]
            assert not sizes or max(sizes) - min(sizes) <= 1, (budget, n)


def test_no_module_keeps_global_state():
    """Every module's mutable state belongs to an object its callers pass:
    no function rebinds a module global or an enclosing function's name."""
    package = Path(gmtc.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


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


def _budget(_):
    return pool.worker_count()


def test_pool_workers_see_a_budget_of_one(monkeypatch):
    monkeypatch.setenv("GMTC_THREADS", "2")
    assert pool._pool_map(_budget, list(range(4))) == [1, 1, 1, 1]
    assert pool.worker_count() == 2  # the parent's budget is untouched


def test_thread_map_starts_no_more_threads_than_items(monkeypatch):
    sizes = []

    class FakeExecutor:
        """Stands in for ThreadPoolExecutor: records its size, runs serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pool, "ThreadPoolExecutor", FakeExecutor)
    monkeypatch.setattr(pool, "_one_blas_thread", lambda: contextlib.nullcontext(True))
    monkeypatch.setenv("GMTC_THREADS", "64")
    assert pool._thread_map(abs, [-1, -2, -3]) == [1, 2, 3]
    assert pool._thread_map(abs, [-4]) == [4]  # one item runs on this thread
    monkeypatch.setenv("GMTC_THREADS", "2")
    assert pool._thread_map(abs, list(range(-5, 0))) == [5, 4, 3, 2, 1]
    assert sizes == [3, 2]


def test_thread_map_runs_serially_when_blas_cannot_be_capped(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(pool, "ThreadPoolExecutor", no_threads)
    monkeypatch.setattr(pool, "_one_blas_thread", lambda: contextlib.nullcontext(False))
    monkeypatch.setenv("GMTC_THREADS", "4")
    assert pool._thread_map(abs, [-1, -2, -3]) == [1, 2, 3]


def test_evaluate_restores_the_blas_thread_count(monkeypatch):
    before = _openblas_threads(0) if os.path.exists("/proc/self/maps") else []
    if not before:
        pytest.skip("no OpenBLAS found in this process")
    rng = np.random.default_rng(0)
    labels = ["a", "b"]
    feats, entries = [], []
    for i in range(10):  # 10 clips of 1024 frames run as 3 sequence groups
        path = f"c{i}.wav"
        feats.append(dsp.FeatureMatrix(
            frames=rng.standard_normal((1024, 39)).astype(np.float32),
            true_len=1024, clip_id=path))
        entries.append(corpus.Entry(path=path, label=labels[i % 2], speaker="s",
                                    corpus="t"))
    manifest = corpus.Manifest(entries=entries, label_set=labels)
    cfg = model.ModelConfig(n_gcb=2, gating_levels=1, n_gscb=1, n_classes=2,
                            seq_len=1024)
    assert len(model.sequence_groups(10, 1024)) == 3
    capped = []
    real_map = pool._thread_map

    def spy(fn, items):
        capped.append(_openblas_threads(0))
        return real_map(lambda item: (capped.append(_openblas_threads(0)), fn(item))[1],
                        items)

    monkeypatch.setattr(pool, "_thread_map", spy)
    monkeypatch.setenv("GMTC_THREADS", "2")
    report = gmtc.evaluate(cfg, model.init_params(cfg, 1), feats, manifest,
                           list(range(10)))
    assert report.n == 10
    assert capped[0] == before and all(set(c) == {1} for c in capped[1:])
    assert _openblas_threads(0) == before
