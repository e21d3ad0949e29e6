import multiprocessing
import os

import pytest

from segnoise import pool

START_METHODS = [m for m in ("spawn", "fork") if m in multiprocessing.get_all_start_methods()]


def _context_entry(task):
    return pool.context()[task]


def _fail(task):
    raise RuntimeError("cell failed")


@pytest.mark.parametrize("start_method", START_METHODS)
def test_pool_workers_get_one_blas_thread_and_parent_env_is_restored(monkeypatch, start_method):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    seen = pool.map_cells(os.getenv, names, None, 2, start_method)
    assert seen == ["1", "1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("start_method", START_METHODS)
def test_workers_read_the_installed_context_and_results_keep_task_order(start_method):
    squares = [i * i for i in range(50)]
    tasks = list(range(50))[::-1]
    assert pool.map_cells(_context_entry, tasks, squares, 2, start_method) == squares[::-1]
    assert pool.context() is None


def test_one_worker_runs_in_process_and_clears_the_context():
    seen = []
    result = pool.map_cells(lambda t: seen.append((os.getpid(), pool.context())) or t, [7], "ctx", 4)
    assert result == [7]
    assert seen == [(os.getpid(), "ctx")]
    assert pool.context() is None


def test_context_cleared_when_a_cell_raises():
    def boom(task):
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError, match="cell failed"):
        pool.map_cells(boom, [1, 2], "ctx", 1)
    assert pool.context() is None


needs_openblas = pytest.mark.skipif(pool._openblas_threads() is None,
                                    reason="numpy's bundled OpenBLAS not found")


@needs_openblas
def test_in_process_cells_run_on_one_blas_thread_and_the_count_is_restored():
    get_threads, set_threads = pool._openblas_threads()
    saved = get_threads()
    set_threads(2)
    try:
        before = get_threads()
        assert pool.map_cells(lambda t: get_threads(), [0], None, 1) == [1]
        assert get_threads() == before
        with pytest.raises(RuntimeError):
            pool.map_cells(_fail, [0], None, 1)
        assert get_threads() == before
    finally:
        set_threads(saved)


def test_no_blas_pin_without_the_symbol(monkeypatch):
    class NoSymbols:
        pass

    pool._openblas_threads.cache_clear()
    monkeypatch.setattr(pool.ctypes, "CDLL", lambda path: NoSymbols())
    try:
        assert pool._openblas_threads() is None
        assert pool.map_cells(lambda t: t + 1, [1], "ctx", 1) == [2]
    finally:
        monkeypatch.undo()
        pool._openblas_threads.cache_clear()
