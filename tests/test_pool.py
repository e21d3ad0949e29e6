import multiprocessing
import os

import pytest

from segnoise import pool

START_METHODS = [m for m in ("spawn", "fork") if m in multiprocessing.get_all_start_methods()]


def _context_entry(task):
    return pool.context()[task]


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


def test_one_task_per_chunk_keeps_task_order():
    squares = [i * i for i in range(20)]
    tasks = list(range(20))[::-1]
    assert pool.map_cells(_context_entry, tasks, squares, 2, chunksize=1) == squares[::-1]


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
