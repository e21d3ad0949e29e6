import multiprocessing
import os

import pytest

from segnoise import pool

START_METHODS = [m for m in ("spawn", "fork") if m in multiprocessing.get_all_start_methods()]
needs_fork = pytest.mark.skipif("fork" not in START_METHODS, reason="the platform has no fork")


@pytest.fixture(params=START_METHODS)
def start_method(request):
    """Make `request.param` the start method that pools use, then restore it."""
    saved = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(saved, force=True)


def _context_entry(task):
    return pool.context()[task]


def fake_blas(monkeypatch, count, log=None):
    """Route `pool`'s OpenBLAS lookup to a counter starting at `count`;
    each setter call is appended to the file `log` as "pid count"."""
    threads = [count]

    def set_threads(value):
        if log is not None:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {value}\n")
        threads[0] = value

    monkeypatch.setattr(pool, "_openblas_threads", lambda: (lambda: threads[0], set_threads))
    return threads


def test_pool_workers_get_one_blas_thread_and_parent_env_is_restored(monkeypatch, start_method):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    seen = pool.map_cells(os.getenv, names, None, 2)
    assert seen == ["1", "1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ


def test_workers_read_the_installed_context_and_results_keep_task_order(start_method):
    squares = [i * i for i in range(50)]
    tasks = list(range(50))[::-1]
    assert pool.map_cells(_context_entry, tasks, squares, 2) == squares[::-1]
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


def test_in_process_cells_run_on_one_blas_thread_and_a_raise_restores_everything(monkeypatch):
    threads = fake_blas(monkeypatch, 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)

    def cell(task):
        assert threads == [1]
        assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["OMP_NUM_THREADS"] == "1"
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError, match="cell failed"):
        pool.map_cells(cell, [1], None, 1)
    assert threads == [3]
    assert dict(os.environ) == before


def _pin_again(task):
    with pool._one_blas_thread():
        return os.environ["OPENBLAS_NUM_THREADS"]


@needs_fork
@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
def test_a_forked_worker_never_calls_the_blas_setter(monkeypatch, tmp_path, start_method):
    # A worker that enters the pin itself (a nested map_cells) sets the
    # environment, but leaves OpenBLAS alone: after a fork, a setter
    # call restarts OpenBLAS's spinning server thread.
    log = tmp_path / "calls"
    threads = fake_blas(monkeypatch, 4, log)
    assert pool.map_cells(_pin_again, [0, 1], None, 2) == ["1", "1"]
    assert log.read_text().split("\n")[:-1] == [f"{os.getpid()} 1", f"{os.getpid()} 4"]
    assert threads == [4]
