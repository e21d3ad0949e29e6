import concurrent.futures
import itertools
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


def test_pool_workers_get_one_blas_thread_and_parent_env_is_restored(monkeypatch, start_method,
                                                                     costly_tasks, pool_starts):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    seen = pool.map_cells(os.getenv, names, None, 2)
    assert seen == ["1", "1", "1"]
    assert pool_starts == [2]  # the first task ran in the parent, the other two in workers
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ


def test_workers_read_the_installed_context_and_results_keep_task_order(start_method, costly_tasks,
                                                                       pool_starts):
    squares = [i * i for i in range(50)]
    tasks = list(range(50))[::-1]
    assert pool.map_cells(_context_entry, tasks, squares, 2) == squares[::-1]
    assert pool.context() is None
    assert pool_starts == [2]


def test_one_task_per_chunk_keeps_task_order(costly_tasks, pool_starts):
    squares = [i * i for i in range(20)]
    tasks = list(range(20))[::-1]
    assert pool.map_cells(_context_entry, tasks, squares, 2) == squares[::-1]
    assert pool_starts == [2]


@pytest.fixture
def pool_chunks(monkeypatch):
    """The chunk size of each pool map that `pool.map_cells` runs."""
    chunks = []

    class Chunked(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            chunks.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Chunked)
    return chunks


def test_costly_tasks_go_to_the_workers_one_at_a_time(costly_tasks, pool_chunks):
    # 49 tasks left for two workers would make chunks of 49 // 16 = 3,
    # but an hour per task caps a chunk far below one task.
    assert pool.map_cells(_context_entry, list(range(50)), list(range(50)), 2) == list(range(50))
    assert pool_chunks == [1]


@pytest.mark.parametrize("step, tasks, chunk", [
    (1 / 1024, 600, 599 // 16),  # about eight chunks per worker
    (1 / 128, 200, 8),  # each chunk at most an eighth of POOL_MIN_WORK_S: 0.5 / 8 / (1/128)
])
def test_short_tasks_that_pay_for_a_pool_go_out_in_chunks(monkeypatch, pool_chunks, step, tasks, chunk):
    # Each task reads `step` seconds (exact in binary), so the tasks left
    # after the first exceed POOL_MIN_WORK_S and a pool starts there.
    monkeypatch.setattr(pool, "_clock", itertools.count(0.0, step).__next__)
    assert pool.map_cells(_context_entry, list(range(tasks)), list(range(tasks)), 2) == list(range(tasks))
    assert pool_chunks == [chunk]


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
        return os.getpid(), os.environ["OPENBLAS_NUM_THREADS"]


@needs_fork
@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
def test_a_forked_worker_never_calls_the_blas_setter(monkeypatch, tmp_path, start_method, costly_tasks,
                                                     pool_starts):
    # A worker that enters the pin itself (a nested map_cells) sets the
    # environment, but leaves OpenBLAS alone: after a fork, a setter
    # call restarts OpenBLAS's spinning server thread. The first task
    # runs in the parent, whose nested pin sets and restores one thread.
    log = tmp_path / "calls"
    threads = fake_blas(monkeypatch, 4, log)
    parent = os.getpid()
    (first, *rest) = pool.map_cells(_pin_again, [0, 1, 2], None, 2)
    assert first == (parent, "1")
    assert [env for _, env in rest] == ["1", "1"] and parent not in [pid for pid, _ in rest]
    assert pool_starts == [2]
    assert log.read_text().split("\n")[:-1] == [f"{parent} 1"] * 3 + [f"{parent} 4"]
    assert threads == [4]


def _where(task):
    return os.getpid(), task, pool.context()


def _refuse_pool(*args, **kwargs):
    raise AssertionError("a pool started")


def test_cheap_tasks_start_no_pool(monkeypatch, cheap_tasks):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    tasks = list(range(12))[::-1]
    assert pool.map_cells(_where, tasks, "ctx", 4) == [(os.getpid(), t, "ctx") for t in tasks]
    assert pool.context() is None


@needs_fork
@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
@pytest.mark.parametrize("jobs", [2, 8])
def test_costly_tasks_run_the_first_in_the_parent_then_start_min_jobs_workers(
    start_method, costly_tasks, pool_starts, jobs
):
    tasks = list(range(5))[::-1]
    results = pool.map_cells(_where, tasks, "ctx", jobs)
    assert [task for _, task, _ in results] == tasks
    assert all(ctx == "ctx" for _, _, ctx in results)
    assert results[0][0] == os.getpid() and os.getpid() not in [pid for pid, _, _ in results[1:]]
    assert pool_starts == [min(jobs, len(tasks) - 1)]
    assert pool.context() is None


def test_one_task_left_finishes_in_the_parent(monkeypatch, costly_tasks):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    assert pool.map_cells(_where, [3, 4], "ctx", 4) == [(os.getpid(), 3, "ctx"), (os.getpid(), 4, "ctx")]


@pytest.mark.parametrize("tasks, starts", [(5, []), (6, [2])])
def test_a_pool_starts_when_the_mean_times_the_tasks_left_exceeds_the_bound(
    monkeypatch, pool_starts, tasks, starts
):
    # Each task reads 0.25 s against a 1 s bound (both exact in binary):
    # after the first, 4 tasks left estimate exactly 1 s, which is not
    # more; 5 tasks left estimate 1.25 s.
    monkeypatch.setattr(pool, "POOL_MIN_WORK_S", 1.0)
    monkeypatch.setattr(pool, "_clock", itertools.count(0.0, 0.25).__next__)
    assert pool.map_cells(_context_entry, list(range(tasks)), list(range(10)), 2) == list(range(tasks))
    assert pool_starts == starts


def _fail_in_a_worker(parent):
    if os.getpid() != parent:
        raise RuntimeError("worker failed")
    return parent


@needs_fork
@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
def test_a_raise_in_a_worker_restores_everything(monkeypatch, start_method, costly_tasks, pool_starts):
    threads = fake_blas(monkeypatch, 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    before = dict(os.environ)
    with pytest.raises(RuntimeError, match="worker failed"):
        pool.map_cells(_fail_in_a_worker, [os.getpid()] * 3, "ctx", 2)
    assert pool_starts == [2]
    assert pool.context() is None
    assert threads == [3]
    assert dict(os.environ) == before


def test_a_raise_in_the_parent_before_any_pool_restores_everything(monkeypatch, costly_tasks):
    threads = fake_blas(monkeypatch, 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_pool)
    before = dict(os.environ)

    def cell(task):
        assert threads == [1] and pool.context() == "ctx"
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError, match="cell failed"):
        pool.map_cells(cell, [1, 2, 3], "ctx", 2)
    assert pool.context() is None
    assert threads == [3]
    assert dict(os.environ) == before
