"""A process pool whose workers receive one shared context once.

Both sweeps (the oracle and the beta gridsearch) map a cell function
over a list of small task tuples; the bulky, read-only data every cell
needs (corpus, folds, features) is the context. It is installed in each
worker by the pool initializer, so it crosses the process boundary at
most once per worker (not at all under fork), never once per task.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CONTEXT = None


def context():
    """The context installed for the cell function now running."""
    return _CONTEXT


def _install(ctx) -> None:
    global _CONTEXT
    _CONTEXT = ctx


def map_cells(function, tasks: list, ctx, jobs: int, start_method: str | None = None) -> list:
    """`function` over `tasks` with `ctx` installed, in canonical order.

    Runs in-process when only one worker would have work. Otherwise
    `min(jobs, tasks)` workers start with `start_method` (None: the
    platform default) and each BLAS thread-count variable set to 1, so
    that spawned workers' BLAS libraries, which read it once at load, do
    not oversubscribe the cores; the parent's environment is restored
    after. Tasks go out in about eight chunks per worker, so that short
    cells (the oracle's take about a millisecond) do not each pay a
    round trip to the pool.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        _install(ctx)
        try:
            return [function(t) for t in tasks]
        finally:
            _install(None)
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(start_method),
            initializer=_install, initargs=(ctx,),
        ) as pool:
            return list(pool.map(function, tasks, chunksize=max(1, len(tasks) // (8 * workers))))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
