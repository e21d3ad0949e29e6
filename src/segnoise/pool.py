"""A process pool whose workers receive one shared context once.

Both sweeps (the oracle and the beta gridsearch) map a cell function
over a list of small task tuples; the bulky, read-only data every cell
needs (corpus, folds, features) is the context. It is installed in each
worker by the pool initializer, so it crosses the process boundary at
most once per worker (not at all under fork), never once per task.
The process machinery is imported only when a pool starts, so that a
command that runs in-process does not load it.
"""

from __future__ import annotations

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CONTEXT = None


def context():
    """The context installed for the cell function now running."""
    return _CONTEXT


def _install(ctx) -> None:
    global _CONTEXT
    _CONTEXT = ctx


def map_cells(
    function, tasks: list, ctx, jobs: int, start_method: str | None = None,
    chunksize: int | None = None,
) -> list:
    """`function` over `tasks` with `ctx` installed, in canonical order.

    Runs in-process when only one worker would have work. Otherwise
    `min(jobs, tasks)` workers start with `start_method` (None: the
    platform default, fork on Linux). Forked workers inherit `ctx` and
    the parent's loaded libraries, so a caller that wants one BLAS thread
    per worker sets it in the parent before calling. Spawned workers
    load BLAS afresh, and it reads the thread-count variables once at
    load, so each is set to 1 while workers start, lest they
    oversubscribe the cores; the parent's environment is restored
    after. By default tasks go out in about eight chunks per worker, so
    that short tasks (a point of the default oracle sweep takes about
    7 ms) do not each pay a round trip to the pool; callers whose tasks
    take much longer than a round trip pass `chunksize=1`, so that no
    worker idles while another works through a chunk at the end.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        _install(ctx)
        try:
            return [function(t) for t in tasks]
        finally:
            _install(None)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(start_method),
            initializer=_install, initargs=(ctx,),
        ) as pool:
            if chunksize is None:
                chunksize = max(1, len(tasks) // (8 * workers))
            return list(pool.map(function, tasks, chunksize=chunksize))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
