"""A process pool whose workers receive one shared context once, and
the BLAS thread policy.

Both sweeps (the oracle and the beta gridsearch) map a cell function
over a list of small task tuples; the bulky, read-only data every cell
needs (corpus, folds, features) is the context. It is installed in each
worker by the pool initializer, so it crosses the process boundary at
most once per worker (not at all under fork), never once per task.
The process machinery is imported only when a pool starts, so that a
command that runs in-process does not load it.

No cell gains wall time from a second BLAS thread, only CPU time, so
`cli.main` has OpenBLAS start with one thread, and `map_cells` pins it
to one for library callers, whose numpy loaded with its thread pool.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CONTEXT = None
_FORKED = False


def context():
    """The context installed for the cell function now running."""
    return _CONTEXT


def _install(ctx) -> None:
    global _CONTEXT
    _CONTEXT = ctx


def _mark_forked() -> None:
    global _FORKED
    _FORKED = True


# A forked child never calls the OpenBLAS setter (see `_one_blas_thread`).
os.register_at_fork(after_in_child=_mark_forked)


def start_blas_on_one_thread() -> None:
    """Before numpy loads, set each BLAS thread variable the user left
    unset to 1: OpenBLAS reads them once, as numpy loads, so no idle
    BLAS thread starts. Once numpy is loaded this does nothing."""
    if "numpy" not in sys.modules:
        for name in _BLAS_THREAD_VARS:
            os.environ.setdefault(name, "1")


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles in `numpy.libs/`, or None where there is no such library or
    it lacks them."""
    import ctypes
    from pathlib import Path

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS pinned to one thread,
    which forked workers inherit, and the thread variables set to 1,
    which a spawned worker's BLAS reads as it loads; restore both after.
    Never call the setter in a forked child: it restarts OpenBLAS's
    server thread, which spins (on a 2-core host, a forked child that
    called `set_threads(1)` and then slept 0.2 s used 0.12-0.13 s of
    CPU; one that only slept used none)."""
    saved_env = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    blas = None if _FORKED else _openblas_threads()
    if blas is not None:
        saved = blas[0]()
        blas[1](1)
    try:
        yield
    finally:
        if blas is not None:
            blas[1](saved)
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def map_cells(function, tasks: list, ctx, jobs: int, chunksize: int | None = None) -> list:
    """`function` over `tasks` with `ctx` installed, in canonical order,
    on one BLAS thread (`_one_blas_thread`).

    Runs in-process when only one worker would have work. Otherwise
    `min(jobs, tasks)` workers start the platform's default way (fork on
    Linux), and forked workers inherit `ctx` and the parent's loaded
    libraries. By default tasks go out in about eight chunks per worker,
    so that short tasks (a point of the default oracle sweep takes about
    7 ms) do not each pay a round trip to the pool; callers whose tasks
    take much longer than a round trip (a gridsearch cell, all its betas'
    descent, takes about 2 s) pass `chunksize=1`, so that no worker idles
    while another works through a chunk at the end.
    """
    workers = min(jobs, len(tasks))
    with _one_blas_thread():
        if workers <= 1:
            _install(ctx)
            try:
                return [function(t) for t in tasks]
            finally:
                _install(None)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_install, initargs=(ctx,)) as pool:
            if chunksize is None:
                chunksize = max(1, len(tasks) // (8 * workers))
            return list(pool.map(function, tasks, chunksize=chunksize))
