"""A process pool whose workers receive one shared context once, and
the BLAS thread policy.

Both sweeps (the oracle and the beta gridsearch) map a cell function
over a list of small task tuples; the bulky, read-only data every cell
needs (corpus, folds, features) is the context. It is installed in each
worker by the pool initializer, so it crosses the process boundary at
most once per worker (not at all under fork), never once per task.
A pool starts only when the work left can pay for it: `map_cells` runs
tasks in the parent, timing each, until the tasks left would take more
than `POOL_MIN_WORK_S` there, and only then starts workers for the rest,
in chunks sized from the measured task time (see `map_cells`). The
process machinery is imported only when a pool starts, so that a
command that runs in-process does not load it.

No cell gains wall time from a second BLAS thread, only CPU time, so
`cli.main` has OpenBLAS start with one thread, and `map_cells` pins it
to one for library callers, whose numpy loaded with its thread pool.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The seconds of work left below which `map_cells` finishes in the
# parent rather than start a pool. Measured on a 2-core host (Python
# 3.11, numpy 2.4.6, fork): starting two workers on no-op tasks and
# shutting them down took 12-15 ms wall and 22 ms CPU; a default-size
# `oracle` sweep of one repetition per point, whose tasks are nearly
# free, took 0.06 s more wall and 0.10 s more CPU at `--jobs 2` than at
# `--jobs 1`, the fork and executor plus the cold workers' first tasks.
# Above 0.5 s, two workers save at least 0.25 s of wall, four times that
# start-up, and their extra CPU is at most a fifth of the work. The
# default oracle sweep (about 0.12-0.15 s of work) stays in the parent
# with a margin over 3x; the default gridsearch (about 2 s per cell)
# starts its pool after its first cell.
POOL_MIN_WORK_S = 0.5

# The clock that times each task run in the parent; tests replace it.
_clock = time.perf_counter

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


def map_cells(function, tasks: list, ctx, jobs: int) -> list:
    """`function` over `tasks` with `ctx` installed, in canonical order,
    on one BLAS thread (`_one_blas_thread`).

    Tasks run in the parent, one at a time, each timed by `_clock`.
    Before each task after the first, the work left is estimated as the
    mean seconds per task so far times the tasks left; when `jobs` and
    the tasks left both exceed one and that estimate exceeds
    `POOL_MIN_WORK_S`, `min(jobs, tasks left)` workers start the
    platform's default way (fork on Linux) and run the rest. Forked
    workers inherit `ctx`, the parent's loaded libraries and its one
    BLAS thread. Otherwise every task runs in the parent. Every cell's
    streams are keyed, so the choice never changes a result.

    The pool's tasks go out in chunks sized from the mean task time
    measured here: about eight per worker, so that short tasks share a
    round trip to the pool, but at most an eighth of `POOL_MIN_WORK_S`
    of work each and at least one task, so that no worker idles at the
    end while another works through a long chunk (a gridsearch cell,
    all its betas' descent, takes about 2 s and goes out alone).
    """
    results = []
    with _one_blas_thread():
        _install(ctx)
        try:
            busy = 0.0
            for task in tasks:
                left = len(tasks) - len(results)
                if results and min(jobs, left) > 1 and busy / len(results) * left > POOL_MIN_WORK_S:
                    break
                start = _clock()
                results.append(function(task))
                busy += _clock() - start
        finally:
            _install(None)
        rest = tasks[len(results):]
        if rest:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(jobs, len(rest))
            chunksize = max(1, min(len(rest) // (8 * workers),
                                   int(POOL_MIN_WORK_S * len(results) / (8 * busy))))
            with ProcessPoolExecutor(max_workers=workers, initializer=_install, initargs=(ctx,)) as pool:
                results += pool.map(function, rest, chunksize=chunksize)
    return results
