"""A process pool whose workers receive one shared context once.

Both sweeps (the oracle and the beta gridsearch) map a cell function
over a list of small task tuples; the bulky, read-only data every cell
needs (corpus, folds, features) is the context. It is installed in each
worker by the pool initializer, so it crosses the process boundary at
most once per worker (not at all under fork), never once per task.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CONTEXT = None


def context():
    """The context installed for the cell function now running."""
    return _CONTEXT


def _install(ctx) -> None:
    global _CONTEXT
    _CONTEXT = ctx


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles in `numpy.libs/`, or None where there is no such library or
    it lacks them."""
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
    """Run the block with numpy's bundled OpenBLAS on one thread, then
    restore its thread count; a no-op where the library is not found."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


def map_cells(function, tasks: list, ctx, jobs: int, start_method: str | None = None) -> list:
    """`function` over `tasks` with `ctx` installed, in canonical order.

    Runs in-process, with numpy's bundled OpenBLAS on one thread, when
    only one worker would have work: a cell's matrix-vector products are
    too small for a second thread to gain wall time. Otherwise
    `min(jobs, tasks)` workers start with `start_method` (None: the
    platform default) and each BLAS thread-count variable set to 1, so
    that spawned workers' BLAS libraries, which read it once at load, do
    not oversubscribe the cores; the parent's environment is restored
    after. Tasks go out in about eight chunks per worker, so that short
    tasks (a point of the default oracle sweep takes about 7 ms) do not
    each pay a round trip to the pool.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        _install(ctx)
        try:
            with _one_blas_thread():
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
