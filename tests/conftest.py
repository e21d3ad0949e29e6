import concurrent.futures
import itertools
import sys

import pytest

from segnoise import pool


def mask_map(records) -> dict:
    """{patient id: mask} of `records`, the input that the mask sweeps take."""
    return {r.patient_id: r.mask for r in records}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion verdicts after the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def costly_tasks(monkeypatch):
    """Every task that `pool.map_cells` times reads as an hour of work, so
    a map with two or more tasks left after its first starts a pool."""
    monkeypatch.setattr(pool, "_clock", itertools.count(0.0, 3600.0).__next__)


@pytest.fixture
def cheap_tasks(monkeypatch):
    """Every task that `pool.map_cells` times reads as no work, so no
    pool starts."""
    monkeypatch.setattr(pool, "_clock", itertools.repeat(0.0).__next__)


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker count of each pool that `pool.map_cells` starts."""
    starts = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return starts
