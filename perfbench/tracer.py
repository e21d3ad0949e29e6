"""In-memory spans for the traced replay.

A span is (name, start, end, parent index). Spans live in a list while
the replay runs and are written out once, as JSONL, at the end. The
tracer can route every module-level binding of a function through a
span, so calls that the program makes internally (for example
`simulate_noise_robust` calling `corrupt_mask_volume`) are traced
without changing the program.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def instrument(self, modules, function, name: str, observe=None) -> None:
        """Wrap every binding of `function` in `modules` in a span named
        `name`; `observe(result, *args)` sees each call's result. A call
        made inside a span of the same name is not traced again.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]][0] == name:
                return function(*args, **kwargs)
            with self.span(name):
                result = function(*args, **kwargs)
            if observe is not None:
                observe(result, *args)
            return result

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, function))

    def restore(self) -> None:
        for module, attr, function in reversed(self._patches):
            setattr(module, attr, function)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap because the replay is one thread.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, parent), child in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for name, entry in sorted(self.summary().items()):
                fh.write(json.dumps({"summary": name, **entry}) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": value}) + "\n")
