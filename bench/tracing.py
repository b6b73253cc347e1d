"""Spans around calls into the program's public functions.

A `Tracer` replaces a module attribute or method with a wrapper that records
one span per call: name, start, end and the span that was open when the call
began. Spans stay in memory until the run ends; `write` saves them. The
wrappers live in the benchmark's own files, so the program is measured
without being edited.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import time

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float:
    """The highest of PERCENTILES with at least ten of n samples beyond it."""
    fitting = [p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    return fitting[-1] if fitting else PERCENTILES[0]


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    """In-memory span recorder for one run of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter() if start is None else start)
        self.ends.append(math.nan)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        """End span idx; spans opened inside it and still open end with it."""
        end = time.perf_counter() if end is None else end
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = end
            if top == idx:
                break

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, count=None,
             phase: bool = False) -> None:
        """Record a span named `name` around every call of owner.attr.

        count(args) is called with the call's bound arguments to add counts.
        A phase span starts with the call and ends with its enclosing span,
        for a stretch of work that begins with a known call but has no
        function of its own (artifact writing).
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if count else None
        tracer = self

        if phase:
            def wrapper(*args, **kwargs):
                tracer.open(name)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if count is not None:
                    count(sig.bind(*args, **kwargs).arguments)
                idx = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

        functools.update_wrapper(wrapper, fn)
        setattr(owner, attr, wrapper)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends,
                                         self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def write(self, path, origin: float) -> None:
        """Save spans as gzip CSV, times in seconds since `origin`."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for idx, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{self.run_id},{idx},{parent},{name},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")
