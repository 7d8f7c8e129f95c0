"""In-memory span recording and self-time arithmetic.

A span is one timed call at a layer boundary: a name, a start, an end and
the index of the span that was open when it began (its parent, -1 at the
root).  Spans live in four parallel lists so that hundreds of thousands of
them stay cheap; :meth:`Tracer.dump` writes them out once the run ends.

All times are ``time.perf_counter()`` readings.  On Linux that clock is
CLOCK_MONOTONIC, which is shared by every process on the machine, so spans
taken in pool workers and in the benchmark process (run.py) line up with the spans
of the traced CLI process.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float):
        """Record an already finished span under the currently open one."""
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_generator(self, name: str, fn):
        """Generator function ``fn`` with each step of its iterator recorded.

        A generator does its work when it is advanced, not when it is called,
        so one span per ``next`` is what measures it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return traced

    def mark(self) -> int:
        return len(self.names)

    def slice(self, start: int) -> tuple[list, list, list, list]:
        """Spans recorded since ``mark()`` returned ``start``, parents rebased."""
        parents = [p - start if p >= start else -1 for p in self.parents[start:]]
        return self.names[start:], parents, self.starts[start:], self.ends[start:]

    def truncate(self, start: int):
        del self.names[start:], self.parents[start:], self.starts[start:], self.ends[start:]

    def dump(self) -> dict:
        return {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
        }


def self_times(parents, starts, ends) -> list[float]:
    """Per span: its duration minus the part of its interval children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx in range(len(parents)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(idx, ()), key=starts.__getitem__):
            cs, ce = max(starts[c], reach), min(ends[c], hi)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(hi - lo - covered)
    return out


def totals(names, parents, starts, ends) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    A span nested inside another of the same name (recursion) adds to the
    call count and the self time but not again to the total.
    """
    selfs = self_times(parents, starts, ends)
    out: dict[str, list] = {}
    for idx, name in enumerate(names):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += selfs[idx]
        p = parents[idx]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            entry[1] += ends[idx] - starts[idx]
    return out


def merge_totals(into: dict[str, list], more: dict[str, list]):
    for name, (calls, total, own) in more.items():
        entry = into.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own
