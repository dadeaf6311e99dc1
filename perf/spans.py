"""In-memory span recorder for the traced run, and the arithmetic on spans.

The benchmark records spans from outside the program: `Recorder.install`
replaces public functions at layer boundaries by timing wrappers and puts
the identical objects back afterwards, so no file under ``src/`` changes.
Spans stay in a list until the run ends; nothing is written while a
workload is being timed.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    """One call through a wrapped boundary.

    ``parent`` is the index of the span that caused this one (-1 for a
    root); ``solve_id`` is the index of its root, shared by every span of
    one solve.
    """

    name: str
    layer: str
    parent: int
    solve_id: int
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions of one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str):
        """A function that calls ``fn`` inside a span ``name`` of ``layer``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, layer, parent,
                        spans[parent].solve_id if parent >= 0 else idx)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def install(self, boundaries):
        """Wrap every ``(owner, attribute, layer)`` boundary for the
        duration of the block, then restore the original objects.

        The original is read from ``vars(owner)``, not ``getattr``, so that
        what is put back is the very object that was there (a plain
        function in a class or module dictionary).
        """
        originals = []
        try:
            for owner, attr, layer in boundaries:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, attr, layer))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so a self time is never negative and the self times
    of a tree sum to the duration of its root.
    """
    covered: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                covered[span.parent].append((lo, hi))
    return [max(0.0, span.duration - _union_length(ivs))
            for span, ivs in zip(spans, covered)]


def outermost(spans: list[Span], selected) -> list[Span]:
    """The spans ``selected`` accepts that have no accepted ancestor.

    Their durations add up to the time spent inside the selected
    boundaries (busy time), counting a nested call once.
    """
    inside = [False] * len(spans)  # an ancestor-or-self is selected
    out = []
    for idx, span in enumerate(spans):  # parents precede their children
        above = span.parent >= 0 and inside[span.parent]
        hit = selected(span)
        inside[idx] = above or hit
        if hit and not above:
            out.append(span)
    return out
