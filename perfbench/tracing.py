"""In-memory call spans for the benchmark's traced run.

A ``Tracer`` replaces module attributes with wrappers that record one span
per call: ``(id, parent_id, name, start, end)``, where the parent is the
innermost traced call still open. Functions too small to time are only
counted. ``aggregate`` turns a session's spans into per-name call counts,
total time and self time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

Span = tuple  # (id, parent_id or None, name, start, end)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def timed(self, fn, name: str, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` may read
        the result once the span is closed."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, fn, name: str):
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until ``restore``; callers that look the name up
        at call time see the replacement."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[Span], Counter]:
        """Spans and counts recorded since the last call, which start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total time ``s`` and ``self_s``.

    Self time is a span's duration minus the part of it that its child spans
    cover. Total time counts only the outermost span of a name, so a function
    that reaches itself again is not counted twice.
    """
    parent_of = {sid: parent for sid, parent, *_ in spans}
    name_of = {sid: name for sid, _, name, *_ in spans}
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))

    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, parent, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - covered(children[sid], start, end)
        ancestor = parent
        while ancestor is not None and name_of.get(ancestor) != name:
            ancestor = parent_of.get(ancestor)
        if ancestor is None:
            row["s"] += end - start
    return dict(out)
