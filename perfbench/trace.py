"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` wraps chosen methods *on the instances the benchmark
builds* (never on classes, so nothing outside one run is touched).  Each
call records a span: name, start, end, the span that was open when it
started (its parent) and the request it belongs to (a delivery window,
a pipeline call, a simulation phase).  Spans stay in memory until the
run ends.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    name: str
    start: float
    end: float
    parent: int
    request: int

    @property
    def duration(self) -> float:
        """Wall seconds from call to return."""
        return self.end - self.start


@dataclass
class Tracer:
    """Span recorder; ``request`` tags every span opened while it is set."""

    spans: list[Span] = field(default_factory=list)
    request: int = -1
    _open: list[int] = field(default_factory=list)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a callable) by a span-recording wrapper."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        object.__setattr__(obj, attr, traced)

    def wrap_context(self, obj, attr: str, name: str) -> None:
        """Time the exit of the context manager ``obj.attr()`` returns."""
        inner = getattr(obj, attr)
        tracer = self

        @contextmanager
        def traced(*args, **kwargs):
            manager = inner(*args, **kwargs)
            value = manager.__enter__()
            try:
                yield value
            except BaseException as error:
                with tracer.span(name):
                    if not manager.__exit__(type(error), error, error.__traceback__):
                        raise
            else:
                with tracer.span(name):
                    manager.__exit__(None, None, None)

        object.__setattr__(obj, attr, traced)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (nested under the open one)."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere (e.g. across an ``await``) as a root."""
        self.spans.append(Span(name, start, end, -1, self.request))

    def named(self, name: str) -> list[Span]:
        """Every span of one name, in start order."""
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span of one name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        """Number of spans of one name."""
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (see :func:`self_time`)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += self_time(span, children.get(index, ()))
        return dict(totals)


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result is never negative.
    """
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered
