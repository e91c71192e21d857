"""Spans around calls into the toolchain's public functions, from outside it.

A :class:`Tracer` replaces module attributes with wrappers for the length of a
``with`` block.  Calls made through those attributes, including calls between
the toolchain's own modules, then record a span: name, start, end, parent, and
a count taken from the result (tokens, diagnostics, bytes, ...).  Spans stay in
memory; the benchmark reduces them to per-layer numbers at the end of the run,
with a duration function that turns two clock readings into seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span, if any
    count: int = 0


class Tracer:
    """Records spans for the functions given as (module, attribute, span name,
    count of result)."""

    def __init__(self, targets: list[tuple[object, str, str, Optional[Callable]]]):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, Callable] = {}
        for module, attr, name, count in self.targets:
            original = getattr(module, attr)
            # One wrapper per function, however many modules refer to it.
            wrapper = wrappers.setdefault(id(original), self._wrap(original, name, count))
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(result)
            return result

        return traced

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


Duration = Callable[[float, float], float]


def total(spans: list[Span], name: str, duration: Duration) -> float:
    return sum(duration(s.start, s.end) for s in spans if s.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(s.count for s in spans if s.name == name)


def self_time(spans: list[Span], name: str, duration: Duration) -> float:
    """Time in ``name`` spans not covered by their child spans."""
    inside = {i for i, s in enumerate(spans) if s.name == name}
    children = sum(duration(s.start, s.end) for s in spans if s.parent in inside)
    return sum(duration(spans[i].start, spans[i].end) for i in inside) - children
