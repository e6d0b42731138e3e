"""Lightweight nested span timers.

A *span* is a named, timed region of execution.  Spans nest: entering a
span while another is open records the inner one under the outer one's
path (``run/compute/pool.read``).  The recorder aggregates by path --
count, total, min and max duration -- instead of storing one object per
entry, so instrumenting a hot path (every simulated page I/O) stays
cheap and the serialised form stays small.

Instrumentation is strictly opt-in.  When no recorder is supplied
:func:`span` returns a shared no-op context manager, so the cost of an
un-instrumented call site is one ``None`` check.  Nothing in this
module touches the simulator's cost counters: spans measure wall-clock
time only, and enabling them cannot change any
:class:`~repro.metrics.counters.MetricSet` value.

Usage::

    recorder = SpanRecorder()
    with recorder.span("run"):
        with recorder.span("restructure"):
            ...
    recorder.as_dict()
    # {"run": {"count": 1, ...}, "run/restructure": {"count": 1, ...}}
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import TraceCollector


@dataclass
class SpanStats:
    """Aggregated timings of every span recorded at one path."""

    path: str
    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = math.inf
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one completed span into the aggregate."""
        self.count += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready form (min is 0.0 when nothing was recorded)."""
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": 0.0 if self.count == 0 else self.min_seconds,
            "max_seconds": self.max_seconds,
        }


class _NullSpan:
    """Shared no-op context manager returned when no recorder is attached."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager for one entry into one named span."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_SpanHandle":
        self._recorder._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self._start
        self._recorder._pop(elapsed)
        return False


@dataclass
class SpanRecorder:
    """Collects nested span timings, aggregated by path.

    When ``collector`` is attached, every span open/close additionally
    emits a ``span.begin``/``span.end`` trace event (the span *name*,
    not the full path, travels in the event's ``detail``), which is how
    phase waterfalls reach the Chrome trace and the HTML report.
    """

    collector: "TraceCollector | None" = None
    _stack: list[str] = field(default_factory=list)
    _stats: dict[str, SpanStats] = field(default_factory=dict)

    def span(self, name: str) -> _SpanHandle:
        """Open a (possibly nested) span named ``name``."""
        return _SpanHandle(self, name)

    # -- bookkeeping used by the handles -----------------------------------

    def _push(self, name: str) -> None:
        self._stack.append(name)
        if self.collector is not None:
            self.collector.span_begin(name)

    def _pop(self, elapsed: float) -> None:
        path = "/".join(self._stack)
        name = self._stack.pop()
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = SpanStats(path)
        stats.add(elapsed)
        if self.collector is not None:
            self.collector.span_end(name)

    # -- introspection ------------------------------------------------------

    def stats(self) -> list[SpanStats]:
        """All aggregates, in first-recorded order."""
        return list(self._stats.values())

    def get(self, path: str) -> SpanStats | None:
        """The aggregate at ``path``, or None if never entered."""
        return self._stats.get(path)

    def total_seconds(self, path: str) -> float:
        """Total time spent in spans at ``path`` (0.0 if never entered)."""
        stats = self._stats.get(path)
        return stats.total_seconds if stats else 0.0

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        """JSON-ready mapping of path -> aggregate."""
        return {path: stats.as_dict() for path, stats in self._stats.items()}

    def clear(self) -> None:
        """Drop all recorded spans (the nesting stack must be empty)."""
        self._stats.clear()


def span(name: str, recorder: SpanRecorder | None) -> _SpanHandle | _NullSpan:
    """Open a span on ``recorder``, or do nothing when it is ``None``.

    This is the form instrumented call sites use so that passing no
    recorder costs a single ``None`` check::

        with span("restructure", recorder):
            ...
    """
    if recorder is None:
        return NULL_SPAN
    return _SpanHandle(recorder, name)
