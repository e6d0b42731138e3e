"""Structured event tracing at the storage-engine seam.

A :class:`TraceCollector` is the one recording of buffer-manager
events: a ring buffer of structured events -- page traffic, block
maintenance, delta spool/scan markers and span boundaries -- that can
be serialised to Chrome trace-event JSON (loadable in
``chrome://tracing`` and https://ui.perfetto.dev), aggregated into
heatmaps (:mod:`repro.obs.heatmap`) and HTML run reports
(:mod:`repro.obs.report`), or folded into the run profile of a
:class:`~repro.obs.record.RunRecord`
(:func:`~repro.obs.record.summarise_trace`).

Tracing is a *capability* of the engine seam: only engines that
advertise ``CAP_TRACE`` (the paged substrate) accept a collector; the
fast engine refuses explicitly with :class:`EngineCapabilityError`.
Every emit site is gated on ``collector is not None`` so a disabled
trace plane costs one pointer test and cannot move a counter.

Event vocabulary
----------------

===================  ====================================================
``page.hit``         buffer-pool request satisfied from a resident frame
``page.fetch``       request missed; a physical read was simulated
``page.create``      a page materialised directly in the pool
``page.write``       a dirty page's write-back was simulated
``page.evict``       a frame was dropped by the replacement policy
``page.pin`` /       a frame was pinned to / released from memory
``page.unpin``
``block.split``      a successor list grew a block on a fresh page
``block.relocate``   a list was moved wholesale to a new page
``block.reblock``    Hybrid evicted a pinned list under memory pressure
``delta.spool`` /    semi-naive delta relation written out / re-scanned
``delta.scan``
``span.begin`` /     a :class:`~repro.obs.spans.SpanRecorder` span opened
``span.end``         or closed (span name in ``detail``)
===================  ====================================================
"""

from __future__ import annotations

import json
from collections import Counter, deque
from collections.abc import Iterator
from time import perf_counter
from typing import Any, Iterable, NamedTuple, Sequence

__all__ = [
    "EV_PAGE_HIT",
    "EV_PAGE_FETCH",
    "EV_PAGE_CREATE",
    "EV_PAGE_WRITE",
    "EV_PAGE_EVICT",
    "EV_PAGE_PIN",
    "EV_PAGE_UNPIN",
    "EV_BLOCK_SPLIT",
    "EV_BLOCK_RELOCATE",
    "EV_BLOCK_REBLOCK",
    "EV_DELTA_SPOOL",
    "EV_DELTA_SCAN",
    "EV_SPAN_BEGIN",
    "EV_SPAN_END",
    "EVENT_NAMES",
    "PAGE_TOUCH_EVENTS",
    "TraceEventRecord",
    "TraceCollector",
    "chrome_trace",
    "events_from_chrome",
    "merge_identities",
    "validate_chrome_trace",
    "write_chrome_trace",
]

EV_PAGE_HIT = "page.hit"
EV_PAGE_FETCH = "page.fetch"
EV_PAGE_CREATE = "page.create"
EV_PAGE_WRITE = "page.write"
EV_PAGE_EVICT = "page.evict"
EV_PAGE_PIN = "page.pin"
EV_PAGE_UNPIN = "page.unpin"
EV_BLOCK_SPLIT = "block.split"
EV_BLOCK_RELOCATE = "block.relocate"
EV_BLOCK_REBLOCK = "block.reblock"
EV_DELTA_SPOOL = "delta.spool"
EV_DELTA_SCAN = "delta.scan"
EV_SPAN_BEGIN = "span.begin"
EV_SPAN_END = "span.end"

EVENT_NAMES = frozenset(
    {
        EV_PAGE_HIT,
        EV_PAGE_FETCH,
        EV_PAGE_CREATE,
        EV_PAGE_WRITE,
        EV_PAGE_EVICT,
        EV_PAGE_PIN,
        EV_PAGE_UNPIN,
        EV_BLOCK_SPLIT,
        EV_BLOCK_RELOCATE,
        EV_BLOCK_REBLOCK,
        EV_DELTA_SPOOL,
        EV_DELTA_SCAN,
        EV_SPAN_BEGIN,
        EV_SPAN_END,
    }
)

#: Events that touch a page and therefore feed the access heatmap.
PAGE_TOUCH_EVENTS = frozenset({EV_PAGE_HIT, EV_PAGE_FETCH, EV_PAGE_CREATE})


class TraceEventRecord(NamedTuple):
    """One structured trace event.

    ``ts`` is seconds since the collector was created (monotonic).
    ``phase`` is the execution phase the engine was in when the event
    fired (``"restructure"``, ``"compute"``, ``"writeout"`` or ``""``
    before the first phase transition).  A plain tuple: cheap to build
    on every emit, and picklable for ``--jobs`` workers.
    """

    seq: int
    ts: float
    phase: str
    name: str
    kind: str | None = None
    page: int | None = None
    detail: str | None = None

    def identity(self) -> tuple[str, str, str | None, int | None, str | None]:
        """The event minus its measured fields (seq, wall time).

        Two runs of the same deterministic cell produce equal identity
        streams even though their timestamps differ -- this is what the
        serial-vs-parallel merge tests compare.
        """
        return (self.phase, self.name, self.kind, self.page, self.detail)


class TraceCollector:
    """A bounded, ordered recording of structured trace events.

    The buffer is a ring: once ``capacity`` events are held, each new
    event evicts the oldest and increments :attr:`dropped`.  The
    default capacity does *not* hold every paper-scale cell: Hybrid's
    full closure at M=20 emits 1.73 M events on G9 and 5.35 M on G12
    (BTC: 0.22 M and 0.23 M).  The bound exists so a runaway workload
    degrades to losing history instead of memory; ``--trace-out`` says
    on stderr when a ring dropped events, and the run profile carries
    a ``dropped`` count.  ``repro profile`` passes an unbounded
    capacity (``sys.maxsize``) so its profile covers the whole run.
    """

    DEFAULT_CAPACITY = 1_000_000

    def __init__(self, capacity: int = DEFAULT_CAPACITY, label: str = "") -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.label = label
        self.dropped = 0
        self.phase = ""
        self._events: deque[TraceEventRecord] = deque(maxlen=capacity)
        self._seq = 0
        self._t0 = perf_counter()

    # -- recording (the hot path) -------------------------------------------

    def emit(
        self,
        name: str,
        kind: str | None = None,
        page: int | None = None,
        detail: str | None = None,
    ) -> None:
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(
            TraceEventRecord(
                self._seq, perf_counter() - self._t0, self.phase, name, kind, page, detail
            )
        )
        self._seq += 1

    def span_begin(self, name: str) -> None:
        self.emit(EV_SPAN_BEGIN, detail=name)

    def span_end(self, name: str) -> None:
        self.emit(EV_SPAN_END, detail=name)

    # -- inspection ---------------------------------------------------------

    @property
    def events(self) -> list[TraceEventRecord]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEventRecord]:
        return iter(self._events)

    def counts(self) -> Counter[str]:
        """Event counts by name (golden-test fodder)."""
        return Counter(record.name for record in self._events)

    def to_chrome(self) -> dict[str, Any]:
        """This collector alone as a Chrome trace-event payload."""
        return chrome_trace([(self.label or "run", self.events)])


# ---------------------------------------------------------------------------
# Chrome trace-event (Perfetto-compatible) serialisation
# ---------------------------------------------------------------------------

def _chrome_ts(ts: float) -> float:
    # Chrome trace timestamps are microseconds.
    return round(ts * 1e6, 3)


def chrome_trace(
    sections: Sequence[tuple[str, Sequence[TraceEventRecord]]],
) -> dict[str, Any]:
    """Serialise labelled event streams to Chrome trace-event JSON.

    Each ``(label, events)`` section becomes its own trace *process*
    (``pid``), labelled via a ``process_name`` metadata event, so a
    multi-algorithm run renders as parallel swim-lanes in Perfetto.
    Span events map to duration pairs (``ph: "B"/"E"``); everything
    else maps to thread-scoped instant events (``ph: "i"``) carrying
    ``phase``/``kind``/``page``/``detail`` in ``args``.
    """
    trace_events: list[dict[str, Any]] = []
    for pid, (label, events) in enumerate(sections, start=1):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        for record in events:
            if record.name == EV_SPAN_BEGIN or record.name == EV_SPAN_END:
                trace_events.append(
                    {
                        "name": record.detail or "span",
                        "cat": "span",
                        "ph": "B" if record.name == EV_SPAN_BEGIN else "E",
                        "ts": _chrome_ts(record.ts),
                        "pid": pid,
                        "tid": 1,
                        "args": {"phase": record.phase},
                    }
                )
                continue
            args: dict[str, Any] = {"phase": record.phase}
            if record.kind is not None:
                args["kind"] = record.kind
            if record.page is not None:
                args["page"] = record.page
            if record.detail is not None:
                args["detail"] = record.detail
            trace_events.append(
                {
                    "name": record.name,
                    "cat": record.name.split(".", 1)[0],
                    "ph": "i",
                    "s": "t",
                    "ts": _chrome_ts(record.ts),
                    "pid": pid,
                    "tid": 1,
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Any, sections: Sequence[tuple[str, Sequence[TraceEventRecord]]]
) -> None:
    """Write sections to ``path`` as Chrome trace-event JSON."""
    payload = chrome_trace(sections)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def events_from_chrome(
    payload: dict[str, Any],
) -> list[tuple[str, list[TraceEventRecord]]]:
    """Reconstruct labelled event streams from a Chrome trace payload.

    The inverse of :func:`chrome_trace` up to sequence numbering: the
    report renderer uses this to aggregate heatmaps from a trace file
    without needing the original collectors.
    """
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError("not a Chrome trace-event payload: " + problems[0])
    labels: dict[int, str] = {}
    streams: dict[int, list[TraceEventRecord]] = {}
    for event in payload["traceEvents"]:
        pid = event.get("pid", 0)
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                labels[pid] = event.get("args", {}).get("name", f"pid {pid}")
            continue
        args = event.get("args", {})
        stream = streams.setdefault(pid, [])
        if event.get("ph") in ("B", "E"):
            name = EV_SPAN_BEGIN if event["ph"] == "B" else EV_SPAN_END
            record = TraceEventRecord(
                seq=len(stream),
                ts=event.get("ts", 0.0) / 1e6,
                phase=args.get("phase", ""),
                name=name,
                detail=event.get("name"),
            )
        else:
            record = TraceEventRecord(
                seq=len(stream),
                ts=event.get("ts", 0.0) / 1e6,
                phase=args.get("phase", ""),
                name=event.get("name", ""),
                kind=args.get("kind"),
                page=args.get("page"),
                detail=args.get("detail"),
            )
        stream.append(record)
    return [
        (labels.get(pid, f"pid {pid}"), stream)
        for pid, stream in sorted(streams.items())
    ]


def validate_chrome_trace(payload: Any) -> list[str]:
    """Check ``payload`` against the Chrome trace-event JSON shape.

    Returns a list of problems; an empty list means the payload is a
    well-formed JSON-object-format trace (the format Perfetto and
    ``chrome://tracing`` load).  Used by tests and the CI trace-smoke
    leg (``repro obs validate-trace``).
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object with a traceEvents array"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    open_spans: Counter[int] = Counter()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(event.get("name"), str):
            problems.append(f"event {index}: missing name")
        if not isinstance(ph, str) or ph not in ("B", "E", "i", "I", "M", "X", "C"):
            problems.append(f"event {index}: unsupported ph {ph!r}")
            continue
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"event {index}: missing or negative ts")
        if not isinstance(event.get("pid"), int):
            problems.append(f"event {index}: missing pid")
        if ph in ("i", "I") and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"event {index}: bad instant scope {event.get('s')!r}")
        if ph == "B":
            open_spans[event.get("pid", 0)] += 1
        elif ph == "E":
            open_spans[event.get("pid", 0)] -= 1
            if open_spans[event.get("pid", 0)] < 0:
                problems.append(f"event {index}: span end without begin")
                open_spans[event.get("pid", 0)] = 0
    for pid, depth in open_spans.items():
        if depth > 0:
            problems.append(f"pid {pid}: {depth} span(s) never closed")
    return problems


def merge_identities(
    sections: Iterable[tuple[str, Sequence[TraceEventRecord]]],
) -> list[tuple[str, tuple[str, str, str | None, int | None, str | None]]]:
    """Flatten sections to ``(label, identity)`` pairs, order preserved.

    Timestamp-free view of a merged trace: equal for a serial run and
    a parallel run of the same cells merged in submission order.
    """
    return [
        (label, record.identity())
        for label, events in sections
        for record in events
    ]
