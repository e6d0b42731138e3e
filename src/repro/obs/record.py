"""Durable, machine-readable records of one algorithm run.

A :class:`RunRecord` captures everything the paper's methodology says a
credible performance claim needs: the workload parameters, the
:class:`~repro.core.query.SystemConfig`, the complete
:class:`~repro.metrics.counters.MetricSet` including the per-phase and
per-page-kind I/O breakdowns of :class:`~repro.storage.iostats.IoStats`,
the span timings of an attached
:class:`~repro.obs.spans.SpanRecorder`, and (optionally) a profile
folded from the page events of a
:class:`~repro.obs.tracing.TraceCollector`: the buffer-pool hit-ratio
timeline, the per-:class:`~repro.storage.page.PageKind` access
histogram, and the hottest pages.

Records serialise to plain JSON dictionaries (one per line in a JSONL
file, see :mod:`repro.obs.sink`) and load back for regression
comparison (see :mod:`repro.obs.compare`).
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.spans import SpanRecorder
from repro.obs.tracing import EV_PAGE_CREATE, EV_PAGE_FETCH, EV_PAGE_HIT, TraceCollector
from repro.storage.engine import PageKind
from repro.storage.iostats import IoStats, Phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import ClosureResult

SCHEMA_VERSION = 2
"""Bump when the serialised RunRecord layout changes incompatibly.

Version history:

* **1** -- the original layout; ``trace`` always present (``null``
  when the run was not traced).
* **2** -- ``trace`` is omitted entirely when no trace was collected,
  matching the ``faults`` behaviour.  Version-1 records load
  unchanged (an explicit ``"trace": null`` reads back as ``None``).
"""

SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})
"""Schema versions :meth:`RunRecord.from_dict` accepts."""


def io_stats_dict(io: IoStats) -> dict[str, Any]:
    """Serialise :class:`IoStats` with both of its breakdowns.

    The reads/writes counters key physical I/Os two ways at once --
    by :class:`Phase` and by :class:`PageKind` -- so the phase and kind
    breakdowns are split apart here.
    """

    def by_phase(counter: Counter[Phase | PageKind]) -> dict[str, int]:
        return {phase.value: counter[phase] for phase in Phase}

    def by_kind(counter: Counter[Phase | PageKind]) -> dict[str, int]:
        return {
            kind.value: counter[kind] for kind in PageKind if counter[kind]
        }

    return {
        "reads_by_phase": by_phase(io.reads),
        "writes_by_phase": by_phase(io.writes),
        "requests_by_phase": by_phase(io.requests),
        "hits_by_phase": by_phase(io.hits),
        "reads_by_kind": by_kind(io.reads),
        "writes_by_kind": by_kind(io.writes),
        "total_reads": io.total_reads,
        "total_writes": io.total_writes,
        "total_io": io.total_io,
        "hit_ratio": io.hit_ratio(),
        "compute_hit_ratio": io.hit_ratio(Phase.COMPUTE),
    }


def system_config_dict(system: Any) -> dict[str, Any]:
    """Serialise a :class:`SystemConfig` to JSON-safe values.

    The default ``paged`` engine is omitted (like empty fault lists in
    :meth:`RunRecord.to_dict`): paged-engine records and sweep-journal
    cell keys stay byte-identical to those written before the engine
    field existed.
    """
    out: dict[str, Any] = {}
    for f in dataclasses.fields(system):
        value = getattr(system, f.name)
        if f.name == "engine" and value == "paged":
            continue
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[f.name] = value
        else:  # enums (ListPlacementPolicy) and anything else exotic
            out[f.name] = getattr(value, "value", str(value))
    return out


def query_dict(query: Any) -> dict[str, Any]:
    """Serialise a :class:`Query` (kind plus selectivity, not sources)."""
    return {
        "kind": "full" if query.is_full else "ptc",
        "selectivity": query.selectivity,
    }


def summarise_trace(
    collector: TraceCollector, buckets: int = 20, top_k: int = 10
) -> dict[str, Any]:
    """Fold a collector's page events into a JSON-sized profile.

    The request stream is the ``page.hit``/``page.fetch`` events in
    order.  It gives the hit-ratio timeline (the stream split into at
    most ``buckets`` equal chunks), the per-kind request histogram, and
    the ``top_k`` most-requested pages.  ``events`` counts a hit or a
    create as one buffer event and a fetch as two (the miss and its
    physical read).  When the collector's ring overflowed, ``dropped``
    says how many of the oldest events the profile does not cover.
    """
    hits = bytearray()
    histogram: Counter[str | None] = Counter()
    pages: Counter[str] = Counter()
    creates = 0
    for event in collector:
        name = event.name
        if name == EV_PAGE_HIT or name == EV_PAGE_FETCH:
            hits.append(name == EV_PAGE_HIT)
            histogram[event.kind] += 1
            pages[f"{event.kind}:{event.page}"] += 1
        elif name == EV_PAGE_CREATE:
            creates += 1

    requests = len(hits)
    timeline: list[float] = []
    if requests:
        buckets = max(1, min(buckets, requests))
        per_bucket = requests / buckets
        for index in range(buckets):
            chunk = hits[round(index * per_bucket) : round((index + 1) * per_bucket)]
            if chunk:
                timeline.append(round(sum(chunk) / len(chunk), 4))

    profile: dict[str, Any] = {
        "events": 2 * requests - sum(hits) + creates,
        "requests": requests,
        "hit_ratio_timeline": timeline,
        "kind_histogram": dict(histogram),
        "hot_pages": [
            {"page": page, "requests": count}
            for page, count in pages.most_common(top_k)
        ],
    }
    if collector.dropped:
        profile["dropped"] = collector.dropped
    return profile


def metric_set_dict(metrics: Any) -> dict[str, Any]:
    """Serialise a :class:`MetricSet`: headline summary plus full I/O."""
    out = dict(metrics.summary())
    out["restructure_cpu_seconds"] = round(metrics.restructure_cpu_seconds, 6)
    out["reblocking_events"] = metrics.reblocking_events
    out["io"] = io_stats_dict(metrics.io)
    return out


@dataclass
class RunRecord:
    """One algorithm run, fully described and JSON-serialisable."""

    algorithm: str
    workload: dict[str, Any] = field(default_factory=dict)
    query: dict[str, Any] = field(default_factory=dict)
    system: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    spans: dict[str, Any] = field(default_factory=dict)
    trace: dict[str, Any] | None = None
    wall_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION
    faults: list[dict[str, Any]] = field(default_factory=list)
    """Injected chaos faults that fired during this run (normally empty)."""

    @classmethod
    def from_result(
        cls,
        result: "ClosureResult",
        workload: dict[str, Any] | None = None,
        recorder: SpanRecorder | None = None,
        collector: TraceCollector | None = None,
        wall_seconds: float | None = None,
    ) -> "RunRecord":
        """Build a record from a finished :class:`ClosureResult`.

        ``workload`` identifies the input graph (family, scale, seed,
        node/arc counts ...); it is what :mod:`repro.obs.compare` keys
        cells on, together with the algorithm and the query shape.
        The record carries a ``trace`` profile exactly when the run had
        a ``collector``.
        """
        if wall_seconds is None and recorder is not None:
            wall_seconds = recorder.total_seconds("run")
        metrics = metric_set_dict(result.metrics)
        metrics["magic"] = {
            "nodes": result.magic_nodes,
            "arcs": result.magic_arcs,
            "height": round(result.magic_height, 4),
            "width": round(result.magic_width, 4),
            "max_level": result.magic_max_level,
        }
        metrics["answer_tuples"] = result.num_tuples
        return cls(
            algorithm=result.algorithm,
            workload=dict(workload or {}),
            query=query_dict(result.query),
            system=system_config_dict(result.system),
            metrics=metrics,
            spans=recorder.as_dict() if recorder is not None else {},
            trace=summarise_trace(collector) if collector is not None else None,
            wall_seconds=round(wall_seconds or 0.0, 6),
        )

    # -- convenience accessors used by the comparison gate ------------------

    @property
    def total_io(self) -> float:
        """Total page I/O of the run (the paper's primary measure)."""
        return float(self.metrics.get("total_io", 0))

    @property
    def cpu_seconds(self) -> float:
        """Measured process CPU time of the run."""
        return float(self.metrics.get("cpu_seconds", 0.0))

    def cell_key(self) -> tuple[str, str, str, str]:
        """Identity of the experimental cell this run belongs to.

        Two runs of the same algorithm on the same workload, query
        shape and system configuration are repetitions of one cell;
        :func:`repro.obs.compare.compare_runs` averages within cells
        before diffing.  The system config is part of the identity so
        that sweeps (buffer sizes, ILIMIT values) stay separate cells.
        """
        return (
            self.algorithm,
            json.dumps(self.workload, sort_keys=True),
            json.dumps(self.query, sort_keys=True),
            json.dumps(self.system, sort_keys=True),
        )

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form, ready for ``json.dumps``.

        ``faults`` is omitted when empty, so records of fault-free runs
        serialise byte-identically to the pre-chaos schema; ``trace``
        is likewise omitted when the run was not traced (schema
        version 2).
        """
        data = dataclasses.asdict(self)
        if not data["faults"]:
            del data["faults"]
        if data["trace"] is None:
            del data["trace"]
        return data

    def to_json(self) -> str:
        """One compact JSON line (no embedded newlines)."""
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        """Rebuild a record from its dictionary form.

        Accepts every schema version in
        :data:`SUPPORTED_SCHEMA_VERSIONS` (older records simply lack
        the newer optional keys); refuses records written by a *newer*
        schema rather than silently dropping fields it cannot know
        about.
        """
        version = data.get("schema_version", SCHEMA_VERSION)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            supported = ", ".join(str(v) for v in sorted(SUPPORTED_SCHEMA_VERSIONS))
            raise ValueError(
                f"unsupported RunRecord schema version {version!r} "
                f"(supported: {supported})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        """Rebuild a record from one JSONL line."""
        return cls.from_dict(json.loads(line))
