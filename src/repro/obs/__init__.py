"""Structured run telemetry: spans, run records, sinks, comparison.

The paper's methodological point is that performance claims need the
*right* measurements; this subpackage makes every run's measurements
durable.  See ``docs/OBSERVABILITY.md`` for the full guide.

* :mod:`repro.obs.spans` -- nested wall-clock span timers, aggregated
  by path, free when not attached;
* :mod:`repro.obs.record` -- :class:`RunRecord`, the JSON-serialisable
  description of one run (workload, config, metrics, per-phase I/O,
  spans, optional profile folded from a collector's page events);
* :mod:`repro.obs.sink` -- JSONL / memory / null sinks plus the
  ``REPRO_OBS`` environment toggle and a process-wide sink;
* :mod:`repro.obs.compare` -- the noise-aware baseline-vs-candidate
  regression gate behind ``python -m repro compare``;
* :mod:`repro.obs.tracing` -- the structured engine event trace
  (ring-buffered :class:`TraceCollector`, Chrome trace-event export);
* :mod:`repro.obs.heatmap` -- page-access / pool-residency aggregation
  over trace events;
* :mod:`repro.obs.report` -- the self-contained HTML dashboard behind
  ``python -m repro obs report``;
* :mod:`repro.obs.bench` -- per-cell benchmark summaries (min-of-N
  timings, ``--reps`` knob).

The storage layer imports :mod:`repro.obs.spans` and
:mod:`repro.obs.tracing` (which depend on nothing), while
:mod:`repro.obs.record` depends on the storage layer; to keep that
legal the package exports everything except the span API lazily
(PEP 562).
"""

from repro.obs.spans import NULL_SPAN, SpanRecorder, SpanStats, span

_LAZY = {
    "CellDelta": "repro.obs.compare",
    "ComparisonReport": "repro.obs.compare",
    "MetricGate": "repro.obs.compare",
    "compare_runs": "repro.obs.compare",
    "default_gates": "repro.obs.compare",
    "load_records": "repro.obs.compare",
    "RunRecord": "repro.obs.record",
    "summarise_trace": "repro.obs.record",
    "JsonlSink": "repro.obs.sink",
    "MemorySink": "repro.obs.sink",
    "NullSink": "repro.obs.sink",
    "RunSink": "repro.obs.sink",
    "get_global_sink": "repro.obs.sink",
    "obs_enabled": "repro.obs.sink",
    "set_global_sink": "repro.obs.sink",
    "TraceCollector": "repro.obs.tracing",
    "TraceEventRecord": "repro.obs.tracing",
    "chrome_trace": "repro.obs.tracing",
    "events_from_chrome": "repro.obs.tracing",
    "validate_chrome_trace": "repro.obs.tracing",
    "write_chrome_trace": "repro.obs.tracing",
    "page_heatmap": "repro.obs.heatmap",
    "residency_timeline": "repro.obs.heatmap",
    "build_report": "repro.obs.report",
    "render_report": "repro.obs.report",
    "build_bench_summary": "repro.obs.bench",
    "write_bench_summary": "repro.obs.bench",
    "set_bench_reps": "repro.obs.bench",
    "bench_reps": "repro.obs.bench",
}

__all__ = [
    "NULL_SPAN",
    "SpanRecorder",
    "SpanStats",
    "span",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
