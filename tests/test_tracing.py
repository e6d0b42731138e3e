"""Engine event tracing, Chrome export, reports, and the noise gate.

The trace goldens pin the *event stream* of BTC and Hybrid on the
figure-6 smoke workload (the same graph the counter goldens use): the
per-event-name counts plus the first and last event identities.  A
drifting golden means the storage emit sites changed behaviour -- the
same contract the counter goldens enforce, one layer deeper.  The
profile golden pins the run profile folded from those events for BTC,
Hybrid and JKB2.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.errors import EngineCapabilityError
from repro.graphs.datasets import build_graph
from repro.obs.bench import build_bench_summary, set_bench_reps
from repro.obs.compare import MetricGate, compare_runs
from repro.obs.heatmap import page_heatmap, residency_timeline
from repro.obs.record import SUPPORTED_SCHEMA_VERSIONS, RunRecord, summarise_trace
from repro.obs.sink import JsonlSink, MemorySink, set_global_sink
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import (
    EVENT_NAMES,
    TraceCollector,
    chrome_trace,
    events_from_chrome,
    validate_chrome_trace,
)
from repro.storage.engine import make_engine

GOLDEN = json.loads(
    (Path(__file__).parent / "goldens" / "trace_events.json").read_text()
)
PROFILE_GOLDEN = json.loads(
    (Path(__file__).parent / "goldens" / "trace_profile.json").read_text()
)

SYSTEM = SystemConfig(buffer_pages=10)


def _graph():
    spec = GOLDEN["workload"]
    return build_graph(spec["family"], seed=spec["seed"], scale=spec["scale"])


def _traced_run(name, graph):
    collector = TraceCollector(label=name)
    recorder = SpanRecorder(collector=collector)
    result = make_algorithm(name).run(
        graph, Query.full(), SYSTEM, recorder=recorder, collector=collector
    )
    return result, collector


class TestTraceGoldens:
    @pytest.mark.parametrize("name", ["btc", "hyb"])
    def test_event_stream_matches_golden(self, name):
        golden = GOLDEN["algorithms"][name]
        _, collector = _traced_run(name, _graph())
        events = collector.events
        assert collector.dropped == 0
        assert len(events) == golden["total_events"]
        assert dict(collector.counts()) == golden["counts"]
        assert list(events[0].identity()) == golden["first"]
        assert list(events[-1].identity()) == golden["last"]

    def test_all_emitted_names_are_vocabulary(self):
        _, collector = _traced_run("hyb", _graph())
        assert {e.name for e in collector.events} <= EVENT_NAMES

    @pytest.mark.parametrize("name", ["btc", "hyb", "jkb2"])
    def test_run_profile_matches_golden(self, name):
        assert PROFILE_GOLDEN["workload"] == GOLDEN["workload"]
        _, collector = _traced_run(name, _graph())
        profile = summarise_trace(collector)
        golden = PROFILE_GOLDEN["algorithms"][name]
        assert json.dumps(profile, indent=2, sort_keys=True) == json.dumps(
            golden, indent=2, sort_keys=True
        )


class TestZeroOverheadContract:
    def test_counters_byte_identical_with_tracing_on_and_off(self):
        graph = _graph()

        def counters(collector):
            result = make_algorithm("btc").run(
                graph, Query.full(), SYSTEM, collector=collector
            )
            record = RunRecord.from_result(result, workload={"w": 1}).to_dict()
            # Timings are measured, everything else is simulated.
            record["metrics"].pop("cpu_seconds")
            record["metrics"].pop("restructure_cpu_seconds")
            record.pop("wall_seconds")
            record.pop("schema_version")
            return record

        off = counters(None)
        on = counters(TraceCollector())
        assert json.dumps(off, sort_keys=True) == json.dumps(on, sort_keys=True)

    def test_fast_engine_refuses_a_collector(self):
        from repro.metrics.counters import MetricSet

        with pytest.raises(EngineCapabilityError, match="trace"):
            make_engine(SystemConfig(engine="fast"), _graph(),
                        metrics=MetricSet(), collector=TraceCollector())

    def test_cli_trace_out_on_fast_engine_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["--algorithm", "btc", "--nodes", "60", "--engine", "fast",
                     "--trace-out", str(out), "--quiet"]) == 1
        assert "EngineCapabilityError" in capsys.readouterr().err
        assert not out.exists()


class TestCollector:
    def test_ring_buffer_drops_oldest(self):
        collector = TraceCollector(capacity=3)
        for page in range(5):
            collector.emit("page.hit", "relation", page)
        assert len(collector) == 3
        assert collector.dropped == 2
        assert [e.page for e in collector.events] == [2, 3, 4]

    def test_phase_travels_with_events(self):
        collector = TraceCollector()
        collector.emit("page.hit", "relation", 1)
        collector.phase = "compute"
        collector.emit("page.hit", "relation", 2)
        phases = [e.phase for e in collector.events]
        assert phases == ["", "compute"]


class TestRingOverflow:
    def test_profile_counts_dropped_events(self):
        _, full = _traced_run("btc", _graph())
        collector = TraceCollector(capacity=500)
        make_algorithm("btc").run(_graph(), Query.full(), SYSTEM, collector=collector)
        profile = summarise_trace(collector)
        assert collector.dropped > 0
        assert profile["dropped"] == collector.dropped
        # The fold covers the ring's tail only.
        assert 0 < profile["requests"] < summarise_trace(full)["requests"]
        assert "dropped" not in summarise_trace(full)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trace_out_warns_per_algorithm_that_dropped(self, jobs, tmp_path, capsys,
                                                        monkeypatch):
        small = functools.partial(TraceCollector, capacity=200)
        monkeypatch.setattr("repro.cli.TraceCollector", small)
        monkeypatch.setattr("repro.experiments.parallel.TraceCollector", small)
        # Run the --jobs units in this process, so they get the small ring too.
        monkeypatch.setattr("repro.experiments.parallel.ExperimentEngine.parallel",
                            property(lambda self: False))
        out = tmp_path / "t.json"
        assert main(["--algorithm", "btc", "--nodes", "60", "--jobs", jobs,
                     "--trace-out", str(out), "--quiet"]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: btc: ") and "dropped" in warnings[0]


class TestChromeExport:
    def _sections(self):
        collector = TraceCollector(label="demo")
        collector.span_begin("run")
        collector.emit("page.fetch", "relation", 3, detail="x")
        collector.phase = "compute"
        collector.emit("delta.spool", "delta", 7, detail="pages=1 tuples=2")
        collector.span_end("run")
        return [("demo", collector.events)]

    def test_trace_is_valid_and_roundtrips(self):
        sections = self._sections()
        payload = chrome_trace(sections)
        assert validate_chrome_trace(payload) == []
        restored = events_from_chrome(payload)
        assert [(label, [e.identity() for e in events])
                for label, events in restored] == \
               [(label, [e.identity() for e in events])
                for label, events in sections]

    def test_validator_catches_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
        unbalanced = {"traceEvents": [
            {"name": "run", "ph": "B", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("never closed" in p for p in validate_chrome_trace(unbalanced))

    def test_cli_serial_and_parallel_traces_match(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        base = ["--algorithm", "all", "--nodes", "60", "-M", "10", "--quiet"]
        assert main([*base, "--trace-out", str(serial)]) == 0
        assert main([*base, "--trace-out", str(parallel), "--jobs", "4"]) == 0

        def identities(path):
            sections = events_from_chrome(json.loads(path.read_text()))
            return [(label, [e.identity() for e in events])
                    for label, events in sections]

        assert identities(serial) == identities(parallel)

    def test_cli_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["--algorithm", "btc", "--nodes", "80",
                     "--trace-out", str(path), "--quiet"]) == 0
        assert "warning:" not in capsys.readouterr().err  # nothing dropped
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert main(["obs", "validate-trace", str(path)]) == 0

    def test_traced_seminaive_record_carries_a_profile(self, tmp_path):
        records, path = tmp_path / "out.jsonl", tmp_path / "trace.json"
        assert main(["--algorithm", "seminaive", "--nodes", "80", "--quiet",
                     "--emit-json", str(records), "--trace-out", str(path)]) == 0
        record = RunRecord.from_json(records.read_text().splitlines()[0])
        assert record.trace is not None
        assert record.trace["requests"] > 0
        assert sum(record.trace["kind_histogram"].values()) == record.trace["requests"]

    def test_obs_validate_trace_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert main(["obs", "validate-trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestHeatmapAggregation:
    def test_heatmap_conserves_touches(self):
        _, collector = _traced_run("btc", _graph())
        grid = page_heatmap(collector.events)
        assert grid["rows"]
        assert grid["touches"] == sum(
            sum(row["counts"]) for row in grid["rows"]
        )

    def test_residency_never_exceeds_pool_size(self):
        _, collector = _traced_run("btc", _graph())
        timeline = residency_timeline(collector.events)
        assert 0 < timeline["peak_resident"] <= SYSTEM.buffer_pages


class TestHtmlReport:
    def test_report_is_self_contained_with_three_panels(self, tmp_path, capsys):
        records, trace = tmp_path / "r.jsonl", tmp_path / "t.json"
        assert main(["--algorithm", "btc", "--nodes", "80", "--quiet",
                     "--emit-json", str(records), "--trace-out", str(trace)]) == 0
        out = tmp_path / "report.html"
        assert main(["obs", "report", "--records", str(records),
                     "--trace", str(trace), "--out", str(out)]) == 0
        html = out.read_text()
        assert html.count("class='panel'") >= 3
        assert "Phase waterfall" in html
        assert "Page heatmap" in html
        assert "BENCH trajectory" in html
        assert "Pool residency" in html
        # Self-contained: no external fetches of any kind.
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html

    def test_report_errors_exit_two(self, tmp_path, capsys):
        assert main(["obs", "report", "--records",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSchemaVersioning:
    def _record(self):
        result = make_algorithm("btc").run(
            build_graph("G9", seed=0, scale=8), Query.full(), SYSTEM
        )
        return RunRecord.from_result(result, workload={"family": "G9"})

    def test_trace_key_omitted_when_absent(self):
        data = self._record().to_dict()
        assert "trace" not in data
        assert data["schema_version"] == 2

    def test_v1_records_still_load(self):
        data = self._record().to_dict()
        data["schema_version"] = 1
        data["trace"] = None
        record = RunRecord.from_dict(data)
        assert record.algorithm == "btc"

    def test_unsupported_version_raises(self):
        data = self._record().to_dict()
        data["schema_version"] = max(SUPPORTED_SCHEMA_VERSIONS) + 1
        with pytest.raises(ValueError, match="schema version"):
            RunRecord.from_dict(data)


class TestBatchedSink:
    def test_flush_every_batches_but_loses_nothing_on_close(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path, enabled=True, flush_every=3)
        record = self._record()
        for _ in range(5):
            sink.emit(record)
        sink.close()
        assert len(path.read_text().splitlines()) == 5

    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlSink(tmp_path / "x.jsonl", enabled=True, flush_every=0)

    def _record(self):
        result = make_algorithm("btc").run(
            build_graph("G9", seed=0, scale=16), Query.full(), SYSTEM
        )
        return RunRecord.from_result(result, workload={"family": "G9"})


class TestRepsAndNoiseGate:
    def _records(self, reps):
        sink = MemorySink()
        previous_sink = set_global_sink(sink)
        previous_reps = set_bench_reps(reps)
        try:
            from repro.experiments.queries import QuerySpec
            from repro.experiments.runner import run_single

            run_single("btc", build_graph("G9", seed=0, scale=8),
                       QuerySpec.full(), SYSTEM,
                       workload={"family": "G9", "scale": 8})
        finally:
            set_bench_reps(previous_reps)
            set_global_sink(previous_sink)
        return sink.records

    def test_reps_emit_one_record_each(self):
        records = self._records(3)
        assert len(records) == 3
        assert len({r.total_io for r in records}) == 1  # deterministic

    def test_bench_summary_keeps_all_samples_min_of_n(self):
        records = self._records(3)
        (entry,) = build_bench_summary(records)
        assert entry["runs"] == 3
        assert len(entry["wall_samples"]) == 3
        assert entry["wall_seconds"] == min(entry["wall_samples"])

    def test_identical_reps_pass_the_gate_with_wall_gating(self):
        records = self._records(3)
        report = compare_runs(records, records, wall_threshold=0.05)
        assert report.ok
        metrics = {d.metric for d in report.deltas}
        assert metrics == {"total_io", "cpu_seconds", "wall_seconds"}

    def test_doubled_total_io_fails_the_exact_gate(self):
        baseline = self._records(3)
        candidate = [RunRecord.from_dict(r.to_dict()) for r in baseline]
        for record in candidate:
            record.metrics["total_io"] = 2 * record.metrics["total_io"]
        report = compare_runs(baseline, candidate, threshold=0.0)
        assert not report.ok
        assert [d.metric for d in report.regressions] == ["total_io"]

    def test_noise_band_absorbs_jitter_within_sigma(self):
        gate = MetricGate("wall_seconds", rel=0.05, absolute=0.005,
                          noise_sigma=3.0)
        # base mean 1.0, std 0.1 -> band 0.3 dominates the 5% rel.
        assert gate.allowance(1.0, 0.1) == pytest.approx(0.3)
        assert gate.allowance(1.0, 0.0) == pytest.approx(0.05)
        assert gate.allowance(0.0, 0.0) == pytest.approx(0.005)
