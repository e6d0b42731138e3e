"""Tests for the observability subsystem (spans, records, sinks, compare)."""

import json

import pytest

import repro
from repro.core.query import Query, SystemConfig
from repro.core.registry import ALGORITHM_NAMES, make_algorithm
from repro.obs.bench import build_bench_summary
from repro.obs.compare import compare_runs, load_records
from repro.obs.record import RunRecord, io_stats_dict, summarise_trace
from repro.obs.sink import JsonlSink, MemorySink
from repro.obs.spans import NULL_SPAN, SpanRecorder, span
from repro.obs.tracing import TraceCollector


class TestSpans:
    def test_nesting_builds_paths(self):
        recorder = SpanRecorder()
        with recorder.span("run"):
            with recorder.span("restructure"):
                pass
            with recorder.span("compute"):
                with recorder.span("pool.read"):
                    pass
        paths = {stats.path for stats in recorder.stats()}
        assert paths == {"run", "run/restructure", "run/compute", "run/compute/pool.read"}

    def test_same_path_aggregates(self):
        recorder = SpanRecorder()
        for _ in range(5):
            with recorder.span("tick"):
                pass
        stats = recorder.get("tick")
        assert stats.count == 5
        assert stats.total_seconds >= stats.max_seconds >= stats.min_seconds >= 0

    def test_module_level_span_with_none_is_noop(self):
        assert span("x", None) is NULL_SPAN
        with span("anything", None):
            pass  # must not raise and must not allocate a recorder

    def test_exception_still_recorded_and_propagates(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("x")
        assert recorder.get("boom").count == 1

    def test_as_dict_shape(self):
        recorder = SpanRecorder()
        with recorder.span("a"):
            pass
        payload = recorder.as_dict()["a"]
        assert set(payload) == {"count", "total_seconds", "min_seconds", "max_seconds"}
        json.dumps(payload)  # JSON-safe


@pytest.fixture
def instrumented_run(small_dag):
    recorder = SpanRecorder()
    collector = TraceCollector()
    result = make_algorithm("btc").run(
        small_dag,
        Query.ptc([0, 1, 2]),
        SystemConfig(buffer_pages=10),
        recorder=recorder,
        collector=collector,
    )
    return result, recorder, collector


class TestRunRecord:
    def test_from_result_captures_everything(self, instrumented_run):
        result, recorder, collector = instrumented_run
        record = RunRecord.from_result(
            result, workload={"name": "small_dag"}, recorder=recorder, collector=collector
        )
        assert record.algorithm == "btc"
        assert record.query == {"kind": "ptc", "selectivity": 3}
        assert record.system["buffer_pages"] == 10
        assert record.metrics["total_io"] == result.metrics.total_io
        io = record.metrics["io"]
        assert set(io["reads_by_phase"]) == {"restructure", "compute", "writeout"}
        assert io["total_io"] == result.metrics.total_io
        assert "run/restructure" in record.spans
        assert record.trace["requests"] > 0
        assert record.wall_seconds > 0  # taken from the "run" span

    def test_json_roundtrip(self, instrumented_run):
        result, recorder, _ = instrumented_run
        record = RunRecord.from_result(result, workload={"n": 60}, recorder=recorder)
        line = record.to_json()
        assert "\n" not in line
        back = RunRecord.from_json(line)
        assert back == record

    def test_cell_key_groups_repetitions(self, small_dag):
        results = [
            make_algorithm("btc").run(small_dag, Query.ptc([i]))
            for i in range(2)
        ]
        keys = {
            RunRecord.from_result(r, workload={"family": "X"}).cell_key()
            for r in results
        }
        assert len(keys) == 1  # same algorithm, workload, query shape and config

    def test_cell_key_separates_system_configs(self, small_dag):
        keys = {
            RunRecord.from_result(
                make_algorithm("btc").run(
                    small_dag, Query.full(), SystemConfig(buffer_pages=pages)
                ),
                workload={"family": "X"},
            ).cell_key()
            for pages in (10, 50)
        }
        assert len(keys) == 2  # a buffer-size sweep is two cells, not one

    def test_io_stats_dict_kind_breakdown(self, instrumented_run):
        result, _, _ = instrumented_run
        payload = io_stats_dict(result.metrics.io)
        assert payload["total_reads"] == sum(payload["reads_by_phase"].values())
        assert payload["total_reads"] == sum(payload["reads_by_kind"].values())


class TestTraceSummary:
    def test_summary_fields(self, instrumented_run):
        _, _, collector = instrumented_run
        summary = summarise_trace(collector, buckets=5, top_k=3)
        assert summary["requests"] > 0
        assert "dropped" not in summary
        assert 1 <= len(summary["hit_ratio_timeline"]) <= 5
        assert all(0.0 <= r <= 1.0 for r in summary["hit_ratio_timeline"])
        assert sum(summary["kind_histogram"].values()) == summary["requests"]
        assert len(summary["hot_pages"]) <= 3
        assert summary["hot_pages"][0]["requests"] >= summary["hot_pages"][-1]["requests"]

    def test_empty_trace(self):
        summary = summarise_trace(TraceCollector())
        assert summary["events"] == 0
        assert summary["requests"] == 0
        assert summary["hit_ratio_timeline"] == []
        assert summary["hot_pages"] == []


class TestSinks:
    def test_jsonl_sink_appends_lines(self, tmp_path, instrumented_run):
        result, recorder, _ = instrumented_run
        record = RunRecord.from_result(result, recorder=recorder)
        path = tmp_path / "runs.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(record)
            sink.emit(record)
        assert path.read_text().splitlines() == [record.to_json()] * 2
        loaded = load_records(path)
        assert len(loaded) == 2
        assert loaded[0].algorithm == "btc"

    def test_memory_and_null_sinks(self):
        memory = MemorySink()
        memory.emit(RunRecord(algorithm="btc"))
        assert len(memory) == 1


def _record(algorithm="btc", family="G1", query=None, total_io=100.0, cpu=1.0):
    return RunRecord(
        algorithm=algorithm,
        workload={"family": family},
        query=query or {"kind": "full", "selectivity": None},
        metrics={"total_io": total_io, "cpu_seconds": cpu},
    )


class TestCompare:
    def test_no_regression(self):
        report = compare_runs([_record()], [_record(total_io=100.0)])
        assert report.ok
        assert len(report.deltas) == 2  # total_io and cpu_seconds

    def test_regression_beyond_threshold(self):
        report = compare_runs([_record()], [_record(total_io=120.0)], threshold=0.05)
        assert not report.ok
        (regression,) = report.regressions
        assert regression.metric == "total_io"
        assert regression.ratio == pytest.approx(0.2)

    def test_growth_within_threshold_passes(self):
        report = compare_runs([_record()], [_record(total_io=104.0)], threshold=0.05)
        assert report.ok

    def test_cpu_gate_off_by_default(self):
        report = compare_runs([_record()], [_record(cpu=100.0)])
        assert report.ok

    def test_cpu_gate_opt_in(self):
        report = compare_runs(
            [_record()], [_record(cpu=100.0)], cpu_threshold=0.5
        )
        assert not report.ok

    def test_repetitions_average_within_cell(self):
        baseline = [_record(total_io=90.0), _record(total_io=110.0)]  # mean 100
        candidate = [_record(total_io=102.0), _record(total_io=104.0)]  # mean 103
        report = compare_runs(baseline, candidate, threshold=0.05)
        assert report.ok
        io_delta = next(d for d in report.deltas if d.metric == "total_io")
        assert io_delta.baseline == pytest.approx(100.0)
        assert io_delta.candidate == pytest.approx(103.0)

    def test_disjoint_cells_reported(self):
        report = compare_runs([_record(family="G1")], [_record(family="G2")])
        assert report.deltas == []
        assert len(report.missing_in_candidate) == 1
        assert len(report.new_in_candidate) == 1
        assert "(no overlapping cells" in report.render()

    def test_zero_baseline_regresses_on_any_io(self):
        report = compare_runs([_record(total_io=0.0)], [_record(total_io=1.0)])
        assert not report.ok

    def test_render_marks_regressions(self):
        report = compare_runs([_record()], [_record(total_io=200.0)])
        assert "REGRESSED" in report.render()

    def test_load_rejects_mid_file_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n" + _record().to_json() + "\n")
        with pytest.raises(ValueError):
            load_records(path)

    def test_load_tolerates_truncated_final_line(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        whole = _record().to_json()
        path.write_text(whole + "\n" + whole[: len(whole) // 2])
        records = load_records(path)
        assert len(records) == 1
        assert "truncated final" in capsys.readouterr().err


class TestBenchSummary:
    def test_one_entry_per_cell(self):
        records = [
            _record(algorithm="btc", family="G1", total_io=90.0),
            _record(algorithm="btc", family="G1", total_io=110.0),
            _record(algorithm="hyb", family="G1", total_io=80.0),
            _record(
                algorithm="btc",
                family="G1",
                query={"kind": "ptc", "selectivity": 5},
                total_io=10.0,
            ),
        ]
        summary = build_bench_summary(records)
        assert len(summary) == 3
        full_btc = next(
            e for e in summary if e["algorithm"] == "btc" and e["query"] == "full"
        )
        assert full_btc["runs"] == 2
        assert full_btc["total_io"] == pytest.approx(100.0)
        assert {"algorithm", "family", "query", "total_io", "wall_seconds"} <= set(
            summary[0]
        )
        json.dumps(summary)  # JSON-safe


class TestZeroOverheadGuard:
    """Instrumentation must never change the simulator's cost model."""

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_counters_identical_with_and_without_instrumentation(self, name, small_dag):
        query = Query.full() if name != "srch" else Query.ptc([0, 1])
        system = SystemConfig(buffer_pages=10)
        plain = make_algorithm(name).run(small_dag, query, system)
        instrumented = make_algorithm(name).run(
            small_dag, query, system, recorder=SpanRecorder(), collector=TraceCollector()
        )

        def counters(result):
            summary = result.metrics.summary()
            # CPU and the I/O-time estimate derived from wall measurements
            # are the only legitimately non-deterministic entries.
            summary.pop("cpu_seconds")
            return summary

        assert counters(plain) == counters(instrumented)
        assert plain.metrics.io.reads == instrumented.metrics.io.reads
        assert plain.metrics.io.writes == instrumented.metrics.io.writes
        assert plain.successor_bits == instrumented.successor_bits

    def test_package_exports(self):
        assert repro.__version__ == "1.1.0"
        for name in ("RunRecord", "span", "SpanRecorder", "JsonlSink", "compare_runs"):
            assert hasattr(repro, name)
