"""Tests for the experiment engine.

The engine's contract: ``--jobs N`` produces bit-identical
:class:`AveragedMetrics` and the same :class:`RunRecord` payloads as
the in-process ``--jobs 1`` run (wall-clock/CPU-time fields excepted --
those are measured, not simulated, and differ even between two runs),
both equal a cell computed directly outside the engine, and at every
``--jobs`` a unit that raises or hangs yields a structured error while
the rest of the grid completes.
"""

import json
import math

import pytest

from repro.core.btc import BtcAlgorithm
from repro.core.query import SystemConfig
from repro.core.registry import make_algorithm
from repro.experiments.config import get_profile
from repro.experiments.parallel import (
    Cell,
    ExperimentEngine,
    GraphSpec,
    WorkUnit,
    execute_unit,
    failed_metrics,
)
from repro.experiments.queries import QuerySpec
from repro.experiments.run_all import main as run_all_main
from repro.experiments.runner import AveragedMetrics
from repro.graphs.datasets import PAPER_NUM_NODES, graph_family
from repro.obs.sink import MemorySink

SMOKE = get_profile("smoke")

CELLS = [
    Cell("btc", "G2", QuerySpec.selection(3), SystemConfig(buffer_pages=10)),
    Cell("bj", "G2", QuerySpec.selection(3), SystemConfig(buffer_pages=10)),
    Cell("jkb2", "G2", QuerySpec.selection(3), SystemConfig(buffer_pages=10)),
    Cell("btc", "G2", QuerySpec.full(), SystemConfig(buffer_pages=10)),
]

# Measured (not simulated) time fields: the only allowed divergence
# between a serial and a parallel run of the same unit.
WALL_CLOCK_METRIC_KEYS = ("cpu_seconds", "restructure_cpu_seconds")


def record_payload(record) -> str:
    """A record's JSON form with the wall-clock fields removed."""
    payload = record.to_dict()
    payload.pop("wall_seconds")
    for key in WALL_CLOCK_METRIC_KEYS:
        payload["metrics"].pop(key, None)
    return json.dumps(payload, sort_keys=True)


class TestParallelEqualsSerial:
    def test_jobs4_metrics_bit_identical_and_records_match(self):
        serial_sink, parallel_sink = MemorySink(), MemorySink()
        with ExperimentEngine(jobs=1, sink=serial_sink) as engine:
            serial = engine.run_cells(CELLS, SMOKE)
        with ExperimentEngine(jobs=4, sink=parallel_sink) as engine:
            parallel = engine.run_cells(CELLS, SMOKE)
            assert not engine.failures
        # Bit-identical averages: dataclass equality compares every
        # float exactly, no tolerance.
        assert serial == parallel
        # Same records, in the same canonical order, modulo wall clock.
        assert [record_payload(r) for r in serial_sink.records] == [
            record_payload(r) for r in parallel_sink.records
        ]

    def test_repeated_grid_replays_identically(self):
        """The cell memo returns the same metrics and re-emits records."""
        sink = MemorySink()
        with ExperimentEngine(jobs=2, sink=sink) as engine:
            first = engine.run_cells(CELLS, SMOKE)
            second = engine.run_cells(CELLS, SMOKE)
        assert first == second
        half = len(sink.records) // 2
        assert half > 0 and len(sink.records) == 2 * half
        assert [record_payload(r) for r in sink.records[:half]] == [
            record_payload(r) for r in sink.records[half:]
        ]

    def test_run_all_output_file_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        outputs = []
        for jobs, subdir in (("1", "serial"), ("2", "parallel")):
            cwd = tmp_path / subdir
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert run_all_main(
                ["--profile", "smoke", "--only", "figure11", "--jobs", jobs]
            ) == 0
            outputs.append((cwd / "experiments_output_smoke.txt").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestGraphSpec:
    def test_worker_graph_cache_reuses_the_graph(self):
        from repro.experiments import parallel as par

        par._GRAPH_CACHE.clear()
        spec = GraphSpec.for_profile("G2", SMOKE, seed=0)
        unit = WorkUnit(cell_index=0, algorithm="btc", graph=spec,
                        query=QuerySpec.selection(2), system=SystemConfig(buffer_pages=10))
        execute_unit(unit, timeout=None)
        cached = par._GRAPH_CACHE[spec]
        execute_unit(unit, timeout=None)
        assert par._GRAPH_CACHE[spec] is cached
        assert len(par._GRAPH_CACHE) == 1
        par._GRAPH_CACHE.clear()


class TestIndependentReference:
    """The engine against one PTC cell computed directly, outside it."""

    PROFILE = get_profile("default")  # 2 graphs x 2 source samples

    def _direct_cell(self):
        """BTC on G2 over the paper's protocol, run by hand: one result per
        (graph seed, source sample), the graphs generated without GraphSpec."""
        query = QuerySpec.selection(3)
        results = []
        for graph_seed in range(self.PROFILE.graphs_per_family):
            graph = graph_family("G2").generate(seed=graph_seed, num_nodes=PAPER_NUM_NODES,
                                                scale=self.PROFILE.scale)
            for sample_index in range(self.PROFILE.source_samples):
                results.append(make_algorithm("btc").run(
                    graph, query.materialise(graph, sample_index), SystemConfig()))
        return results

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_cells_equals_the_direct_cell(self, jobs, monkeypatch):
        reference = self._direct_cell()
        outcomes = []
        map_units = ExperimentEngine.map_units

        def spy(engine, units):
            result = map_units(engine, units)
            outcomes.extend(result)
            return result

        monkeypatch.setattr(ExperimentEngine, "map_units", spy)
        sink = MemorySink()
        with ExperimentEngine(jobs=jobs, sink=sink) as engine:
            (metrics,) = engine.run_cells(
                [Cell("btc", "G2", QuerySpec.selection(3), SystemConfig())],
                self.PROFILE)
        assert metrics == AveragedMetrics.from_results("btc", reference)
        assert metrics.runs == 4
        # Units in (graph seed, sample) order, drawing the same sources...
        assert [(o.graph_seed, o.sample_index) for o in outcomes] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        assert [o.result.query.sources for o in outcomes] == [
            r.query.sources for r in reference]
        # ...and their records emitted in that order.
        assert [r.total_io for r in sink.records] == [
            r.metrics.total_io for r in reference]


class TestFaultInjection:
    # Every fault test runs at both --jobs values: in-process and pooled.
    JOBS = (1, 2)

    def test_raising_unit_yields_structured_error_and_partial_results(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(BtcAlgorithm, "run", boom)
        # btc is broken; spn does not inherit from BtcAlgorithm.
        cells = [CELLS[0],
                 Cell("spn", "G2", QuerySpec.selection(3), SystemConfig(buffer_pages=10))]
        for jobs in self.JOBS:
            with ExperimentEngine(jobs=jobs) as engine:
                results = engine.run_cells(cells, SMOKE)
                failures = list(engine.failures)
            # The broken cell is marked, the healthy cell completed.
            assert results[0].runs == 0 and math.isnan(results[0].total_io)
            assert results[1].runs > 0 and results[1].total_io > 0
            assert failures
            error = failures[0]
            assert error.kind == "exception"
            assert "injected failure" in error.message
            assert error.attempts == 2  # one retry happened
            assert error.unit["algorithm"] == "btc"

    def test_hanging_unit_times_out(self, monkeypatch):
        import time as time_module

        def hang(self, *args, **kwargs):
            time_module.sleep(60)

        monkeypatch.setattr(BtcAlgorithm, "run", hang)
        for jobs in self.JOBS:
            with ExperimentEngine(jobs=jobs, timeout=0.5) as engine:
                results = engine.run_cells([CELLS[0]], SMOKE)
                failures = list(engine.failures)
            assert math.isnan(results[0].total_io)
            assert failures and failures[0].kind == "timeout"

    def test_run_all_exits_nonzero_on_failed_cells(self, tmp_path, monkeypatch, capsys):
        def boom(self, *args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(BtcAlgorithm, "run", boom)
        monkeypatch.chdir(tmp_path)
        for jobs in self.JOBS:
            code = run_all_main(["--profile", "smoke", "--only", "figure11",
                                 "--jobs", str(jobs), "--no-file"])
            captured = capsys.readouterr()
            assert code == 1
            assert "failed" in captured.err
            assert "injected failure" in captured.err
            assert "Traceback" not in captured.err
            # Partial results still rendered, with the failed cells marked.
            assert "Figure 11" in captured.out
            assert "nan" in captured.out
            assert "JKB2" in captured.out

    def test_failed_metrics_sentinel_is_all_nan(self):
        sentinel = failed_metrics("btc")
        assert sentinel.algorithm == "btc" and sentinel.runs == 0
        assert math.isnan(sentinel.total_io) and math.isnan(sentinel.hit_ratio)


class TestEngineValidation:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_map_units_preserves_submission_order(self):
        spec = GraphSpec.for_profile("G2", SMOKE, seed=0)
        units = [
            WorkUnit(cell_index=i, algorithm=name, graph=spec,
                     query=QuerySpec.selection(2), system=SystemConfig(buffer_pages=10))
            for i, name in enumerate(("bj", "btc", "spn"))
        ]
        with ExperimentEngine(jobs=3) as engine:
            outcomes = engine.map_units(units)
        assert [o.cell_index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)
        assert [o.result.algorithm for o in outcomes] == ["bj", "btc", "spn"]
