"""Tests for the experiment harness (profiles, runner, tables, figures)."""

import pytest

from repro.core.query import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.config import PROFILES, get_profile
from repro.experiments.figures import FigureData, figure6, figure8, figure14
from repro.experiments.parallel import Cell, ExperimentEngine, GraphSpec, WorkUnit
from repro.experiments.queries import QuerySpec
from repro.experiments.tables import table2, table3, table4
from repro.graphs.datasets import build_graph
from repro.obs.sink import MemorySink

SMOKE = get_profile("smoke")


@pytest.fixture
def engine():
    with ExperimentEngine() as engine:
        yield engine


def _btc_g2_cell(query, profile, sink=None):
    """One BTC cell on G2 through the engine's repetition protocol."""
    with ExperimentEngine(sink=sink) as engine:
        (averaged,) = engine.run_cells([Cell("btc", "G2", query, SystemConfig())], profile)
    return averaged


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"paper", "default", "smoke"}
        assert get_profile("paper").scale == 1

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError):
            get_profile("huge")

    def test_scaled_selectivity_floors_at_one(self):
        smoke = get_profile("smoke")
        assert smoke.scaled_selectivity(2) == 1
        assert smoke.scaled_selectivity(2000) == 250

    def test_build_respects_scale(self):
        graph = GraphSpec.for_profile("G1", SMOKE, 0).build()
        assert graph.num_nodes == 250


class TestQuerySpec:
    def test_full_spec(self):
        graph = build_graph("G1", scale=8)
        assert QuerySpec.full().materialise(graph).is_full

    def test_selection_spec_draws_sources(self):
        graph = build_graph("G1", scale=8)
        query = QuerySpec.selection(5).materialise(graph, sample_index=0)
        assert query.selectivity == 5

    def test_samples_differ_by_index(self):
        graph = build_graph("G1", scale=8)
        spec = QuerySpec.selection(5)
        a = spec.materialise(graph, sample_index=0)
        b = spec.materialise(graph, sample_index=1)
        assert a.sources != b.sources


class TestRunner:
    def test_single_unit_returns_a_result(self):
        unit = WorkUnit(cell_index=0, algorithm="btc", graph=GraphSpec(family="G2", scale=8),
                        query=QuerySpec.selection(3), system=SystemConfig())
        with ExperimentEngine() as engine:
            (outcome,) = engine.map_units([unit])
        result = outcome.result
        assert result.algorithm == "btc"
        assert result.metrics.total_io > 0

    def test_run_cells_averages(self):
        smoke = get_profile("smoke")
        averaged = _btc_g2_cell(QuerySpec.selection(3), smoke)
        assert averaged.runs == smoke.graphs_per_family * smoke.source_samples
        assert averaged.total_io > 0

    def test_full_query_skips_source_sampling(self):
        smoke = get_profile("smoke")
        averaged = _btc_g2_cell(QuerySpec.full(), smoke)
        assert averaged.runs == smoke.graphs_per_family


class TestRunRecordEmission:
    """The repetition protocol emits exactly one record per run."""

    def test_ptc_cell_emits_graphs_times_samples(self):
        default = get_profile("default")
        sink = MemorySink()
        _btc_g2_cell(QuerySpec.selection(3), default, sink=sink)
        assert len(sink.records) == default.graphs_per_family * default.source_samples
        assert {r.algorithm for r in sink.records} == {"btc"}
        # All repetitions of one cell share one workload/query identity.
        assert len({r.cell_key() for r in sink.records}) == 1

    def test_full_closure_cell_emits_one_per_graph(self):
        default = get_profile("default")
        sink = MemorySink()
        _btc_g2_cell(QuerySpec.full(), default, sink=sink)
        assert len(sink.records) == default.graphs_per_family * 1

    def test_no_sink_means_no_records(self):
        averaged = _btc_g2_cell(QuerySpec.selection(3), SMOKE)
        assert averaged.runs == 1  # runs fine with zero telemetry attached

    def test_averaged_metrics_match_hand_computed_means(self):
        default = get_profile("default")
        sink = MemorySink()
        averaged = _btc_g2_cell(QuerySpec.selection(3), default, sink=sink)
        ios = [r.total_io for r in sink.records]
        assert averaged.total_io == pytest.approx(sum(ios) / len(ios))
        generated = [r.metrics["tuples_generated"] for r in sink.records]
        assert averaged.tuples_generated == pytest.approx(sum(generated) / len(generated))
        hit_ratios = [r.metrics["io"]["compute_hit_ratio"] for r in sink.records]
        assert averaged.hit_ratio == pytest.approx(
            sum(hit_ratios) / len(hit_ratios), abs=1e-4
        )


class TestTables:
    def test_table2_covers_all_families(self, engine):
        rows = table2(SMOKE, engine)
        assert [row["graph"] for row in rows] == [f"G{i}" for i in range(1, 13)]
        for row in rows:
            assert row["arcs"] > 0
            assert row["H"] >= 1

    def test_table2_trends_match_the_paper(self, engine):
        """Higher F / lower l gives deeper graphs; irredundant arc
        locality is no worse than overall locality (Section 5.3)."""
        rows = {row["graph"]: row for row in table2(SMOKE, engine)}
        assert rows["G12"]["H"] > rows["G3"]["H"]
        for row in rows.values():
            assert row["avg_irred_loc"] <= row["avg_loc"]

    def test_table3_shows_io_bound_execution(self, engine):
        rows = table3(SMOKE, engine)
        assert [row["M"] for row in rows] == [10, 20, 50]
        assert all(row["io_bound"] for row in rows)
        assert rows[0]["page_io"] >= rows[-1]["page_io"]

    def test_table4_is_sorted_by_width(self, engine):
        rows = table4(SMOKE, engine, selectivities=(5,))
        widths = [row["W"] for row in rows]
        assert widths == sorted(widths)
        assert all(row["jkb2/btc@s=5"] > 0 for row in rows)


class TestFigures:
    def test_figure6_has_all_curves(self, engine):
        data = figure6(SMOKE, engine, buffer_sizes=(10, 20))
        assert isinstance(data, FigureData)
        assert set(data.series) == {"BTC", "HYB-0", "HYB-0.1", "HYB-0.2", "HYB-0.3"}
        assert data.xs == [10, 20]

    def test_figure6_hyb0_equals_btc(self, engine):
        data = figure6(SMOKE, engine, buffer_sizes=(10,))
        assert data.series["HYB-0"] == data.series["BTC"]

    def test_figure8_panels(self, engine):
        panels = figure8(SMOKE, engine, selectivities=(2, 20))
        assert set(panels) == {"a", "b"}
        for panel in panels.values():
            assert set(panel.series) == {"BTC", "BJ", "JKB2", "SRCH"}
            assert len(panel.xs) == 2

    def test_figure14_converges_at_full_selectivity(self, engine):
        """At s = n the BTC and BJ curves coincide (Section 6.3.6)."""
        panels = figure14(SMOKE, engine, selectivities=(2000,))
        io = panels["a"].series
        assert io["BTC"][-1] == io["BJ"][-1]

    def test_render_produces_text(self, engine):
        data = figure6(SMOKE, engine, buffer_sizes=(10,))
        text = data.render()
        assert "BTC" in text
        assert "M" in text
