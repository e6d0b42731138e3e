"""Engine parity: the seam must not move a single counter.

Two guarantees are pinned here:

1. **Paged golden parity.**  The ``paged`` engine's counters on the
   figure6 smoke cell (G9 at smoke scale, BTC and HYB across buffer
   sizes and ILIMITs) are bit-identical to the goldens captured from
   the pre-seam implementation (``tests/goldens/``).  Any drift in
   page I/O, union counts, duplicates, locality sums or reblocking
   events fails loudly with the exact counter that moved.

2. **Fast-engine answer parity.**  The ``fast`` engine produces the
   same closures and the same *tuple-level* counters (unions, tuples
   generated, duplicates) as ``paged`` on the same cells, while its
   page-I/O counters stay at zero -- it drops the cost simulation,
   never the computation.

The goldens were generated by running the figure6 smoke cells on the
pre-refactor substrate; regenerate them only when the paper-model
cost accounting itself is deliberately changed.
"""

import json
from pathlib import Path

import pytest

from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.errors import EngineCapabilityError
from repro.graphs.datasets import build_graph
from repro.obs.record import io_stats_dict, system_config_dict
from repro.storage.engine import make_engine
from repro.storage.fast import FastEngine
from repro.storage.paged import PagedEngine

GOLDEN_DIR = Path(__file__).parent / "goldens"

with open(GOLDEN_DIR / "figure6_smoke_counters.json") as _fh:
    _GOLDEN = json.load(_fh)

_WORKLOAD = _GOLDEN["workload"]
_CELLS = _GOLDEN["cells"]


def _graph():
    return build_graph(
        _WORKLOAD["family"], seed=_WORKLOAD["seed"], scale=_WORKLOAD["scale"]
    )


def _parse_key(key: str):
    name, m_part, ilimit_part = key.split(":")
    return name, int(m_part.split("=")[1]), float(ilimit_part.split("=")[1])


def _run_cell(key: str, engine: str):
    name, buffer_pages, ilimit = _parse_key(key)
    system = SystemConfig(buffer_pages=buffer_pages, ilimit=ilimit, engine=engine)
    return make_algorithm(name).run(_graph(), Query.full(), system)


def _counters(result) -> dict:
    m = result.metrics
    return {
        "io": io_stats_dict(m.io),
        "tuples_generated": m.tuples_generated,
        "duplicates": m.duplicates,
        "distinct_tuples": m.distinct_tuples,
        "output_tuples": m.output_tuples,
        "tuple_io": m.tuple_io,
        "list_unions": m.list_unions,
        "list_reads": m.list_reads,
        "arcs_considered": m.arcs_considered,
        "arcs_marked": m.arcs_marked,
        "unmarked_locality_total": m.unmarked_locality_total,
        "reblocking_events": m.reblocking_events,
        "answer_tuples": result.num_tuples,
    }


class TestPagedGoldenParity:
    @pytest.mark.parametrize("key", sorted(_CELLS))
    def test_counters_bit_identical_to_pre_seam_goldens(self, key):
        result = _run_cell(key, engine="paged")
        actual = _counters(result)
        expected = _CELLS[key]
        assert actual == expected, (
            f"cell {key}: post-seam paged counters diverge from golden; "
            f"changed fields: "
            f"{[k for k in expected if actual.get(k) != expected[k]]}"
        )


class TestFastEngineParity:
    # One cell per buffer size is enough: the fast engine ignores the
    # pool entirely, so more paged configurations add nothing.
    KEYS = [
        "btc:M=10:ilimit=0.2",
        "hyb:M=20:ilimit=0.2",
        "hyb:M=50:ilimit=0",
        "chains:M=20:ilimit=0.2",
    ]

    @pytest.mark.parametrize("key", KEYS)
    def test_same_closure_zero_page_io(self, key):
        paged = _run_cell(key, engine="paged")
        fast = _run_cell(key, engine="fast")
        assert fast.successor_bits == paged.successor_bits
        assert fast.num_tuples == _CELLS[key]["answer_tuples"]
        io = fast.metrics.io
        assert io.total_requests == 0
        assert io.total_reads == 0 and io.total_writes == 0

    # BTC and CHAINS both expand in strict reverse topological order
    # under either engine, so even the union/duplicate bookkeeping is
    # equal -- the fast engine only drops the page-cost simulation.
    @pytest.mark.parametrize(
        "key", ["btc:M=20:ilimit=0.2", "chains:M=20:ilimit=0.2"]
    )
    def test_tuple_counters_match_on_strict_order_algorithms(self, key):
        paged = _run_cell(key, engine="paged")
        fast = _run_cell(key, engine="fast")
        for field in ("list_unions", "list_reads", "tuples_generated",
                      "duplicates", "distinct_tuples", "output_tuples",
                      "tuple_io", "arcs_considered"):
            assert getattr(fast.metrics, field) == getattr(paged.metrics, field), field


class TestChainsJobsParity:
    def test_chains_cells_identical_across_jobs_and_engines(self):
        """The chains family through the experiment engine: ``--jobs 4``
        must reproduce the serial averages exactly, the fast engine must
        report zero page I/O, and the paged engine's counters must not
        depend on the worker that executed the unit."""
        from repro.experiments.config import get_profile
        from repro.experiments.parallel import Cell, ExperimentEngine
        from repro.experiments.queries import QuerySpec

        smoke = get_profile("smoke")
        cells = [
            Cell("chains", "G2", QuerySpec.full(),
                 SystemConfig(buffer_pages=10)),
            Cell("chains", "G2", QuerySpec.selection(3),
                 SystemConfig(buffer_pages=10)),
            Cell("chains", "G2", QuerySpec.full(),
                 SystemConfig(buffer_pages=10, engine="fast")),
        ]
        serial = ExperimentEngine(jobs=1).run_cells(cells, smoke)
        with ExperimentEngine(jobs=4) as engine:
            parallel = engine.run_cells(cells, smoke)
            assert not engine.failures
        assert serial == parallel
        assert parallel[0].total_io > 0
        assert parallel[2].total_io == 0
        assert parallel[2].answer_tuples == parallel[0].answer_tuples


class TestEngineSeamBehaviour:
    def test_paged_engine_advertises_cost_capabilities(self):
        system = SystemConfig(buffer_pages=10)
        from repro.metrics.counters import MetricSet

        engine = make_engine(system, _graph(), metrics=MetricSet())
        assert isinstance(engine, PagedEngine)
        assert engine.paged is True

    def test_fast_engine_reports_missing_capabilities(self):
        from repro.metrics.counters import MetricSet

        system = SystemConfig(buffer_pages=10, engine="fast")
        engine = make_engine(system, _graph(), metrics=MetricSet())
        assert isinstance(engine, FastEngine)
        assert engine.paged is False

    def test_fast_engine_refuses_an_explicit_audit(self, monkeypatch):
        system = SystemConfig(engine="fast")
        monkeypatch.setenv("REPRO_AUDIT", "cheap")
        with pytest.raises(EngineCapabilityError, match="'audit'") as excinfo:
            make_algorithm("btc").run(_graph(), Query.full(), system)
        assert "'fast'" in str(excinfo.value)
        monkeypatch.setenv("REPRO_AUDIT", "off")
        result = make_algorithm("btc").run(_graph(), Query.full(), system)
        assert result.metrics.total_io == 0

    def test_paged_default_is_omitted_from_records(self):
        # RunRecords (and sweep-journal cell keys) written with the
        # default engine must stay byte-identical to pre-seam files.
        assert "engine" not in system_config_dict(SystemConfig())
        assert system_config_dict(SystemConfig(engine="fast"))["engine"] == "fast"
