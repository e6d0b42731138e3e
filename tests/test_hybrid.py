"""Tests for the Hybrid algorithm (Section 3.2)."""

from repro.core.btc import BtcAlgorithm
from repro.core.hybrid import HybridAlgorithm
from repro.core.query import Query, SystemConfig
from repro.graphs.generator import generate_dag

from conftest import oracle_closure


class TestCorrectness:
    def test_full_closure_matches_oracle(self, medium_dag):
        result = HybridAlgorithm().run(medium_dag, system=SystemConfig(buffer_pages=10))
        oracle = oracle_closure(medium_dag)
        for node in medium_dag.nodes():
            assert set(result.successors_of(node)) == oracle[node]

    def test_selection_matches_oracle(self, medium_dag):
        sources = [3, 40, 90]
        result = HybridAlgorithm().run(
            medium_dag, Query.ptc(sources), SystemConfig(buffer_pages=10, ilimit=0.3)
        )
        oracle = oracle_closure(medium_dag)
        for source in sources:
            assert set(result.successors_of(source)) == oracle[source]

    def test_correct_under_every_ilimit(self, small_dag):
        oracle = oracle_closure(small_dag)
        for ilimit in (0.0, 0.1, 0.2, 0.3, 0.5, 1.0):
            result = HybridAlgorithm().run(
                small_dag, system=SystemConfig(buffer_pages=8, ilimit=ilimit)
            )
            for node in small_dag.nodes():
                assert set(result.successors_of(node)) == oracle[node], ilimit

    def test_correct_under_tiny_buffer(self, small_dag):
        oracle = oracle_closure(small_dag)
        result = HybridAlgorithm().run(
            small_dag, system=SystemConfig(buffer_pages=3, ilimit=0.3)
        )
        for node in small_dag.nodes():
            assert set(result.successors_of(node)) == oracle[node]


class TestBlockingBehaviour:
    def test_ilimit_zero_degenerates_to_btc(self, medium_dag):
        """HYB-0 is identical to BTC (Figure 6's legend)."""
        system = SystemConfig(buffer_pages=10, ilimit=0.0)
        hyb = HybridAlgorithm().run(medium_dag, system=system)
        btc = BtcAlgorithm().run(medium_dag, system=SystemConfig(buffer_pages=10))
        assert hyb.metrics.total_io == btc.metrics.total_io
        assert hyb.metrics.list_unions == btc.metrics.list_unions
        assert hyb.metrics.arcs_marked == btc.metrics.arcs_marked

    def test_blocking_misses_marking_opportunities(self):
        """Off-diagonal-first processing expands redundant arcs: HYB
        with blocking marks no more arcs than BTC (Section 6.2)."""
        graph = generate_dag(300, 5, 60, seed=9)
        btc = BtcAlgorithm().run(graph, system=SystemConfig(buffer_pages=10))
        hyb = HybridAlgorithm().run(
            graph, system=SystemConfig(buffer_pages=10, ilimit=0.3)
        )
        assert hyb.metrics.arcs_marked <= btc.metrics.arcs_marked

    def test_blocking_does_not_reduce_io(self):
        """The paper's headline Hybrid finding: blocking does not pay
        off for an algorithm with the immediate successor optimisation."""
        graph = generate_dag(400, 5, 80, seed=10)
        btc_io = BtcAlgorithm().run(graph, system=SystemConfig(buffer_pages=10)).metrics.total_io
        hyb_io = HybridAlgorithm().run(
            graph, system=SystemConfig(buffer_pages=10, ilimit=0.3)
        ).metrics.total_io
        assert hyb_io >= btc_io

    def test_reblocking_under_pressure_is_counted(self):
        """A tiny pool with a large diagonal block must reblock."""
        graph = generate_dag(400, 8, 200, seed=11)
        result = HybridAlgorithm().run(
            graph, system=SystemConfig(buffer_pages=4, ilimit=1.0)
        )
        assert result.metrics.reblocking_events >= 1

    def test_arcs_considered_covers_all_arcs(self, medium_dag):
        result = HybridAlgorithm().run(
            medium_dag, system=SystemConfig(buffer_pages=10, ilimit=0.2)
        )
        assert result.metrics.arcs_considered == medium_dag.num_arcs


class TestExhaustionCleanup:
    def test_escaping_error_leaves_no_pages_pinned(self):
        """Regression: the unpin sweep must run on the exception path.

        A broom graph gives the root a closure list far larger than a
        two-frame pool, so the diagonal block keeps pages pinned while
        it reblocks; an armed corrupt-read fault then escapes
        ``_expand_block`` with pages still pinned.  Before the sweep
        moved into the ``finally`` (RPL008), such an abort left the
        diagonal block's pages pinned, silently shrinking the pool for
        whatever ran next in the same process.
        """
        import pytest

        from repro.chaos.faults import FaultPlan, use_fault_plan
        from repro.core.base import Phase
        from repro.core.context import ExecutionContext
        from repro.errors import CorruptPageReadError
        from repro.graphs.digraph import Digraph

        n = 1600
        arcs = []
        for mid in range(1, n - 1):
            arcs.append((0, mid))
            arcs.append((mid, n - 1))
        graph = Digraph.from_arcs(n, arcs)

        algo = HybridAlgorithm()
        ctx = ExecutionContext(
            graph,
            Query.full(),
            SystemConfig(buffer_pages=2, ilimit=1.0),
            needs_inverse=algo.needs_inverse,
        )
        ctx.enter_phase(Phase.RESTRUCTURE)
        algo.restructure(ctx)
        ctx.enter_phase(Phase.COMPUTE)

        pool = ctx.engine.pool
        access = pool.access
        pinned_at_fault = []

        def watched_access(page, dirty=False):
            try:
                return access(page, dirty)
            except CorruptPageReadError:
                pinned_at_fault.append(pool.pinned_count)
                raise

        pool.access = watched_access
        with use_fault_plan(FaultPlan.parse("seed=1;corrupt-read,p=0.05")):
            with pytest.raises(CorruptPageReadError):
                algo.compute(ctx)
        assert pinned_at_fault and pinned_at_fault[-1] > 0
        assert ctx.engine.pinned_count == 0


class TestRepeatedReblocking:
    def test_g2_full_closure_at_the_default_pool_matches_bfs(self):
        """G2 (n=2000) at the default M=20: one reblock can free no
        frame, and a single retry used to raise BufferPoolExhaustedError."""
        from repro.graphs.datasets import build_graph

        graph = build_graph("G2", seed=0, scale=1)
        assert graph.num_nodes == 2000
        result = HybridAlgorithm().run(graph, system=SystemConfig(engine="paged"))
        assert result.metrics.reblocking_events > 0
        oracle = oracle_closure(graph)
        for node in graph.nodes():
            assert set(result.successors_of(node)) == oracle[node]
