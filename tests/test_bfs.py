"""Tests for the BJ algorithm (single-parent optimisation, Section 3.3)."""

from repro.core.bfs import BjAlgorithm
from repro.core.btc import BtcAlgorithm
from repro.core.query import Query
from repro.graphs.digraph import Digraph

from conftest import oracle_closure


class TestCorrectness:
    def test_selection_matches_oracle(self, medium_dag):
        sources = [0, 25, 60]
        result = BjAlgorithm().run(medium_dag, Query.ptc(sources))
        oracle = oracle_closure(medium_dag)
        for source in sources:
            assert set(result.successors_of(source)) == oracle[source]

    def test_chain_reduction_preserves_answers(self, chain):
        """Every non-source node of a path is single-parent; the whole
        tail collapses into the source's adjacency."""
        result = BjAlgorithm().run(chain, Query.ptc([0]))
        assert result.successors_of(0) == [1, 2, 3, 4, 5]

    def test_full_closure_identical_to_btc(self, medium_dag):
        """For CTC no node can be eliminated: BJ is BTC (Section 6.2)."""
        bj = BjAlgorithm().run(medium_dag)
        btc = BtcAlgorithm().run(medium_dag)
        assert bj.successor_bits == btc.successor_bits
        assert bj.metrics.total_io == btc.metrics.total_io
        assert bj.metrics.list_unions == btc.metrics.list_unions


class TestReduction:
    def test_single_parent_lists_are_not_expanded(self, chain):
        """On a path with one source, only the source's list is built
        up; the reduced nodes perform no unions."""
        result = BjAlgorithm().run(chain, Query.ptc([0]))
        # The source unions each (adopted) child once; reduced nodes none.
        assert result.metrics.list_unions == 5

    def test_adoption_example_from_paper(self):
        """Figure 3's structure: d is single-parent (parent a), so d's
        children are adopted by a and d becomes a sink."""
        # a=0, d=1, f=2, g=3, j=4; a->d, d->f, d->g, d->j, f->g, g->j.
        graph = Digraph.from_arcs(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        sources = [0]
        bj = BjAlgorithm().run(graph, Query.ptc(sources))
        btc = BtcAlgorithm().run(graph, Query.ptc(sources))
        assert bj.successors_of(0) == btc.successors_of(0)
        # Everything below the source was reduced to a sink, so every
        # BJ union is with an empty child list: no tuples get read.
        assert bj.metrics.tuple_io < btc.metrics.tuple_io
        assert bj.metrics.list_unions <= btc.metrics.list_unions

    def test_sources_are_never_reduced(self):
        """A single-parent node that is a source keeps its list."""
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        result = BjAlgorithm().run(graph, Query.ptc([0, 1]))
        assert result.successors_of(1) == [2]

    def test_cascading_reductions(self):
        """A chain below the source collapses entirely in one sweep."""
        graph = Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        result = BjAlgorithm().run(graph, Query.ptc([0]))
        assert result.successors_of(0) == [1, 2, 3, 4]
        assert result.metrics.list_unions == 4  # all by the source

    def test_multi_parent_nodes_are_kept(self):
        """Diamond: node 3 has two parents and must keep its own list."""
        graph = Digraph.from_arcs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        bj = BjAlgorithm().run(graph, Query.ptc([0]))
        assert bj.successors_of(0) == [1, 2, 3, 4]

    def test_bj_never_does_more_unions_than_btc(self, medium_dag):
        for sources in ([0], [0, 1, 2], [5, 50, 100, 140]):
            bj = BjAlgorithm().run(medium_dag, Query.ptc(sources))
            btc = BtcAlgorithm().run(medium_dag, Query.ptc(sources))
            assert bj.metrics.list_unions <= btc.metrics.list_unions
