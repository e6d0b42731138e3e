"""Tests for the execution context and shared restructuring phase."""

import pytest
from hypothesis import given, settings

from repro.core.base import topological_sort_map
from repro.core.btc import BtcAlgorithm
from repro.core.context import ExecutionContext
from repro.core.query import Query, SystemConfig
from repro.errors import CyclicGraphError
from repro.graphs.digraph import Digraph
from repro.storage.iostats import Phase
from repro.storage.page import PageKind

from conftest import random_dag, random_digraph


def restructured(graph, query) -> ExecutionContext:
    algorithm = BtcAlgorithm()
    ctx = ExecutionContext(graph, query, SystemConfig())
    algorithm.restructure(ctx)
    return ctx


class TestScopeIdentification:
    def test_full_query_scans_the_relation(self, medium_dag):
        ctx = restructured(medium_dag, Query.full())
        assert ctx.in_scope == set(medium_dag.nodes())
        expected_pages = ctx.relation.num_pages
        assert ctx.metrics.io.reads_of(PageKind.RELATION) == expected_pages

    def test_selection_uses_the_index(self, medium_dag):
        ctx = restructured(medium_dag, Query.ptc([0]))
        assert ctx.metrics.io.reads_of(PageKind.INDEX) >= 1

    def test_selection_scope_is_the_magic_graph(self, medium_dag):
        from repro.graphs.toposort import reachable_from

        ctx = restructured(medium_dag, Query.ptc([0, 50]))
        assert ctx.in_scope == reachable_from(medium_dag, [0, 50])

    def test_initial_lists_hold_the_children(self, diamond):
        ctx = restructured(diamond, Query.full())
        assert ctx.lists[0] == 0b1110  # children 1, 2 and 3 (shortcut)
        assert ctx.store.length(0) == 3


class TestProfileCollection:
    def test_rectangle_model_collected(self, medium_dag):
        from repro.graphs.analysis import profile_graph

        ctx = restructured(medium_dag, Query.full())
        expected = profile_graph(medium_dag, include_closure_size=False)
        assert ctx.height == expected.height
        assert ctx.width == expected.width
        assert ctx.max_level == expected.max_level

    def test_topological_positions_respect_arcs(self, medium_dag):
        ctx = restructured(medium_dag, Query.full())
        for src, dst in medium_dag.arcs():
            assert ctx.position[src] < ctx.position[dst]


class TestUnionList:
    def test_union_counts_and_contents(self, diamond):
        ctx = restructured(diamond, Query.full())
        ctx.metrics.io.phase = Phase.COMPUTE
        # Expand node 1 first (its child 3 is a sink), then union into 0.
        ctx.union_list(1, 3)
        before_unions = ctx.metrics.list_unions
        ctx.union_list(0, 1)
        assert ctx.metrics.list_unions == before_unions + 1
        assert (ctx.lists[0] >> 3) & 1  # 3 arrived through 1's list

    def test_union_counts_duplicates(self, diamond):
        ctx = restructured(diamond, Query.full())
        ctx.union_list(1, 3)
        ctx.union_list(2, 3)
        ctx.union_list(0, 1)
        dups_before = ctx.metrics.duplicates
        ctx.union_list(0, 2)  # 2's list {3} is already in 0's list
        assert ctx.metrics.duplicates == dups_before + 1


class TestTopologicalSortMap:
    def test_sorts_adjacency_dicts(self):
        order = topological_sort_map({0: [1], 1: [2], 2: []})
        assert order == [0, 1, 2]

    def test_detects_cycles(self):
        with pytest.raises(CyclicGraphError):
            topological_sort_map({0: [1], 1: [0]})

    def test_deep_adjacency_is_iterative(self):
        n = 10_000
        adjacency = {i: [i + 1] for i in range(n - 1)}
        adjacency[n - 1] = []
        assert topological_sort_map(adjacency)[0] == 0


def reference_sort_map(adjacency):
    """The index-frame DFS ``topological_sort_map`` replaced: each frame
    is ``[node, next_child_index]`` and every resume re-reads the row's
    length and indexes it.  The iterator-frame sort must match it
    exactly -- the same order, and on a cycle the same arc."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adjacency, WHITE)
    postorder = []
    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        stack = [[root, 0]]
        color[root] = GRAY
        while stack:
            frame = stack[-1]
            node, child_index = frame
            children = adjacency[node]
            advanced = False
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                state = color[child]
                if state == GRAY:
                    raise CyclicGraphError(
                        f"cycle detected through arc ({node}, {child})"
                    )
                if state == WHITE:
                    frame[1] = child_index
                    stack.append([child, 0])
                    color[child] = GRAY
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            color[node] = BLACK
            postorder.append(node)
    postorder.reverse()
    return postorder


def sort_outcome(sort, adjacency):
    """A sort's order, or the message of the cycle it reports."""
    try:
        return sort(adjacency)
    except CyclicGraphError as exc:
        return str(exc)


class TestTopologicalSortMapExactOrder:
    @given(random_dag())
    @settings(max_examples=60, deadline=None)
    def test_csr_rows_and_lists_match_the_reference(self, graph):
        expected = reference_sort_map(graph.adjacency_lists())
        assert topological_sort_map(graph.adjacency_rows()) == expected
        assert topological_sort_map(graph.adjacency_lists()) == expected

    @given(random_digraph())
    @settings(max_examples=60, deadline=None)
    def test_cycles_name_the_reference_arc(self, graph):
        expected = sort_outcome(reference_sort_map, graph.adjacency_lists())
        assert sort_outcome(topological_sort_map, graph.adjacency_rows()) == expected
        assert sort_outcome(topological_sort_map, graph.adjacency_lists()) == expected

    def test_cyclic_cases_are_exercised(self):
        graph = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        expected = sort_outcome(reference_sort_map, graph.adjacency_rows())
        assert expected == "cycle detected through arc (3, 1)"
        assert sort_outcome(topological_sort_map, graph.adjacency_rows()) == expected
