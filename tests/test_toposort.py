"""Tests for DFS, topological sorting and reachability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CyclicGraphError
from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag
from repro.graphs.toposort import is_acyclic, reachable_from, topological_sort

from conftest import random_dag, random_digraph


class TestTopologicalSort:
    def test_respects_every_arc(self):
        graph = generate_dag(100, 3, 25, seed=1)
        order = topological_sort(graph)
        position = {node: index for index, node in enumerate(order)}
        for src, dst in graph.arcs():
            assert position[src] < position[dst]

    def test_includes_every_node_once(self):
        graph = generate_dag(50, 2, 10, seed=2)
        order = topological_sort(graph)
        assert sorted(order) == list(range(50))

    def test_cycle_raises(self):
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CyclicGraphError):
            topological_sort(graph)

    def test_self_loop_raises(self):
        graph = Digraph.from_arcs(2, [(0, 0)])
        with pytest.raises(CyclicGraphError):
            topological_sort(graph)

    def test_scoped_sort_ignores_outside_arcs(self):
        # 0 -> 1 -> 2 -> 0 is a cycle, but scope {0, 1} has no cycle.
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        order = topological_sort(graph, nodes=[0, 1])
        assert order == [0, 1]

    def test_deterministic(self):
        graph = generate_dag(80, 3, 20, seed=3)
        assert topological_sort(graph) == topological_sort(graph)

    def test_deep_chain_does_not_overflow(self):
        n = 5000
        graph = Digraph.from_arcs(n, [(i, i + 1) for i in range(n - 1)])
        order = topological_sort(graph)
        assert order == list(range(n))


def reference_sort(graph, nodes=None):
    """The index-frame DFS ``topological_sort`` replaced: each frame
    keeps ``(node, next_child_index)`` and re-reads the node's row on
    every resume.  The iterator-frame sort must match it exactly --
    the same order, and on a cycle the same arc in the message."""
    in_scope = None if nodes is None else set(nodes)
    candidates = graph.nodes() if in_scope is None else sorted(in_scope)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in candidates}
    postorder = []
    for root in candidates:
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, child_index = stack[-1]
            successors = graph.successors(node)
            advanced = False
            while child_index < len(successors):
                child = successors[child_index]
                child_index += 1
                if in_scope is not None and child not in in_scope:
                    continue
                state = color[child]
                if state == GRAY:
                    raise CyclicGraphError(
                        f"cycle detected through arc ({node}, {child}); "
                        "condense the graph first (repro.graphs.condensation)"
                    )
                if state == WHITE:
                    stack[-1] = (node, child_index)
                    stack.append((child, 0))
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


def outcome(sort, *args, **kwargs):
    """A sort's order, or the message of the cycle it reports."""
    try:
        return sort(*args, **kwargs)
    except CyclicGraphError as exc:
        return str(exc)


class TestExactOrder:
    @given(random_dag(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_and_scoped_sorts_match_the_reference(self, graph, data):
        assert topological_sort(graph) == reference_sort(graph)
        subset = data.draw(st.sets(st.sampled_from(graph.nodes())))
        assert topological_sort(graph, nodes=subset) == reference_sort(
            graph, nodes=subset
        )

    @given(random_digraph(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cycles_name_the_reference_arc(self, graph, data):
        assert outcome(topological_sort, graph) == outcome(reference_sort, graph)
        subset = data.draw(st.sets(st.sampled_from(graph.nodes())))
        assert outcome(topological_sort, graph, nodes=subset) == outcome(
            reference_sort, graph, nodes=subset
        )

    def test_cyclic_cases_are_exercised(self):
        graph = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        expected = outcome(reference_sort, graph)
        assert "arc (3, 1)" in expected
        assert outcome(topological_sort, graph) == expected


class TestIsAcyclic:
    def test_dag_is_acyclic(self):
        assert is_acyclic(generate_dag(50, 3, 10, seed=4))

    def test_cycle_is_detected(self):
        assert not is_acyclic(Digraph.from_arcs(2, [(0, 1), (1, 0)]))


class TestReachability:
    def test_includes_sources(self):
        graph = Digraph.from_arcs(3, [(0, 1)])
        assert reachable_from(graph, [2]) == {2}

    def test_follows_paths(self):
        graph = Digraph.from_arcs(5, [(0, 1), (1, 2), (3, 4)])
        assert reachable_from(graph, [0]) == {0, 1, 2}

    def test_multi_source_union(self):
        graph = Digraph.from_arcs(5, [(0, 1), (3, 4)])
        assert reachable_from(graph, [0, 3]) == {0, 1, 3, 4}

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_reachable_set_is_closed_under_successors(self, n, seed):
        graph = generate_dag(n, 2, max(1, n // 3), seed=seed)
        sources = [0, n - 1] if n > 1 else [0]
        reached = reachable_from(graph, sources)
        for node in reached:
            for child in graph.successors(node):
                assert child in reached
