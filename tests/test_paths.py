"""Tests for generalized transitive closure (semiring path aggregation)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import SystemConfig
from repro.errors import ConfigurationError, CyclicGraphError, InvalidNodeError
from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag
from repro.paths import (
    BOOLEAN,
    WeightedDigraph,
    bottleneck_capacities,
    critical_path_lengths,
    generalized_closure,
    path_counts,
    path_reliabilities,
    shortest_distances,
)


def weighted_random_dag(n: int, f: int, locality: int, seed: int) -> WeightedDigraph:
    import random

    graph = generate_dag(n, f, locality, seed=seed)
    rng = random.Random(seed + 1)
    labels = {arc: rng.randint(1, 10) for arc in graph.arcs()}
    return WeightedDigraph(graph, labels)


class TestWeightedDigraph:
    def test_from_labelled_arcs(self):
        weighted = WeightedDigraph.from_labelled_arcs(3, [(0, 1, 5), (1, 2, 7)])
        assert weighted.label(0, 1) == 5
        assert weighted.num_arcs == 2

    def test_uniform(self):
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        weighted = WeightedDigraph.uniform(graph, label=3)
        assert weighted.label(1, 2) == 3

    def test_missing_label_rejected(self):
        graph = Digraph.from_arcs(2, [(0, 1)])
        with pytest.raises(InvalidNodeError):
            WeightedDigraph(graph, {})

    def test_label_for_missing_arc_rejected(self):
        graph = Digraph.from_arcs(2, [(0, 1)])
        with pytest.raises(InvalidNodeError):
            WeightedDigraph(graph, {(0, 1): 1, (1, 0): 1})

    def test_labelled_arcs_roundtrip(self):
        weighted = WeightedDigraph.from_labelled_arcs(3, [(0, 1, 5), (1, 2, 7)])
        assert sorted(weighted.labelled_arcs()) == [(0, 1, 5), (1, 2, 7)]


class TestShortestDistances:
    def test_simple_diamond(self):
        weighted = WeightedDigraph.from_labelled_arcs(
            4, [(0, 1, 1), (0, 2, 5), (1, 3, 1), (2, 3, 1), (0, 3, 10)]
        )
        closure = shortest_distances(weighted)
        assert closure.value(0, 3) == 2  # via 1, not the direct arc
        assert closure.value(0, 2) == 5
        assert closure.value(3, 0) == float("inf")

    def test_matches_networkx_dijkstra(self):
        weighted = weighted_random_dag(120, 3, 30, seed=5)
        closure = shortest_distances(weighted)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(weighted.num_nodes))
        for src, dst, label in weighted.labelled_arcs():
            nxg.add_edge(src, dst, weight=label)
        for source in (0, 40, 100):
            expected = nx.single_source_dijkstra_path_length(nxg, source)
            expected.pop(source)
            assert closure.values[source] == expected

    def test_selection(self):
        weighted = weighted_random_dag(100, 3, 25, seed=6)
        closure = shortest_distances(weighted, sources=[0, 10])
        assert set(closure.values) == {0, 10}

    @given(
        n=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=3_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_distances_respect_the_triangle_rule(self, n, seed):
        weighted = weighted_random_dag(n, 2, max(1, n // 2), seed=seed)
        closure = shortest_distances(weighted)
        for src, dst, label in weighted.labelled_arcs():
            assert closure.value(src, dst) <= label


class TestCriticalPaths:
    def test_longest_path(self):
        weighted = WeightedDigraph.from_labelled_arcs(
            4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 5), (0, 3, 3)]
        )
        closure = critical_path_lengths(weighted)
        assert closure.value(0, 3) == 6  # via node 2

    def test_matches_networkx_dag_longest_path(self):
        weighted = weighted_random_dag(80, 3, 20, seed=7)
        closure = critical_path_lengths(weighted)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(weighted.num_nodes))
        for src, dst, label in weighted.labelled_arcs():
            nxg.add_edge(src, dst, weight=label)
        length = nx.dag_longest_path_length(nxg, weight="weight")
        measured = max(
            (value for row in closure.values.values() for value in row.values()),
            default=0,
        )
        assert measured == length


class TestBottleneck:
    def test_widest_path(self):
        weighted = WeightedDigraph.from_labelled_arcs(
            4, [(0, 1, 10), (1, 3, 2), (0, 2, 4), (2, 3, 4)]
        )
        closure = bottleneck_capacities(weighted)
        assert closure.value(0, 3) == 4  # min(4,4) beats min(10,2)


class TestReliability:
    def test_most_reliable_path(self):
        weighted = WeightedDigraph.from_labelled_arcs(
            3, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.5)]
        )
        closure = path_reliabilities(weighted)
        assert closure.value(0, 2) == pytest.approx(0.81)

    def test_labels_outside_unit_interval_rejected(self):
        weighted = WeightedDigraph.from_labelled_arcs(2, [(0, 1, 1.5)])
        with pytest.raises(ConfigurationError):
            path_reliabilities(weighted)


class TestPathCounts:
    def test_diamond_has_two_paths(self, diamond):
        closure = path_counts(diamond)
        # 0->1->3, 0->2->3 and the direct arc 0->3.
        assert closure.value(0, 3) == 3

    def test_matches_dp_oracle(self):
        graph = generate_dag(60, 3, 15, seed=8)
        closure = path_counts(graph)
        # Dynamic-programming oracle over the topological order.
        from repro.graphs.toposort import topological_sort

        order = topological_sort(graph)
        for source in (0, 30):
            counts = {source: 1}
            for node in order:
                if node not in counts:
                    continue
                for child in graph.successors(node):
                    counts[child] = counts.get(child, 0) + counts[node]
            counts.pop(source)
            expected = {node: count for node, count in counts.items() if count}
            assert closure.values[source] == expected


class TestFrameworkBehaviour:
    def test_cyclic_input_raises(self):
        graph = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        with pytest.raises(CyclicGraphError):
            shortest_distances(WeightedDigraph.uniform(graph, 1))

    def test_no_marking_every_arc_unions(self, medium_dag):
        closure = path_counts(medium_dag)
        assert closure.metrics.arcs_considered == medium_dag.num_arcs
        assert closure.metrics.list_unions == medium_dag.num_arcs
        assert closure.metrics.arcs_marked == 0

    def test_boolean_semiring_reduces_to_reachability(self, medium_dag):
        from repro.core.registry import make_algorithm

        weighted = WeightedDigraph.uniform(medium_dag, label=True)
        closure = generalized_closure(weighted, BOOLEAN)
        reference = make_algorithm("btc").run(medium_dag)
        for node in medium_dag.nodes():
            assert set(closure.values[node]) == set(reference.successors_of(node))

    def test_costs_more_than_boolean_closure(self):
        """No marking and double-width entries: the generalized closure
        pays more page I/O than the boolean one on the same graph."""
        graph = generate_dag(400, 5, 80, seed=9)
        from repro.core.registry import make_algorithm

        system = SystemConfig(buffer_pages=10)
        boolean_io = make_algorithm("btc").run(graph, system=system).metrics.total_io
        weighted = WeightedDigraph.uniform(graph, label=1)
        general_io = shortest_distances(weighted, system=system).metrics.total_io
        assert general_io > boolean_io

    def test_metrics_accounting(self, small_dag):
        closure = path_counts(small_dag)
        metrics = closure.metrics
        assert metrics.io.total_requests == metrics.io.total_hits + metrics.io.total_reads
        assert metrics.distinct_tuples == sum(
            len(row) for row in closure.values.values()
        )
