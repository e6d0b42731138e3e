"""Tests for the Digraph type."""

import pickle

import pytest

from repro.errors import InvalidNodeError
from repro.graphs.digraph import ArcView, Digraph, DigraphBuilder


class TestConstruction:
    def test_from_arcs_deduplicates(self):
        graph = Digraph.from_arcs(3, [(0, 1), (0, 1), (0, 2)])
        assert graph.num_arcs == 2
        assert graph.successors(0) == [1, 2]

    def test_negative_node_count_raises(self):
        with pytest.raises(InvalidNodeError):
            Digraph(-1)

    def test_out_of_range_arc_raises(self):
        with pytest.raises(InvalidNodeError):
            Digraph.from_arcs(2, [(0, 5)])

    def test_empty_graph(self):
        graph = Digraph(0)
        assert graph.num_nodes == 0
        assert graph.num_arcs == 0
        assert list(graph.arcs()) == []

    def test_add_arc_keeps_successors_sorted(self):
        graph = Digraph.from_arcs(5, [(0, dst) for dst in (4, 1, 3, 2)])
        assert graph.successors(0) == [1, 2, 3, 4]


class TestAccessors:
    def test_has_arc(self):
        graph = Digraph.from_arcs(4, [(0, 2), (1, 3)])
        assert graph.has_arc(0, 2)
        assert not graph.has_arc(0, 3)

    def test_degrees(self):
        graph = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 2)])
        assert graph.out_degree(0) == 2
        assert graph.in_degree(2) == 2
        assert graph.in_degree(0) == 0

    def test_predecessors_track_added_arcs(self):
        graph = Digraph.from_arcs(4, [(0, 3), (1, 3)])
        assert graph.predecessors(3) == [0, 1]

    def test_arcs_iterates_in_source_order(self):
        arcs = [(0, 1), (0, 3), (2, 3)]
        graph = Digraph.from_arcs(4, arcs)
        assert list(graph.arcs()) == arcs

    def test_invalid_node_queries_raise(self):
        graph = Digraph(2)
        with pytest.raises(InvalidNodeError):
            graph.successors(2)
        with pytest.raises(InvalidNodeError):
            graph.out_degree(-1)


class TestTransforms:
    def test_reverse(self):
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        reversed_graph = graph.reverse()
        assert list(reversed_graph.arcs()) == [(1, 0), (2, 1)]

    def test_reverse_twice_is_identity(self):
        graph = Digraph.from_arcs(5, [(0, 1), (0, 4), (2, 3), (3, 4)])
        assert graph.reverse().reverse() == graph

    def test_induced_subgraph_keeps_ids_and_filters_arcs(self):
        graph = Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = graph.induced_subgraph({1, 2, 4})
        assert sub.num_nodes == 5  # id space preserved
        assert list(sub.arcs()) == [(1, 2)]

    def test_equality_is_structural(self):
        a = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        b = Digraph.from_arcs(3, [(1, 2), (0, 1)])
        assert a == b


class TestStructuralImmutability:
    """The old aliasing footgun: ``successors()`` used to hand back the
    graph's own mutable list, so ``graph.successors(u).append(v)``
    silently corrupted the graph.  CSR rows are read-only views; every
    mutation attempt must raise."""

    def test_successors_rejects_item_assignment(self):
        graph = Digraph.from_arcs(3, [(0, 1), (0, 2)])
        row = graph.successors(0)
        with pytest.raises(TypeError):
            row[0] = 9

    def test_successors_has_no_list_mutators(self):
        graph = Digraph.from_arcs(3, [(0, 1), (0, 2)])
        row = graph.successors(0)
        for method in ("append", "extend", "insert", "pop", "remove", "clear", "sort"):
            assert not hasattr(row, method)

    def test_mutation_attempt_does_not_corrupt_graph(self):
        graph = Digraph.from_arcs(3, [(0, 1), (0, 2)])
        with pytest.raises(TypeError):
            graph.successors(0)[1] = 0
        assert list(graph.successors(0)) == [1, 2]
        assert graph.num_arcs == 2

    def test_predecessors_are_read_only_too(self):
        graph = Digraph.from_arcs(3, [(0, 2), (1, 2)])
        with pytest.raises(TypeError):
            graph.predecessors(2)[0] = 9

    def test_adjacency_rows_are_read_only(self):
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        rows = graph.adjacency_rows()
        with pytest.raises(TypeError):
            rows[0][0] = 9

    def test_adjacency_lists_copies_are_independent(self):
        # The sanctioned mutable escape hatch: fresh lists, not aliases.
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        lists = graph.adjacency_lists()
        lists[0].append(99)
        assert list(graph.successors(0)) == [1]
        assert graph.adjacency_lists()[0] == [1]


class TestArcView:
    def test_equality_with_lists_and_tuples(self):
        graph = Digraph.from_arcs(3, [(0, 1), (0, 2)])
        row = graph.successors(0)
        assert row == [1, 2]
        assert row == (1, 2)
        assert row != [1]
        assert row == graph.successors(0)

    def test_contains_and_slicing(self):
        graph = Digraph.from_arcs(6, [(0, 1), (0, 3), (0, 5)])
        row = graph.successors(0)
        assert 3 in row and 4 not in row
        assert isinstance(row[1:], ArcView)
        assert list(row[1:]) == [3, 5]
        assert row[-1] == 5

    def test_hashable(self):
        graph = Digraph.from_arcs(3, [(0, 1), (0, 2)])
        assert hash(graph.successors(0)) == hash((1, 2))


class TestBuilder:
    def test_freeze_deduplicates_and_sorts(self):
        builder = DigraphBuilder(4)
        builder.add_arcs([(2, 3), (0, 2), (0, 1), (0, 2)])
        graph = builder.freeze()
        assert list(graph.arcs()) == [(0, 1), (0, 2), (2, 3)]

    def test_growable_builder_tracks_max_node(self):
        builder = DigraphBuilder()
        builder.add_arc(0, 7)
        builder.ensure_node(9)
        assert builder.num_nodes == 10
        assert builder.freeze().num_nodes == 10

    def test_declared_size_rejects_out_of_range(self):
        builder = DigraphBuilder(3)
        with pytest.raises(InvalidNodeError):
            builder.add_arc(0, 3)

    def test_negative_node_rejected(self):
        builder = DigraphBuilder()
        with pytest.raises(InvalidNodeError):
            builder.add_arc(-1, 0)

    def test_builder_matches_from_arcs(self):
        arcs = [(0, 1), (1, 2), (0, 2), (3, 0)]
        builder = DigraphBuilder(4)
        builder.add_arcs(arcs)
        assert builder.freeze() == Digraph.from_arcs(4, arcs)


class TestPickle:
    def test_round_trip(self):
        graph = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert list(clone.successors(0)) == [1, 3]
