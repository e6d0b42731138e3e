"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import strategies as st

from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag


def oracle_closure(graph: Digraph) -> dict[int, set[int]]:
    """Reference transitive closure computed with networkx."""
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(graph.num_nodes))
    nxg.add_edges_from(graph.arcs())
    return {node: set(nx.descendants(nxg, node)) for node in nxg.nodes}


@st.composite
def random_dag(draw, max_nodes=80):
    """A paper-model DAG of up to ``max_nodes`` nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    f = draw(st.integers(min_value=0, max_value=6))
    locality = draw(st.integers(min_value=1, max_value=max(1, n)))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    return generate_dag(n, f, locality, seed=seed)


@st.composite
def random_digraph(draw):
    """A directed graph that usually contains cycles."""
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    density = draw(st.floats(min_value=0.5, max_value=3.0))
    rng = random.Random(seed)
    num_arcs = int(n * density)
    arcs = {
        (rng.randrange(n), rng.randrange(n)) for _ in range(num_arcs)
    }
    return Digraph.from_arcs(n, sorted(arcs))


@pytest.fixture
def diamond() -> Digraph:
    """The diamond DAG 0 -> {1, 2} -> 3, plus the shortcut 0 -> 3.

    The shortcut arc is redundant (it is outside the transitive
    reduction), making this the smallest graph that exercises the
    marking optimisation.
    """
    return Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])


@pytest.fixture
def chain() -> Digraph:
    """A 6-node path 0 -> 1 -> ... -> 5 (every node single-parent)."""
    return Digraph.from_arcs(6, [(i, i + 1) for i in range(5)])


@pytest.fixture
def small_dag() -> Digraph:
    """A reproducible 60-node random DAG used across algorithm tests."""
    return generate_dag(60, avg_out_degree=3, locality=15, seed=42)


@pytest.fixture
def medium_dag() -> Digraph:
    """A reproducible 150-node random DAG for integration tests."""
    return generate_dag(150, avg_out_degree=4, locality=40, seed=7)
