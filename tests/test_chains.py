"""Property suite for the chain-decomposition reachability index.

Three layers are exercised:

* the pure decomposition (:mod:`repro.graphs.chains`): chains must be a
  vertex-disjoint path cover, no chain's final tail may have an arc to
  a chain head (so concatenating chains could never lower k), and k
  can never drop below the DAG's width (checked through the
  max-antichain lower bound given by node levels);
* the frozen :class:`repro.core.chains.ChainIndex`: ``reachable`` and
  ``successors`` must agree with a plain BFS oracle on every pair, in
  O(k) per probe without re-materialising the closure (page-I/O
  counters stay flat during queries on the paged engine);
* cyclic inputs: ``build_chain_index`` must route through the
  condensation and agree both with the BFS oracle and with the
  generalized-closure evaluator of :mod:`repro.paths.closure` run on
  the condensation DAG.

The k-vector sweep's marking test is pinned against a full-merge
reference sweep: identical vectors, counters and page I/O.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import chains as core_chains
from repro.core.chains import VECTOR_BLOCK_CAPACITY, build_chain_index
from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.graphs.analysis import node_levels
from repro.graphs.chains import chain_decomposition, decompose_chains
from repro.graphs.condensation import condensation
from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag
from repro.graphs.ingest import iter_braided_arcs
from repro.graphs.toposort import reachable_from
from repro.paths.closure import path_counts
from repro.storage.engine import PageKind

from conftest import random_dag, random_digraph


def bfs_closure(graph) -> dict[int, set[int]]:
    """Plain BFS all-pairs reachability (node itself excluded unless
    it lies on a cycle)."""
    closure: dict[int, set[int]] = {}
    for source in graph.nodes():
        seen: set[int] = set()
        frontier = list(graph.successors(source))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(graph.successors(node))
        closure[source] = seen
    return closure


def random_topological_order(graph, rng):
    """Kahn's algorithm, taking a random ready node at every step."""
    indegree = [0] * graph.num_nodes
    for node in graph.nodes():
        for child in graph.successors(node):
            indegree[child] += 1
    ready = [node for node in graph.nodes() if not indegree[node]]
    order = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for child in graph.successors(node):
            indegree[child] -= 1
            if not indegree[child]:
                ready.append(child)
    return order


def assert_no_final_tail_has_an_arc_to_a_head(graph, deco):
    """The greedy's invariant: a chain's final tail has no arc to any
    chain head, so no concatenation of two chains can apply."""
    heads = {chain[0] for chain in deco.chains}
    for chain in deco.chains:
        tail = chain[-1]
        joinable = heads.intersection(graph.successors(tail))
        assert not joinable, f"tail {tail} has an arc to head(s) {joinable}"


class TestDecomposition:
    @given(random_dag())
    @settings(max_examples=60, deadline=None)
    def test_chains_are_a_vertex_disjoint_path_cover(self, graph):
        deco = chain_decomposition(graph)
        covered = [node for chain in deco.chains for node in chain]
        assert sorted(covered) == list(graph.nodes())
        for chain_id, chain in enumerate(deco.chains):
            assert chain, "empty chains must be filtered out"
            for position, node in enumerate(chain):
                assert deco.chain_of[node] == chain_id
                assert deco.position_of[node] == position
            for src, dst in zip(chain, chain[1:]):
                assert dst in graph.successors(src), (
                    f"({src}, {dst}) is not an arc of the graph"
                )

    @given(random_dag(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_final_tail_has_an_arc_to_a_chain_head(self, graph, data):
        assert_no_final_tail_has_an_arc_to_a_head(graph, chain_decomposition(graph))
        # A PTC scope: the induced subgraph the index builds over.
        sources = data.draw(
            st.lists(st.sampled_from(graph.nodes()), min_size=1, max_size=3, unique=True)
        )
        scope = sorted(reachable_from(graph, sources))
        assert_no_final_tail_has_an_arc_to_a_head(graph, chain_decomposition(graph, scope))
        # Any topological order, not only the sort's.
        order = random_topological_order(graph, data.draw(st.randoms()))
        deco = decompose_chains(graph.adjacency_lists(), order)
        assert_no_final_tail_has_an_arc_to_a_head(graph, deco)

    @given(random_dag())
    @settings(max_examples=60, deadline=None)
    def test_k_respects_the_width_lower_bound(self, graph):
        """Nodes sharing a level form an antichain, and an antichain
        meets every chain at most once -- so k >= the largest level
        population."""
        levels = node_levels(graph)
        population: dict[int, int] = {}
        for level in levels.values():
            population[level] = population.get(level, 0) + 1
        width_bound = max(population.values(), default=0)
        assert chain_decomposition(graph).k >= width_bound

    @given(random_dag())
    @settings(max_examples=30, deadline=None)
    def test_decomposition_is_deterministic(self, graph):
        first = chain_decomposition(graph)
        second = chain_decomposition(graph)
        assert first.chains == second.chains
        assert first.chain_of == second.chain_of
        assert first.position_of == second.position_of


class TestChainIndexOnDags:
    @given(random_dag(max_nodes=200))
    @settings(max_examples=25, deadline=None)
    def test_all_pairs_agree_with_bfs(self, graph):
        closure = bfs_closure(graph)
        index = build_chain_index(graph)
        assert not index.condensed
        for src in graph.nodes():
            assert index.successors(src) == sorted(closure[src])
            for dst in graph.nodes():
                assert index.reachable(src, dst) == (dst in closure[src]), (
                    src,
                    dst,
                )

    def test_queries_keep_page_io_flat_on_the_paged_engine(self):
        """The acceptance criterion of the index: once built, a probe
        is a k-entry vector comparison -- the storage substrate is
        never consulted again, so the page-I/O bill does not move."""
        graph = generate_dag(150, 4, 30, seed=11)
        index = build_chain_index(
            graph, system=SystemConfig(buffer_pages=10, engine="paged")
        )
        build_io = index.metrics.total_io
        assert build_io > 0
        for src in graph.nodes():
            index.successors(src)
            for dst in range(0, graph.num_nodes, 7):
                index.reachable(src, dst)
        assert index.metrics.total_io == build_io

    def test_fast_engine_builds_with_zero_page_io(self):
        graph = generate_dag(150, 4, 30, seed=11)
        index = build_chain_index(
            graph, system=SystemConfig(buffer_pages=10, engine="fast")
        )
        assert index.metrics.total_io == 0
        paged = build_chain_index(
            graph, system=SystemConfig(buffer_pages=10, engine="paged")
        )
        assert paged.vectors == index.vectors


class TestChainIndexOnCyclicGraphs:
    @given(random_digraph())
    @settings(max_examples=40, deadline=None)
    def test_cyclic_inputs_agree_with_bfs(self, graph):
        closure = bfs_closure(graph)
        index = build_chain_index(graph)
        for src in graph.nodes():
            assert index.successors(src) == sorted(closure[src])
            for dst in graph.nodes():
                assert index.reachable(src, dst) == (dst in closure[src]), (
                    src,
                    dst,
                )

    @given(random_digraph())
    @settings(max_examples=25, deadline=None)
    def test_condensed_index_agrees_with_generalized_closure(self, graph):
        """Cross-check against :mod:`repro.paths.closure`: over the
        condensation DAG a pair of distinct components is reachable iff
        the path-count semiring assigns it a positive value."""
        cond = condensation(graph)
        counts = path_counts(cond.dag)
        index = build_chain_index(graph)
        for src in graph.nodes():
            a = cond.component_of[src]
            for dst in graph.nodes():
                b = cond.component_of[dst]
                if a != b:
                    expected = counts.value(a, b) > 0
                elif len(cond.members[a]) > 1:
                    expected = True
                else:
                    expected = src in cond.self_loops
                assert index.reachable(src, dst) == expected, (src, dst)


def full_merge_vectors(ctx, deco):
    """The k-vector sweep without marking: every child's vector is
    merged entry by entry, the loop the marking test short-cuts."""
    vector_store = ctx.engine.make_list_store(
        PageKind.CHAIN,
        policy=ctx.system.list_policy,
        blocks_per_page=30,
        block_capacity=VECTOR_BLOCK_CAPACITY,
    )
    vectors = {}
    arcs_considered = locality = list_unions = 0
    tuple_io = generated = duplicates = 0
    for node in reversed(ctx.topo_order):
        vector = {}
        for child in ctx.adjacency[node]:
            arcs_considered += 1
            locality += ctx.levels[node] - ctx.levels[child]
            list_unions += 1
            vector_store.read_list(child)
            child_vector = vectors[child]
            tuple_io += len(child_vector)
            generated += len(child_vector)
            for chain_id, pos in child_vector.items():
                held = vector.get(chain_id)
                if held is None or pos < held:
                    vector[chain_id] = pos
                else:
                    duplicates += 1
        vector[deco.chain_of[node]] = deco.position_of[node]
        generated += 1
        vectors[node] = vector
        vector_store.create_list(node, len(vector))
    ctx.metrics.fold(
        arcs_considered=arcs_considered,
        unmarked_locality_total=locality,
        list_unions=list_unions,
        list_reads=list_unions,
        tuple_io=tuple_io,
        tuples_generated=generated,
        duplicates=duplicates,
    )
    return vector_store, vectors


def counters(metrics):
    """Every counter and page count of a run, CPU seconds aside."""
    fields = dataclasses.asdict(metrics)
    del fields["cpu_seconds"], fields["restructure_cpu_seconds"]
    return fields


def index_fingerprint(index):
    return (
        [(node, list(vector.items())) for node, vector in index.vectors.items()],
        counters(index.metrics),
    )


def assert_marking_matches_full_merge(graph, sources, engine):
    system = SystemConfig(engine=engine, buffer_pages=10)
    query = Query.full() if sources is None else Query.ptc(sources)
    marked = build_chain_index(graph, sources, system)
    closure = make_algorithm("chains").run(graph, query, system)
    with mock.patch.object(core_chains, "_build_vectors", full_merge_vectors):
        merged = build_chain_index(graph, sources, system)
        merged_closure = make_algorithm("chains").run(graph, query, system)
    assert index_fingerprint(marked) == index_fingerprint(merged)
    assert closure.successor_bits == merged_closure.successor_bits
    assert counters(closure.metrics) == counters(merged_closure.metrics)


def skipped_merges(graph, index):
    """The (node, child) merges the marking test skips, replayed on a
    built index (its vectors are the full merge's)."""
    skipped = []
    for node in index.vectors:
        vector: dict[int, int] = {}
        for child in graph.successors(node):
            held = vector.get(index.chain_of[child])
            if held is not None and held <= index.position_of[child]:
                skipped.append((node, child))
                continue
            for chain_id, pos in index.vectors[child].items():
                if chain_id not in vector or pos < vector[chain_id]:
                    vector[chain_id] = pos
    return skipped


class TestMarkingMatchesFullMerge:
    @given(random_dag(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_dags_full_and_scoped(self, graph, data):
        sources = data.draw(
            st.lists(st.sampled_from(graph.nodes()), min_size=1, max_size=5, unique=True)
        )
        for engine in ("fast", "paged"):
            assert_marking_matches_full_merge(graph, None, engine)
            assert_marking_matches_full_merge(graph, sources, engine)

    def test_braid(self):
        graph = Digraph.from_arcs(
            400, list(iter_braided_arcs(4, 100, shortcuts_per_node=8, seed=5))
        )
        index = build_chain_index(graph)
        # The braid is the input the test pays off on: most merges skip.
        assert len(skipped_merges(graph, index)) > graph.num_arcs // 2
        for engine in ("fast", "paged"):
            assert_marking_matches_full_merge(graph, None, engine)
            assert_marking_matches_full_merge(graph, [0, 150, 320], engine)

    def test_dominated_child_before_its_dominator_is_merged_in_full(self):
        # 0 -> {1, 2} and 2 -> 1: the chain is 0, 2, 1, so 2 reaches 1
        # along it, but row order merges 1 first, before anything is held.
        graph = Digraph.from_arcs(3, [(0, 1), (0, 2), (2, 1)])
        index = build_chain_index(graph)
        assert index.chains == ((0, 2, 1),)
        assert skipped_merges(graph, index) == []
        assert index.vectors[0] == {0: 0}
        for engine in ("fast", "paged"):
            assert_marking_matches_full_merge(graph, None, engine)

    def test_sibling_reaching_the_child_itself_skips_its_merge(self):
        # 2 sits at position 1 of chain (3, 2); sibling 1 reaches 2 but
        # no earlier node of that chain, so held == position_of[2].
        graph = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 2), (3, 2)])
        index = build_chain_index(graph)
        assert index.chains == ((3, 2), (0, 1))
        assert index.vectors[1] == {0: 1, 1: 1}
        assert skipped_merges(graph, index) == [(0, 2)]
        for engine in ("fast", "paged"):
            assert_marking_matches_full_merge(graph, None, engine)
