"""White-box tests of algorithm internals.

The black-box suites check answers and aggregate metrics; these tests
pin down the internal mechanics the paper describes: Hybrid's block
formation and off-diagonal grouping, SPN's serialised tree layout,
Compute_Tree's materialised predecessor lists, and BJ's rewritten
adjacency.
"""

from repro.core.bfs import BjAlgorithm
from repro.core.btc import BtcAlgorithm
from repro.core.compute_tree import ComputeTreeAlgorithm
from repro.core.context import ExecutionContext
from repro.core.hybrid import HybridAlgorithm
from repro.core.query import Query, SystemConfig
from repro.core.spanning_tree import SpanningTreeAlgorithm
from repro.graphs.digraph import Digraph
from repro.storage.iostats import Phase
from repro.storage.page import PageKind


def restructured(algorithm, graph, query=None, system=None):
    ctx = ExecutionContext(
        graph,
        query or Query.full(),
        system or SystemConfig(),
        needs_inverse=algorithm.needs_inverse,
    )
    algorithm.restructure(ctx)
    return ctx


class TestHybridInternals:
    def test_block_formation_covers_all_nodes_in_order(self, medium_dag):
        algorithm = HybridAlgorithm()
        ctx = restructured(algorithm, medium_dag,
                           system=SystemConfig(buffer_pages=10, ilimit=0.3))
        order = list(reversed(ctx.topo_order))
        index = 0
        seen = []
        while index < len(order):
            block, index = algorithm._form_block(ctx, order, index, block_budget=3)
            assert block, "blocks must not be empty"
            seen.extend(block)
        assert seen == order

    def test_block_respects_the_page_budget(self, medium_dag):
        algorithm = HybridAlgorithm()
        ctx = restructured(algorithm, medium_dag,
                           system=SystemConfig(buffer_pages=10, ilimit=0.3))
        order = list(reversed(ctx.topo_order))
        block, _ = algorithm._form_block(ctx, order, 0, block_budget=2)
        pages = set()
        for node in block:
            pages.update(ctx.store.pages_of(node))
        assert len(pages) <= 2

    def test_oversized_first_list_still_forms_a_block(self):
        # One giant list exceeding the budget must be taken alone.
        graph = Digraph.from_arcs(
            600, [(0, dst) for dst in range(1, 600)]
        )
        algorithm = HybridAlgorithm()
        ctx = restructured(algorithm, graph,
                           system=SystemConfig(buffer_pages=10, ilimit=0.1))
        order = list(reversed(ctx.topo_order))
        # Find the position of node 0's (big) list in expansion order.
        position = order.index(0)
        block, _ = algorithm._form_block(ctx, order, position, block_budget=1)
        assert block[0] == 0


class TestSpanningTreeInternals:
    def test_serialised_indexes_are_unique_and_dense_enough(self, small_dag):
        algorithm = SpanningTreeAlgorithm()
        ctx = restructured(algorithm, small_dag)
        ctx.enter_phase(Phase.COMPUTE)
        algorithm.compute(ctx)
        for node in small_dag.nodes():
            tree = algorithm._trees[node]
            indexes = list(tree.index.values())
            assert len(indexes) == len(set(indexes))
            if indexes:
                assert max(indexes) < tree.entry_count

    def test_entry_count_includes_parent_markers(self):
        # 0 -> 1 -> 2: tree of 0 holds nodes 1, 2 plus a marker for the
        # internal node 1.
        graph = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        algorithm = SpanningTreeAlgorithm()
        ctx = restructured(algorithm, graph)
        ctx.enter_phase(Phase.COMPUTE)
        algorithm.compute(ctx)
        tree = algorithm._trees[0]
        assert sorted(tree.index) == [1, 2]
        assert tree.entry_count == 3  # two nodes + one parent marker

    def test_tree_structure_reflects_a_spanning_tree(self, small_dag):
        """Every member of a tree appears exactly once, reachable from
        the roots -- i.e. the structure really is a spanning tree of
        the successor set."""
        algorithm = SpanningTreeAlgorithm()
        ctx = restructured(algorithm, small_dag)
        ctx.enter_phase(Phase.COMPUTE)
        algorithm.compute(ctx)
        for node in small_dag.nodes():
            tree = algorithm._trees[node]
            visited = []
            stack = list(tree.roots)
            while stack:
                member = stack.pop()
                visited.append(member)
                stack.extend(tree.children.get(member, ()))
            assert sorted(visited) == sorted(tree.index)
            bits = ctx.lists[node]
            assert sorted(visited) == [
                successor for successor in range(small_dag.num_nodes)
                if (bits >> successor) & 1
            ]


class TestComputeTreeInternals:
    def test_predecessor_lists_are_materialised(self, medium_dag):
        algorithm = ComputeTreeAlgorithm(dual_representation=True)
        ctx = restructured(algorithm, medium_dag, Query.ptc([0, 10, 20]))
        store = algorithm._pred_store
        total = sum(store.length(node) for node in ctx.topo_order)
        magic_arcs = sum(
            1
            for node in ctx.topo_order
            for predecessor in medium_dag.predecessors(node)
            if predecessor in ctx.in_scope
        )
        assert total == magic_arcs
        assert all(page.kind is PageKind.PREDECESSOR
                   for node in ctx.topo_order
                   for page in store.pages_of(node))

    def test_jkb2_charges_the_inverse_relation(self, medium_dag):
        algorithm = ComputeTreeAlgorithm(dual_representation=True)
        ctx = restructured(algorithm, medium_dag, Query.ptc([0]))
        assert ctx.metrics.io.reads_of(PageKind.INVERSE_RELATION) > 0

    def test_jkb_probes_the_forward_relation_instead(self, medium_dag):
        algorithm = ComputeTreeAlgorithm(dual_representation=False)
        ctx = restructured(algorithm, medium_dag, Query.ptc([0]))
        assert ctx.metrics.io.reads_of(PageKind.INVERSE_RELATION) == 0
        assert ctx.engine.inverse_relation is None


class TestBjInternals:
    def test_adjacency_is_rewritten_not_the_graph(self, chain):
        algorithm = BjAlgorithm()
        ctx = restructured(algorithm, chain, Query.ptc([0]))
        # The context's adjacency was reduced...
        assert ctx.adjacency[0] == [1, 2, 3, 4, 5]
        assert all(ctx.adjacency[node] == [] for node in range(1, 6))
        # ...but the input graph is untouched.
        assert chain.successors(0) == [1]

    def test_full_query_skips_the_reduction(self, chain):
        algorithm = BjAlgorithm()
        ctx = restructured(algorithm, chain, Query.full())
        assert ctx.adjacency[0] == [1]


class TestSharedRestructuring:
    def test_lists_are_created_in_reverse_topological_order(self, small_dag):
        """Inter-list clustering depends on the creation order: a
        node's list page must not precede its successors' pages."""
        algorithm = BtcAlgorithm()
        ctx = restructured(algorithm, small_dag)
        first_page = {}
        for node in small_dag.nodes():
            pages = ctx.store.pages_of(node)
            if pages:
                first_page[node] = min(page.number for page in pages)
        for src, dst in small_dag.arcs():
            if src in first_page and dst in first_page:
                assert first_page[dst] <= first_page[src] + 1

    def test_restructure_io_is_attributed_to_the_restructure_phase(self, medium_dag):
        algorithm = BtcAlgorithm()
        ctx = restructured(algorithm, medium_dag)
        assert ctx.metrics.io.reads_in(Phase.RESTRUCTURE) > 0
        assert ctx.metrics.io.reads_in(Phase.COMPUTE) == 0
