"""The Spanning Tree algorithm, "SPN" (Section 3.5; Jakobsson [14],
Dar & Jagadish [6]).

Successor information is kept as successor *spanning trees* rather than
flat lists.  The structural information pays off during unions: when a
node ``u`` of the source tree is already present in the target, none of
``u``'s descendants need to be fetched -- they are guaranteed to be
present too (every node enters a tree together with its complete
successor subtree), so the whole subtree is pruned.

Storage-wise a successor tree is serialised with each parent (internal
node) stored once, followed by its children (Section 4.1), so a tree
occupies *more* entries than the equivalent flat list -- the overhead
shrinks as the out-degree grows, which is why SPN closes the gap with
BTC at high degrees in Figure 7(a).  Pruning reduces *tuple* I/O, but a
page is saved only when an entire block-aligned region of the source
tree is skipped; the paper found that almost always every page of the
source tree had to be accessed anyway, and this implementation models
exactly that: only the blocks containing visited entries are charged,
plus the tree's first block, which must always be read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.base import TwoPhaseAlgorithm
from repro.core.context import ExecutionContext
from repro.storage.engine import BLOCK_CAPACITY, CAP_PAGE_COSTS


@dataclass
class _Tree:
    """One successor spanning tree and its serialised layout.

    ``index`` maps a graph node to the entry index of its copy in the
    tree's serialisation (parent markers occupy entries of their own,
    so indexes reflect the on-disk layout).  Entry indexes are final:
    a node's subtree is copied in one contiguous append and never
    receives later insertions -- only the implicit root gains new
    children across unions.
    """

    roots: list[int] = field(default_factory=list)
    children: dict[int, list[int]] = field(default_factory=dict)
    index: dict[int, int] = field(default_factory=dict)
    entry_count: int = 0


class SpanningTreeAlgorithm(TwoPhaseAlgorithm):
    """BTC's processing order and marking, over successor trees."""

    name = "spn"

    def build_lists(self, ctx: ExecutionContext) -> None:
        """Create *empty* lists: trees are built from scratch.

        Unlike the flat-list algorithms, the expanded tree of a node is
        not seeded with its immediate successors -- each child arrives
        together with its complete subtree during the union that
        processes it.  This is what makes subtree pruning sound: a node
        is in the membership set only if its entire successor set is.
        """
        self._trees: dict[int, _Tree] = {}
        for node in reversed(ctx.topo_order):
            ctx.store.create_list(node, 0)
            ctx.lists[node] = 0
            ctx.acquired[node] = 0
            self._trees[node] = _Tree()

    def compute(self, ctx: ExecutionContext) -> None:
        position = ctx.position
        metrics = ctx.metrics
        # Engines without a page-cost model ignore the per-union list of
        # visited blocks, so tracking it would be pure overhead.
        self._charged = ctx.engine.supports(CAP_PAGE_COSTS)
        arcs_considered = arcs_marked = locality = 0
        for node in reversed(ctx.topo_order):
            children = sorted(ctx.adjacency[node], key=position.__getitem__)
            for child in children:
                arcs_considered += 1
                if (ctx.lists[node] >> child) & 1:
                    # The child entered this tree inside an earlier
                    # child's subtree: the arc is redundant.
                    arcs_marked += 1
                    continue
                locality += ctx.arc_locality(node, child)
                self._union_tree(ctx, node, child)
        metrics.fold(
            arcs_considered=arcs_considered,
            arcs_marked=arcs_marked,
            unmarked_locality_total=locality,
        )

    # -- tree union --------------------------------------------------------------

    def _union_tree(self, ctx: ExecutionContext, target: int, child: int) -> None:
        """Graft ``child`` and the unpruned part of its tree onto ``target``."""
        charged = self._charged
        target_tree = self._trees[target]
        child_tree = self._trees[child]
        visited_blocks: set[int] = set()
        if charged and child_tree.entry_count:
            # The first page of the child's tree is always accessed.
            visited_blocks.add(0)

        t_children = target_tree.children
        t_index = target_tree.index
        appended_before = entry_count = target_tree.entry_count
        # The child itself becomes a new root child of the target tree.
        target_tree.roots.append(child)
        t_index[child] = entry_count
        entry_count += 1

        # Pre-order DFS over the child's tree, pruning subtrees rooted at
        # nodes already present in the target.  A node occurs once in a
        # tree, so the target's index is its membership set.  Each frame
        # is (parent, its unvisited children, its children in the
        # target): every parent is copied in this union, so its run of
        # children in the target starts out empty.
        visited_tuples = 0
        duplicates = 0
        child_index = child_tree.index
        child_children = child_tree.children
        visit_block = visited_blocks.add
        stack = [(child, iter(child_tree.roots), [])]
        while stack:
            parent, nodes, siblings = stack[-1]
            for node in nodes:
                if charged:
                    # The engine charges per block of the serialised
                    # source tree that holds a visited entry.
                    visit_block(child_index[node] // BLOCK_CAPACITY)
                visited_tuples += 1
                if node in t_index:
                    # Present already -- together with its whole subtree;
                    # prune without descending.
                    duplicates += 1
                    continue
                if not siblings:
                    # The parent just became internal: it is stored once
                    # as a parent marker ahead of its child run.
                    t_children[parent] = siblings
                    entry_count += 1
                siblings.append(node)
                t_index[node] = entry_count
                entry_count += 1
                grandchildren = child_children.get(node)
                if grandchildren:
                    stack.append((node, iter(grandchildren), []))
                    break
            else:
                stack.pop()
        target_tree.entry_count = entry_count
        # Every node enters a tree with its whole successor set, so the
        # union adds exactly {child} | S(child).
        lists = ctx.lists
        lists[target] |= lists[child] | (1 << child)

        # One tree union charges like one list union: one list I/O,
        # ``visited_tuples`` entries read and generated.
        ctx.metrics.count_union(visited_tuples, duplicates)

        ctx.store.read_blocks(child, sorted(visited_blocks))
        appended = entry_count - appended_before
        if appended:
            ctx.store.append(target, appended)
