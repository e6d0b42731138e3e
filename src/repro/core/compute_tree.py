"""The Compute_Tree algorithm, "JKB"/"JKB2" (Section 3.6; Jakobsson [15]).

Compute_Tree is a spanning-tree algorithm tailored to partial closure.
It differs from SPN in two ways:

* trees are built over the *arc-reversed* magic graph -- predecessor
  trees rather than successor trees; and
* a predecessor tree for node ``x`` holds only the *special* nodes: the
  source nodes that reach ``x``, plus branch nodes where two groups of
  previously unrelated sources first meet.  A special-node tree has at
  most ``2|S| - 1`` nodes, so the working set is tiny and becomes
  memory-resident as soon as the buffer pool allows (Figure 13).

Nodes of the magic graph are processed in topological order.  The tree
of ``x`` merges one contribution per magic parent ``p``: the (filtered
copy of the) tree of ``p``, placed under ``p`` itself when ``p`` is a
source.  Nodes already present anywhere in ``x``'s tree are pruned;
non-source interior nodes left with fewer than two children are spliced
out, keeping the tree minimal.  If more than one root remains after all
parents are merged, paths from unrelated source groups meet for the
first time at ``x`` itself, so ``x`` becomes a new branch (special)
node -- the "nearest common ancestor" of the reversed graph.

Because the trees are *partial* (only special nodes are stored), the
marking optimisation almost never applies -- a parent is rarely itself
a special node of the child's tree -- so JKB performs many more unions
than BTC, most of which contribute nothing (Section 6.3.3, Figure 10,
Figure 11).  This poor marking utilisation is exactly what makes JKB
lose to BTC on *wide* graphs while winning on narrow ones (Table 4).

The two implementations differ only in how the restructuring phase
obtains the immediate predecessor lists:

* ``JKB2`` assumes the dual representation -- an inverse relation
  clustered and indexed on the destination attribute -- and pays about
  twice BTC's preprocessing cost;
* ``JKB`` has only the source-clustered relation, modelled as an
  unclustered access path charging one scattered relation-page access
  per predecessor arc fetched, which blows up with the out-degree
  (Figure 7(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.base import TwoPhaseAlgorithm
from repro.core.context import ExecutionContext
from repro.storage.engine import PageId, PageKind


# A tree node is a plain two-slot list ``[node_id, children]`` rather
# than a class: the merge loop below allocates and walks hundreds of
# thousands of these per run, and list construction/indexing is
# markedly cheaper than instance creation and attribute access.  The
# representation never leaves this module.
_TreeNode = list  # [int, list[_TreeNode]]


@dataclass
class _SpecialTree:
    """A special-node predecessor tree for one magic-graph node.

    A built tree is never mutated: only the tree under construction
    grows, through fresh lists of its own.  So a later tree may hold a
    built tree's nodes (a whole subtree, or a leaf) by reference.
    """

    root: "_TreeNode | None" = None
    ids: set[int] = field(default_factory=set)
    node_count: int = 0
    """Number of tree nodes, counted by structure.

    Can exceed ``len(ids)``: a source parent whose tree is rooted at
    itself is wrapped once more (``p -> p``), and both entries are
    walked, read and generated.
    """
    internal_count: int = 0
    """Number of nodes with at least one child.

    Maintained incrementally as nodes are created: a copied subtree is
    never restructured afterwards (later merges only add sibling
    subtrees), so a node's internal/leaf status is fixed at creation.
    """

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def stored_entries(self) -> int:
        """On-disk entries: each node once, plus one marker per parent."""
        return len(self.ids) + self.internal_count


class ComputeTreeAlgorithm(TwoPhaseAlgorithm):
    """Jakobsson's Compute_Tree over special-node predecessor trees.

    ``dual_representation=True`` selects the JKB2 variant (inverse
    relation available); ``False`` selects plain JKB.
    """

    def __init__(self, dual_representation: bool = True) -> None:
        self.dual_representation = dual_representation
        self.name = "jkb2" if dual_representation else "jkb"
        self.needs_inverse = dual_representation

    # -- restructuring ------------------------------------------------------

    def restructure(self, ctx: ExecutionContext) -> None:
        self.identify_scope(ctx)
        self.sort_and_profile(ctx)
        self._build_predecessor_lists(ctx)

    def _build_predecessor_lists(self, ctx: ExecutionContext) -> None:
        """Materialise the immediate predecessor list of every magic node.

        The lists are fetched from the inverse relation (JKB2) or via
        scattered probes of the forward relation (JKB), converted to
        list format and written to a working file in topological order
        -- the computation phase reads each node's predecessor list
        back when it processes the node, so those pages compete with
        the tree pages for the buffer pool.
        """
        in_scope = ctx.in_scope
        predecessors: dict[int, list[int]] = {}
        pred_store = ctx.engine.make_list_store(PageKind.PREDECESSOR)
        charged = ctx.engine.paged
        tuple_io = 0
        for node in ctx.topo_order:
            all_preds = ctx.graph.predecessors(node)
            if self.dual_representation:
                if all_preds:
                    ctx.engine.read_predecessors(node)
                    tuple_io += len(all_preds)
            else:
                # No inverse index: one scattered page access per
                # predecessor arc retrieved.
                if charged:
                    ctx.engine.probe_arcs_unclustered(
                        len(all_preds), seed_position=node
                    )
                tuple_io += len(all_preds)
            magic_preds = [p for p in all_preds if p in in_scope]
            predecessors[node] = magic_preds
            pred_store.create_list(node, len(magic_preds))
        ctx.metrics.fold(tuple_io=tuple_io)
        self._predecessors = predecessors
        self._pred_store = pred_store

    # -- computation ---------------------------------------------------------

    def compute(self, ctx: ExecutionContext) -> None:
        metrics = ctx.metrics
        position = ctx.position
        levels = ctx.levels
        lists = ctx.lists
        store = ctx.store
        store_read = store.read_list
        store_create = store.create_list
        pred_read = self._pred_store.read_list
        predecessors = self._predecessors
        merge = self._merge
        sources = set(ctx.query.sources or ctx.topo_order)
        trees: dict[int, _SpecialTree] = {}
        self._trees = trees
        self._sources = sources
        # The per-arc counters accumulate in locals and fold into
        # ``metrics`` once at the end -- the final totals (and every
        # storage call, in the same order) are identical.
        arcs_considered = arcs_marked = locality = unions = 0
        walked = duplicates = generated = 0

        for node in ctx.topo_order:
            tree = _SpecialTree()
            tree_ids = tree.ids
            merged_roots: list[_TreeNode] = []
            preds = predecessors[node]
            if preds:
                # Bring the node's materialised predecessor list in.
                pred_read(node)
                node_level = levels[node]
                # Parents are merged latest-topological-position first:
                # a later parent's tree can contain an earlier parent
                # (the analogue of BTC's child ordering), giving the
                # marking test below its best chance -- which is still
                # poor, because only *special* parents ever appear in a
                # tree.
                parents = sorted(preds, key=position.__getitem__, reverse=True)
                for parent in parents:
                    arcs_considered += 1
                    parent_tree = trees[parent]
                    if parent in tree_ids:
                        # The parent itself is a special node already in
                        # this tree: the only case where the marking
                        # optimisation applies to partial lists.  Because
                        # trees store *only* special nodes, this is rare
                        # -- the poor marking utilisation of Section
                        # 6.3.3.
                        arcs_marked += 1
                        continue
                    locality += levels[parent] - node_level
                    # The tree a parent arc contributes: T(p), under p
                    # itself when p is a source.
                    parent_root = parent_tree.root
                    parent_ids = parent_tree.ids
                    wrapped = parent in sources
                    if wrapped:
                        children = [parent_root] if parent_root is not None else []
                        contribution = [parent, children]
                    elif parent_root is not None:
                        contribution = parent_root
                    else:
                        # The parent is a non-source with an empty tree:
                        # nothing can flow through this arc.
                        continue
                    # Perform the union even when it cannot contribute
                    # any new node (the paper's arc (j, d) example): the
                    # parent's tree must still be brought into memory.
                    unions += 1
                    if parent_ids:
                        store_read(parent)
                    if not tree_ids.isdisjoint(parent_ids):
                        copied, read, pruned, derived = merge(contribution, tree, sources)
                        walked += read
                        duplicates += pruned
                        generated += derived
                        if copied is not None:
                            merged_roots.append(copied)
                        continue
                    # Nothing of the contribution is in this tree yet, and
                    # a built tree has no non-source node with fewer than
                    # two children, so the merge would prune and splice
                    # nothing: its copy would equal the contribution.
                    # Share it, and count the walk the copy would make.
                    merged_roots.append(contribution)
                    tree_ids |= parent_ids
                    size = parent_tree.node_count
                    internal = parent_tree.internal_count
                    if wrapped:
                        tree_ids.add(parent)
                        size += 1
                        if parent_root is not None:
                            internal += 1
                    walked += size
                    generated += size
                    tree.node_count += size
                    tree.internal_count += internal

            if len(merged_roots) > 1:
                # Unrelated source groups meet for the first time here:
                # the node itself becomes a branch (special) node.
                tree.root = [node, merged_roots]
                tree.node_count += 1
                tree.internal_count += 1
                tree_ids.add(node)
                generated += 1
            elif merged_roots:
                tree.root = merged_roots[0]
            trees[node] = tree
            store_create(node, tree.stored_entries)
            lists[node] = 0  # flat lists are not used by JKB

        metrics.fold(
            arcs_considered=arcs_considered,
            arcs_marked=arcs_marked,
            unmarked_locality_total=locality,
            list_unions=unions,
            list_reads=unions,
            tuple_io=walked,
            duplicates=duplicates,
            tuples_generated=generated,
        )

    def _merge(
        self,
        contribution: _TreeNode,
        tree: _SpecialTree,
        sources: set[int],
    ) -> "tuple[_TreeNode | None, int, int, int]":
        """Copy the contribution into ``tree``, pruning and splicing.

        Returns the copied root (or its spliced replacement; None when
        everything was already present) and the merge's counts: entries
        read, duplicates pruned and nodes generated.  The copy is
        bottom-up: only nodes that are still *special with respect to
        the new tree* survive -- sources not yet present, and interior
        nodes that still join two or more surviving groups.  Iterative
        post-order traversal: special trees can be ``2|S|`` deep.

        This is the hottest loop of JKB/JKB2, so the counters are kept
        in locals and returned for the caller to fold once per run.
        """
        tree_ids = tree.ids
        tuple_io = duplicates = generated = internal = 0
        result: _TreeNode | None = None
        # The duplicate test runs *before* a node is pushed (or, for
        # leaves, visited inline), so a frame only ever holds a node
        # whose subtree is being copied -- pruned subtrees never
        # allocate a frame at all.
        tuple_io += 1
        if contribution[0] in tree_ids:
            # Present already, with every source that reaches it (see
            # module docstring): a duplicate encounter -- prune the
            # whole contribution without deriving anything.
            return None, tuple_io, duplicates + 1, 0
        # Each frame: [node, next_child_index, surviving_children].
        # Leaves never get a frame of their own -- they are visited
        # inline while expanding their parent (the majority of tree
        # nodes are leaf sources, so this halves the traversal cost).
        stack = [[contribution, 0, []]]
        while stack:
            frame = stack[-1]
            node = frame[0]
            child_index = frame[1]
            children = node[1]
            n_children = len(children)
            while child_index < n_children:
                child = children[child_index]
                child_index += 1
                tuple_io += 1
                child_id = child[0]
                if child_id in tree_ids:
                    # Duplicate encounter: prune the whole subtree
                    # without descending.
                    duplicates += 1
                    continue
                grandchildren = child[1]
                if grandchildren:
                    frame[1] = child_index
                    stack.append([child, 0, []])
                    break
                # Inline leaf visit: no frame of its own.  A non-source
                # leaf is never special: spliced out.  A surviving leaf
                # is shared, not copied.
                if child_id in sources:
                    tree_ids.add(child_id)
                    generated += 1
                    frame[2].append(child)
            else:
                # Every child is examined: the node's copy is decided.
                stack.pop()
                surviving = frame[2]
                node_id = node[0]
                is_source = node_id in sources
                if not is_source and len(surviving) < 2:
                    # A non-source interior node that no longer branches
                    # is not special any more: splice it out.
                    copy = surviving[0] if surviving else None
                else:
                    # A new special node: one successful deduction.
                    copy = [node_id, surviving]
                    if surviving:
                        internal += 1
                    tree_ids.add(node_id)
                    generated += 1
                if copy is not None:
                    if stack:
                        stack[-1][2].append(copy)
                    else:
                        result = copy
        tree.node_count += generated
        tree.internal_count += internal
        return result, tuple_io, duplicates, generated

    # -- output -----------------------------------------------------------------

    def write_out(self, ctx: ExecutionContext) -> list[int]:
        """Assemble the answer by inverting the trees, then write it.

        Every tree is read once (cheap: the trees are tiny and usually
        memory-resident) and the successor list of each source node is
        written to the output file.
        """
        metrics = ctx.metrics
        trees = self._trees
        sources = self._sources
        read_list = ctx.store.read_list
        answer: dict[int, int] = {}
        get = answer.get
        for node in ctx.topo_order:
            ids = trees[node].ids
            if not ids:
                continue
            read_list(node)
            # The sources in T(x) are exactly the sources that reach x.
            # A node can appear in its own tree as a branch (special)
            # node; it does not reach itself in an acyclic graph.
            reaching = ids & sources
            reaching.discard(node)
            node_bit = 1 << node
            for source in reaching:
                answer[source] = get(source, 0) | node_bit

        output_store = ctx.engine.make_list_store(PageKind.OUTPUT)
        output_nodes = [s for s in ctx.query.sources or ctx.topo_order if s in ctx.in_scope]
        charged = ctx.engine.paged
        output_pages: set[PageId] = set()
        output_tuples = 0
        lists = ctx.lists
        for source in output_nodes:
            bits = get(source, 0)
            lists[source] = bits
            count = bits.bit_count()
            output_tuples += count
            output_store.create_list(source, count)
            if charged:
                output_pages.update(output_store.pages_of(source))
        if charged:
            ctx.engine.flush_output(output_pages)

        metrics.set_totals(
            distinct_tuples=sum(len(tree.ids) for tree in trees.values()),
            output_tuples=output_tuples,
        )
        return output_nodes
