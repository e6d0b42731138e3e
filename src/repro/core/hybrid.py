"""The Hybrid algorithm (Section 3.2 of the paper; Agrawal & Jagadish [2]).

Successor lists are expanded a *block* at a time: a diagonal block of
lists is pinned in memory, and when an off-diagonal list is brought in
it is joined with every diagonal list that needs it, so several unions
share the cost of a single fetch.  ILIMIT is the fraction of the buffer
pool reserved for the diagonal block; ILIMIT = 0 disables blocking and
makes the algorithm identical to BTC (the ``HYB-0`` curve of Figure 6).

Blocking has three costs the paper identifies (and this implementation
reproduces):

1. the pinned diagonal pages shrink the effective buffer pool;
2. expanding diagonal lists can overflow memory, forcing *dynamic
   reblocking* (diagonal pages are discarded mid-block);
3. each diagonal list's off-diagonal children are processed before its
   diagonal children, deviating from the strict topological order and
   therefore missing marking opportunities, which expands redundant
   arcs.
"""

from __future__ import annotations

from repro.core.base import TwoPhaseAlgorithm
from repro.core.btc import BtcAlgorithm
from repro.core.context import ExecutionContext
from repro.errors import BufferPoolExhaustedError
from repro.obs.tracing import EV_BLOCK_REBLOCK
from repro.storage.engine import PageId


class HybridAlgorithm(TwoPhaseAlgorithm):
    """Blocked expansion of successor lists with a pinned diagonal block."""

    name = "hyb"

    def compute(self, ctx: ExecutionContext) -> None:
        block_budget = int(ctx.system.ilimit * ctx.system.buffer_pages)
        if block_budget <= 0:
            # No room for a diagonal block: degenerate to BTC.
            BtcAlgorithm().compute(ctx)
            return

        order = list(reversed(ctx.topo_order))  # expansion order
        index = 0
        while index < len(order):
            block, index = self._form_block(ctx, order, index, block_budget)
            self._expand_block(ctx, block)

    # -- block formation ------------------------------------------------------

    def _form_block(
        self,
        ctx: ExecutionContext,
        order: list[int],
        start: int,
        block_budget: int,
    ) -> tuple[list[int], int]:
        """Take the next run of lists whose pages fit the block budget."""
        block: list[int] = []
        pages: set[PageId] = set()
        index = start
        while index < len(order):
            node = order[index]
            node_pages = set(ctx.store.pages_of(node))
            if block and len(pages | node_pages) > block_budget:
                break
            pages |= node_pages
            block.append(node)
            index += 1
        return block, index

    # -- block expansion -------------------------------------------------------

    def _expand_block(self, ctx: ExecutionContext, block: list[int]) -> None:
        diagonal = set(block)
        # Insertion-ordered: the unpin sweeps below iterate it, and a
        # set of PageIds would iterate in hash order.
        pinned: dict[PageId, None] = {}
        unpinned_lists: set[int] = set()
        metrics = ctx.metrics
        position = ctx.position
        can_pin = ctx.engine.paged

        def pin_list(node: int) -> None:
            if node in unpinned_lists:
                return
            for page in ctx.store.pages_of(node):
                # One reblock may unpin nothing (the victim's pages are
                # all still needed), so reblock until the pin holds,
                # reblock() raises, or it discards this list itself.
                while page not in pinned:
                    if node in unpinned_lists:
                        return
                    try:
                        if can_pin:
                            ctx.engine.pin_page(page)
                        pinned[page] = None
                    except BufferPoolExhaustedError:
                        reblock()

        def reblock() -> None:
            """Dynamic reblocking: discard the largest pinned list."""
            # Folded immediately (not accumulated) so the count survives
            # the raise below when the block cannot shrink any further.
            metrics.fold(reblocking_events=1)
            victim = max(
                (node for node in block if node not in unpinned_lists),
                key=ctx.store.page_count,
                default=None,
            )
            if victim is None:
                raise BufferPoolExhaustedError(
                    "hybrid block cannot shrink further; reduce ILIMIT"
                )
            unpinned_lists.add(victim)
            if ctx.collector is not None:
                ctx.collector.emit(EV_BLOCK_REBLOCK, detail=f"victim={victim}")
            # A pinned page stays pinned while a live block list sits on
            # it; the store's page directory says which lists do.
            live = diagonal - unpinned_lists
            for page in list(pinned):
                if live.isdisjoint(ctx.store.lists_on(page)):
                    if can_pin:
                        ctx.engine.unpin_page(page)
                    del pinned[page]

        arcs_considered = arcs_marked = locality = 0
        try:
            for node in block:
                pin_list(node)

            # Pass 1: off-diagonal children, grouped so one fetch of an
            # off-diagonal list serves every diagonal list that needs it.
            needers: dict[int, list[int]] = {}
            for node in block:
                for child in ctx.adjacency[node]:
                    if child not in diagonal:
                        needers.setdefault(child, []).append(node)
            # Off-diagonal lists are visited nearest-first (highest
            # topological position first), mirroring the right-to-left scan
            # of the successor matrix in Figure 2.
            for child in sorted(needers, key=position.__getitem__, reverse=True):
                for node in sorted(
                    needers[child], key=position.__getitem__, reverse=True
                ):
                    arcs_considered += 1
                    if (ctx.acquired[node] >> child) & 1:
                        arcs_marked += 1
                        continue
                    locality += ctx.arc_locality(node, child)
                    self._guarded_union(ctx, node, child, reblock, pin_list)

            # Pass 2: diagonal children, in the strict reverse topological
            # order (a diagonal child's own expansion is already complete).
            for node in sorted(block, key=position.__getitem__, reverse=True):
                children = sorted(
                    (child for child in ctx.adjacency[node] if child in diagonal),
                    key=position.__getitem__,
                )
                for child in children:
                    arcs_considered += 1
                    if (ctx.acquired[node] >> child) & 1:
                        arcs_marked += 1
                        continue
                    locality += ctx.arc_locality(node, child)
                    self._guarded_union(ctx, node, child, reblock, pin_list)
        finally:
            # The fold runs even when reblocking exhausts the pool, so
            # an aborted run still reports the arcs it processed.
            metrics.fold(
                arcs_considered=arcs_considered,
                arcs_marked=arcs_marked,
                unmarked_locality_total=locality,
            )
            # The unpin sweep must run on the exception path too: a
            # BufferPoolExhaustedError that escapes reblock() would
            # otherwise leave the whole diagonal block pinned, silently
            # shrinking the pool for everything that runs after it.
            if can_pin:
                for page in pinned:
                    ctx.engine.unpin_page(page)

    def _guarded_union(self, ctx, node, child, reblock, pin_list) -> None:
        """A union that shrinks the block when memory pressure builds.

        At least one unpinned frame must be available before the union
        starts, so the off-diagonal list (and any freshly allocated
        pages of the expanding list) can be faulted in without the
        union failing halfway through.
        """
        engine = ctx.engine
        while engine.pinned_count >= engine.frame_capacity - 1 and engine.pinned_count:
            reblock()
        ctx.union_list(node, child)
        pin_list(node)
