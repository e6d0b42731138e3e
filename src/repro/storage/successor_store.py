"""Paged successor-list storage.

After the restructuring phase the input tuples live in *successor list
format*: each 2048-byte page is divided into 30 blocks of up to 15
successor entries, so a page holds up to 450 successors (Section 5.1).
A successor list is a chain of blocks, preferably on one page
(intra-list clustering); lists created consecutively share pages
(inter-list clustering).  The algorithms create lists in reverse
topological order, so lists that are unioned together tend to be
neighbours on disk -- the layout decision described in [7].

When a list grows and its page has no free block, the page must be
*split*: a list replacement (placement) policy decides whether the
expanding list continues on a fresh page or another list on the page is
relocated to make room (Section 5.1: "A list replacement policy is used
when a successor list expands to the point where at least one of the
other lists on the page must be moved to a new page").  The paper found
the choice secondary; three policies are provided so that finding can
be reproduced.

The store tracks *layout* only -- which blocks of which pages belong to
which list and how full they are.  List *contents* are kept by the
algorithms (as bitsets or trees); keeping the two separate lets unions
run at bitset speed while page touches stay faithful.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.chaos.faults import FaultKind, FaultPlan, active_plan
from repro.errors import StorageError, TornWriteError
from repro.obs.tracing import EV_BLOCK_RELOCATE, EV_BLOCK_SPLIT
from repro.storage.buffer import BufferPool
from repro.storage.page import (
    BLOCK_CAPACITY,
    BLOCKS_PER_PAGE,
    PageId,
    PageKind,
    validate_block_geometry,
)


class ListPlacementPolicy(enum.Enum):
    """What to do when a list must grow on a full page.

    * ``MOVE_SELF`` -- the expanding list's new blocks go to the store's
      current append page (no relocation I/O; intra-list clustering
      degrades).
    * ``MOVE_LARGEST`` -- the largest *other* list on the page is
      relocated to a fresh page, freeing blocks in place (costs the
      relocation's page writes; preserves the expanding list's
      clustering).
    * ``MOVE_SMALLEST`` -- as above but the smallest other list moves
      (cheapest relocation, frees the fewest blocks).
    """

    MOVE_SELF = "move_self"
    MOVE_LARGEST = "move_largest"
    MOVE_SMALLEST = "move_smallest"


@dataclass
class _ListLayout:
    """Where one successor list lives: (page, used-entries) per block.

    ``pages`` holds the store's id of each distinct page of ``blocks`` in
    first-block order, kept current as blocks come and go.
    """

    blocks: list[list[int]] = field(default_factory=list)  # [page, used] pairs
    pages: list[PageId] = field(default_factory=list)
    length: int = 0


class SuccessorListStore:
    """Block-structured successor-list pages behind a buffer pool.

    Parameters
    ----------
    pool:
        The buffer pool all page touches are charged to.
    kind:
        Page kind for this store's pages (``SUCCESSOR`` for working
        lists, ``OUTPUT`` for the final result file).
    policy:
        The list placement policy applied on page splits.
    """

    def __init__(
        self,
        pool: BufferPool,
        kind: PageKind = PageKind.SUCCESSOR,
        policy: ListPlacementPolicy = ListPlacementPolicy.MOVE_SELF,
        blocks_per_page: int = BLOCKS_PER_PAGE,
        block_capacity: int = BLOCK_CAPACITY,
    ) -> None:
        validate_block_geometry(blocks_per_page, block_capacity)
        self.pool = pool
        self.kind = kind
        self.policy = policy
        self.blocks_per_page = blocks_per_page
        self.block_capacity = block_capacity
        self._layouts: dict[int, _ListLayout] = {}
        self._free_blocks: dict[int, int] = {}  # page number -> free block slots
        self._lists_on_page: dict[int, set[int]] = {}
        self._page_ids: list[PageId] = []  # page number -> its one PageId
        self._append_page: int | None = None
        self._relocating = False
        self.splits = 0
        self.relocations = 0

    # -- queries -------------------------------------------------------------

    def __contains__(self, node: int) -> bool:
        return node in self._layouts

    def length(self, node: int) -> int:
        """Current number of entries in ``node``'s list."""
        return self._layouts[node].length if node in self._layouts else 0

    def pages_of(self, node: int) -> list[PageId]:
        """The distinct pages holding ``node``'s list, without charging I/O."""
        layout = self._layouts.get(node)
        return list(layout.pages) if layout is not None else []

    def page_count(self, node: int) -> int:
        """How many pages ``node``'s list spans."""
        layout = self._layouts.get(node)
        return len(layout.pages) if layout is not None else 0

    # -- lifecycle -------------------------------------------------------------

    def create_list(self, node: int, initial_entries: int = 0) -> None:
        """Allocate a new (possibly empty) list for ``node``.

        Lists should be created in the order they will be processed
        (reverse topological order) so that consecutive lists share
        pages -- the inter-list clustering of [7].  The pages receiving
        the initial entries are materialised in the buffer pool as new
        dirty pages (no read is charged: they never existed on disk).
        """
        if node in self._layouts:
            raise StorageError(f"list for node {node} already exists")
        layout = _ListLayout()
        self._layouts[node] = layout
        if initial_entries:
            self._extend(node, layout, initial_entries)

    def read_list(self, node: int) -> int:
        """Touch every page of ``node``'s list; return the page count.

        This is what a successor-list *read* costs: each distinct page
        of the list is requested from the buffer pool.
        """
        layout = self._require(node)
        self.pool.access_pages(layout.pages)
        return len(layout.pages)

    def read_blocks(self, node: int, block_indexes: list[int]) -> int:
        """Touch only the pages covering the given block indexes.

        The spanning-tree algorithms skip pruned subtrees, so they may
        avoid reading some blocks of a list (Section 3.5).  Returns the
        number of distinct pages touched.
        """
        layout = self._require(node)
        pages: dict[PageId, None] = {}
        for index in block_indexes:
            if 0 <= index < len(layout.blocks):
                pages[self._page_ids[layout.blocks[index][0]]] = None
        self.pool.access_pages(pages)
        return len(pages)

    def append(self, node: int, count: int) -> None:
        """Append ``count`` new entries to ``node``'s list.

        The last block's page is touched dirty; new blocks are allocated
        according to the placement policy, possibly splitting a page.
        """
        if count <= 0:
            return
        layout = self._require(node)
        self._extend(node, layout, count)

    def drop_list(self, node: int) -> None:
        """Free ``node``'s list without any I/O (memory-resident discard)."""
        layout = self._layouts.pop(node, None)
        if layout is not None:
            self._release_blocks(node, layout)

    # -- internals ---------------------------------------------------------------

    def _require(self, node: int) -> _ListLayout:
        layout = self._layouts.get(node)
        if layout is None:
            raise StorageError(f"no successor list exists for node {node}")
        return layout

    def _extend(self, node: int, layout: _ListLayout, count: int) -> None:
        plan = active_plan()
        remaining = count
        # Fill the tail block first.
        if layout.blocks:
            tail = layout.blocks[-1]
            room = self.block_capacity - tail[1]
            if room > 0:
                take = min(room, remaining)
                if plan is not None:
                    self._check_torn_write(plan, node, tail[0])
                tail[1] += take
                remaining -= take
                self.pool.access(self._page_ids[tail[0]], dirty=True)
        while remaining > 0:
            page = self._page_for_new_block(node, layout)
            if plan is not None:
                self._check_torn_write(plan, node, page)
            take = min(self.block_capacity, remaining)
            layout.blocks.append([page, take])
            page_id = self._page_ids[page]
            if page_id not in layout.pages:
                layout.pages.append(page_id)
            self._free_blocks[page] -= 1
            self._lists_on_page[page].add(node)
            remaining -= take
        layout.length += count

    def _check_torn_write(self, plan: FaultPlan, node: int, page: int) -> None:
        """Fault site: one successor-block write (chaos plane).

        Called per block only while a plan is armed.  The check sits
        *before* the layout mutation, so an injected torn write leaves
        the store's accounting exactly as it was -- the injury is
        detected, not silently absorbed -- and a strict audit after the
        failure still passes.
        """
        event = plan.fire(FaultKind.TORN_WRITE)
        if event is not None:
            raise TornWriteError(
                f"injected torn write of a successor block of node {node} on "
                f"page {page} (chaos opportunity {event.opportunity})"
            )

    def _page_for_new_block(self, node: int, layout: _ListLayout) -> int:
        """Pick the page for a list's next block, splitting if needed."""
        if layout.blocks:
            last_page = layout.blocks[-1][0]
            if self._free_blocks.get(last_page, 0) > 0:
                self.pool.access(self._page_ids[last_page], dirty=True)
                return last_page
            # The list's page is full: this is a page split.  Relocation
            # is suppressed while already relocating, so a victim's move
            # cannot cascade into further splits.
            self.splits += 1
            if self.pool.collector is not None:
                self.pool.collector.emit(
                    EV_BLOCK_SPLIT, self.kind.value, last_page, detail=f"node={node}"
                )
            if self.policy is not ListPlacementPolicy.MOVE_SELF and not self._relocating:
                self._relocating = True
                try:
                    freed = self._relocate_other_list(node, last_page)
                finally:
                    self._relocating = False
                if freed:
                    self.pool.access(self._page_ids[last_page], dirty=True)
                    return last_page
        return self._append_page_for(node)

    def _append_page_for(self, node: int) -> int:
        """The store's shared fill page (allocating a fresh one if full)."""
        page = self._append_page
        if page is None or self._free_blocks.get(page, 0) <= 0:
            page = len(self._page_ids)
            self._page_ids.append(PageId(self.kind, page))
            self._free_blocks[page] = self.blocks_per_page
            self._lists_on_page[page] = set()
            self._append_page = page
            self.pool.create(self._page_ids[page])
        else:
            self.pool.access(self._page_ids[page], dirty=True)
        return page

    def _relocate_other_list(self, node: int, page: int) -> bool:
        """Move another list's blocks off ``page``; return whether any moved."""
        candidates = [other for other in self._lists_on_page[page] if other != node]
        if not candidates:
            return False
        key = self._layouts
        if self.policy is ListPlacementPolicy.MOVE_LARGEST:
            victim = max(candidates, key=lambda other: key[other].length)
        else:
            victim = min(candidates, key=lambda other: key[other].length)
        victim_layout = key[victim]

        # Read the victim's pages (it must be brought in to be moved)...
        self.pool.access_pages(victim_layout.pages)
        # ...free its blocks on *this* page and re-allocate them elsewhere.
        moved_entries = 0
        kept_blocks = []
        for block in victim_layout.blocks:
            if block[0] == page:
                moved_entries += block[1]
                self._free_blocks[page] += 1
            else:
                kept_blocks.append(block)
        victim_layout.blocks = kept_blocks
        victim_layout.length -= moved_entries
        self._lists_on_page[page].discard(victim)
        if moved_entries:
            victim_layout.pages.remove(self._page_ids[page])
            self.relocations += 1
            if self.pool.collector is not None:
                self.pool.collector.emit(
                    EV_BLOCK_RELOCATE, self.kind.value, page, detail=f"victim={victim}"
                )
            self._extend(victim, victim_layout, moved_entries)
        return self._free_blocks[page] > 0

    def _release_blocks(self, node: int, layout: _ListLayout) -> None:
        for page, _used in layout.blocks:
            self._free_blocks[page] += 1
        for page in layout.pages:
            self._lists_on_page[page.number].discard(node)
