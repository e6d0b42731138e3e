"""The input arc relation on simulated disk.

Section 4 of the paper: "We assume that the corresponding relation is
stored on disk as a set of tuples clustered on the source attribute.
We also assume the existence of a clustered index on the source
attribute."  The JKB2 implementation of Compute_Tree additionally
assumes a *dual representation*: an inverse relation clustered and
indexed on the destination attribute (Section 4.1).

:class:`ArcRelation` lays the arc tuples out in (source, destination)
order, 256 tuples per 2048-byte page, and models a two-level clustered
index (a root page plus leaf pages of 256 entries).  All accesses are
charged through a :class:`~repro.storage.buffer.BufferPool`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from repro.graphs.digraph import Digraph
from repro.storage.buffer import BufferPool
from repro.storage.page import (
    INDEX_ENTRIES_PER_PAGE,
    TUPLES_PER_PAGE,
    PageId,
    PageKind,
    pages_needed,
)


class ArcRelation:
    """Arc tuples clustered on the source attribute, with a clustered index.

    Parameters
    ----------
    graph:
        The logical graph whose arcs the relation stores.  The arc order
        on disk is (source, destination), matching source clustering.
    kind / index_kind:
        Page kinds used for data and index pages, so the forward and
        inverse relations are distinct page spaces in the buffer pool.
    """

    def __init__(
        self,
        graph: Digraph,
        kind: PageKind = PageKind.RELATION,
        index_kind: PageKind = PageKind.INDEX,
    ) -> None:
        self._graph = graph
        # offsets[v] = position of node v's first tuple in the file.
        # The graph's CSR row offsets are exactly this layout (arcs
        # clustered on source, sorted), so the relation shares them
        # zero-copy instead of re-deriving them per node.
        self._offsets = graph.csr_offsets
        self.num_tuples = self._offsets[graph.num_nodes]
        self.num_pages = pages_needed(self.num_tuples, TUPLES_PER_PAGE)
        self.num_index_leaves = pages_needed(graph.num_nodes, INDEX_ENTRIES_PER_PAGE)
        # Every access charges one of these ids, so each is built once
        # (the index pages are the leaves, then the root).
        self._pages = [PageId(kind, n) for n in range(self.num_pages)]
        self._index_pages = [PageId(index_kind, n) for n in range(self.num_index_leaves + 1)]
        # node -> (the pages one indexed read charges, the node's row),
        # built on the node's first read: a search re-reads a node once
        # per source that reaches it.
        self._reads: dict[int, tuple[tuple[PageId, ...], Sequence[int]]] = {}

    # -- layout ------------------------------------------------------------

    def pages_for_node(self, node: int) -> range:
        """The data-page numbers holding ``node``'s tuples (may be empty)."""
        start, end = self._offsets[node], self._offsets[node + 1]
        if start == end:
            return range(0)
        first = start // TUPLES_PER_PAGE
        last = (end - 1) // TUPLES_PER_PAGE
        return range(first, last + 1)

    def page_of_arc(self, src: int, dst: int) -> int:
        """The data-page number holding the tuple (src, dst).

        Raises :class:`KeyError` if the arc is not in the relation.
        """
        successors = self._graph.successors(src)
        position = bisect_left(successors, dst)
        if position == len(successors) or successors[position] != dst:
            raise KeyError(f"arc ({src}, {dst}) not in relation")
        return (self._offsets[src] + position) // TUPLES_PER_PAGE

    # -- charged access paths ------------------------------------------------

    def scan(self, pool: BufferPool) -> int:
        """Sequentially read the whole relation; return pages touched.

        Used by full-closure restructuring, which converts every tuple
        to successor-list format in one pass.
        """
        pool.access_pages(self._pages)
        return self.num_pages

    def read_successors(self, node: int, pool: BufferPool) -> Sequence[int]:
        """Fetch ``node``'s successor tuples via the clustered index.

        Charges the index root + leaf access and the data page(s) of the
        node's tuple run, in that order and in one pool call, then
        returns the successors.  Every read charges its pages; only
        building the page list and the row is done once per node.
        Selection-query restructuring uses this to search forward from
        the source nodes (Section 3.6: "this can be done efficiently if
        the input relation is clustered and indexed on the source
        attribute").
        """
        read = self._reads.get(node)
        if read is None:
            numbers = self.pages_for_node(node)
            index = self._index_pages
            pages = (
                index[-1],
                index[node // INDEX_ENTRIES_PER_PAGE],
                *self._pages[numbers.start:numbers.stop],
            )
            read = self._reads[node] = (pages, self._graph.successors(node))
        pool.access_pages(read[0])
        return read[1]

    def probe_arcs_unclustered(self, node_arcs: int, pool: BufferPool, seed_position: int) -> None:
        """Charge ``node_arcs`` unclustered tuple accesses.

        Models fetching tuples through an access path that is *not*
        clustered on the lookup attribute: each matching tuple may live
        on a different page, so one data-page access is charged per
        tuple, spread across the file.  This is how the plain JKB
        implementation (no inverse relation) obtains immediate
        predecessor lists; its preprocessing cost therefore grows with
        the arc count, reproducing the blow-up of Figure 7(a).
        """
        if self.num_pages == 0:
            return
        for step in range(node_arcs):
            # Deterministic scatter across the file (linear congruence).
            number = (seed_position * 2654435761 + step * 40503) % self.num_pages
            pool.access(self._pages[number])


class InverseArcRelation(ArcRelation):
    """The inverse relation: arcs clustered and indexed on destination.

    Built from the arc-reversed graph, so "successors" of a node in this
    relation are its *predecessors* in the original graph.  JKB2 reads
    immediate predecessor lists through this relation (Section 4.1).
    """

    def __init__(self, graph: Digraph) -> None:
        super().__init__(
            graph.reverse(),
            kind=PageKind.INVERSE_RELATION,
            index_kind=PageKind.INVERSE_INDEX,
        )

    def read_predecessors(self, node: int, pool: BufferPool) -> Sequence[int]:
        """Fetch ``node``'s immediate predecessors via the inverse index."""
        return self.read_successors(node, pool)
