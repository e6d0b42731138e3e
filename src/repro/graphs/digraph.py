"""A compact directed-graph type over a frozen CSR arc store.

Nodes are the integers ``0 .. n-1`` and arcs live in a *compressed
sparse row* (CSR) layout: one ``array('q')`` of row offsets (length
``n + 1``) and one of arc targets (length ``m``), with an on-demand
reverse CSR for predecessor queries.  Successor rows are handed out as
zero-copy read-only ``memoryview`` slices (:class:`ArcView`), so the
graph is structurally immutable from the caller's side -- there is no
internal list to alias and mutate by accident.

This is deliberately minimal: the heavy machinery (paged storage,
buffer management) lives in :mod:`repro.storage`; :class:`Digraph` is
only the logical graph handed to the generator, the analysis routines
and the algorithms.  A built graph never changes: graphs are built by
:class:`DigraphBuilder` (bulk, bounded-memory), :meth:`Digraph.from_arcs`
or :func:`graph_from_columns`, each of which freezes one CSR.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.errors import InvalidNodeError

_EMPTY_TARGETS = array("q")


class ArcView(Sequence[int]):
    """A read-only, sorted run of node ids backed by a CSR slice.

    Behaves like the successor list the pre-CSR ``Digraph`` handed out
    (indexing, slicing, iteration, ``in`` via binary search, equality
    with lists/tuples) except that mutation is structurally impossible:
    there is no ``append``/``__setitem__``, and the underlying
    ``memoryview`` is read-only.
    """

    __slots__ = ("_view",)

    def __init__(self, view: memoryview) -> None:
        self._view = view

    def __len__(self) -> int:
        return len(self._view)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return ArcView(self._view[index])
        return self._view[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._view)

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, int):
            return False
        view = self._view
        lo, hi = 0, len(view)
        while lo < hi:
            mid = (lo + hi) // 2
            if view[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(view) and view[lo] == value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArcView):
            return self._view == other._view
        if isinstance(other, (list, tuple)):
            view = self._view
            return len(view) == len(other) and all(
                mine == theirs for mine, theirs in zip(view, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._view))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArcView({list(self._view)!r})"


class Digraph:
    """A directed graph over nodes ``0 .. n-1``.

    Successor rows are sorted and duplicate-free, matching the paper's
    input relations (duplicate tuples produced by the graph generation
    routine were eliminated, Section 5.3, footnote 1).

    The arc store is a frozen CSR and no method changes it, so one
    graph may be shared by every run, cache and relation that names it.
    ``Digraph(n)`` is the edgeless graph; graphs with arcs are built by
    :class:`DigraphBuilder` or :meth:`from_arcs`.
    """

    __slots__ = ("_offsets", "_targets", "_mv", "_rev")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise InvalidNodeError(f"number of nodes must be non-negative, got {num_nodes}")
        self._offsets = array("q", bytes(8 * (num_nodes + 1)))
        self._targets = _EMPTY_TARGETS
        self._mv = memoryview(self._targets).toreadonly()
        self._rev: tuple[array, array] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arcs(cls, num_nodes: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        """Build a graph from an iterable of (source, destination) arcs.

        Duplicate arcs are silently collapsed.
        """
        builder = DigraphBuilder(num_nodes)
        for src, dst in arcs:
            builder.add_arc(src, dst)
        return builder.freeze()

    @classmethod
    def _from_csr(cls, num_nodes: int, offsets: array, targets: array) -> "Digraph":
        """Adopt already-built CSR arrays (sorted, duplicate-free rows).

        The arrays become the graph's own storage; callers hand over
        ownership and must not mutate them afterwards.
        """
        graph = cls.__new__(cls)
        graph._offsets = offsets
        graph._targets = targets
        graph._mv = memoryview(targets).toreadonly()
        graph._rev = None
        return graph

    # -- accessors -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes (``n`` in the paper)."""
        return len(self._offsets) - 1

    @property
    def num_arcs(self) -> int:
        """Number of arcs (``|G|`` in the paper)."""
        return len(self._targets)

    @property
    def csr_offsets(self) -> memoryview:
        """Read-only row-offset array of the CSR (length ``n + 1``)."""
        return memoryview(self._offsets).toreadonly()

    @property
    def csr_targets(self) -> memoryview:
        """Read-only arc-target array of the CSR (length ``m``)."""
        return self._mv

    def successors(self, node: int) -> ArcView:
        """The sorted immediate successors of ``node``.

        Zero-copy: the returned :class:`ArcView` windows the graph's CSR
        directly and is structurally immutable.
        """
        self._check(node)
        return ArcView(self._mv[self._offsets[node] : self._offsets[node + 1]])

    def predecessors(self, node: int) -> ArcView:
        """The sorted immediate predecessors of ``node`` (computed lazily)."""
        self._check(node)
        roffsets, rmv = self._reverse_csr()
        return ArcView(rmv[roffsets[node] : roffsets[node + 1]])

    def out_degree(self, node: int) -> int:
        """Number of immediate successors of ``node``."""
        self._check(node)
        return self._offsets[node + 1] - self._offsets[node]

    def in_degree(self, node: int) -> int:
        """Number of immediate predecessors of ``node``."""
        self._check(node)
        roffsets, _ = self._reverse_csr()
        return roffsets[node + 1] - roffsets[node]

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Iterate over all arcs in (source, destination) order."""
        offsets, targets = self._offsets, self._targets
        for src in range(self.num_nodes):
            for position in range(offsets[src], offsets[src + 1]):
                yield src, targets[position]

    def nodes(self) -> range:
        """The node identifiers ``0 .. n-1``."""
        return range(self.num_nodes)

    def adjacency_lists(self) -> dict[int, list[int]]:
        """A fresh ``{node: [successors...]}`` mapping of the whole graph.

        Every list is a copy, so callers may rewrite the mapping freely
        (BJ's single-parent reduction mutates it in place).  Algorithms
        that only *read* adjacency should prefer
        :meth:`adjacency_rows`, which skips the copies.
        """
        offsets, targets = self._offsets, self._targets
        return {
            node: targets[offsets[node] : offsets[node + 1]].tolist()
            for node in range(self.num_nodes)
        }

    def adjacency_rows(self) -> dict[int, ArcView]:
        """A ``{node: successors}`` mapping of zero-copy CSR rows.

        The rows are read-only windows onto the graph's arrays -- no
        per-node list is materialised.  Callers that mutate adjacency
        (only BJ does) must use :meth:`adjacency_lists` instead.
        """
        offsets, mv = self._offsets, self._mv
        return {
            node: ArcView(mv[offsets[node] : offsets[node + 1]])
            for node in range(self.num_nodes)
        }

    def has_arc(self, src: int, dst: int) -> bool:
        """Whether the arc (src, dst) is present."""
        self._check(src)
        self._check(dst)
        targets = self._targets
        lo, hi = self._offsets[src], self._offsets[src + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            if targets[mid] < dst:
                lo = mid + 1
            else:
                hi = mid
        return lo < self._offsets[src + 1] and targets[lo] == dst

    def reverse(self) -> "Digraph":
        """A new graph with every arc reversed."""
        roffsets, rtargets = self._reverse_arrays()
        return Digraph._from_csr(self.num_nodes, array("q", roffsets), array("q", rtargets))

    def induced_subgraph(self, nodes: Iterable[int]) -> "Digraph":
        """The subgraph induced by ``nodes``, keeping original node ids.

        Arcs with either endpoint outside ``nodes`` are dropped; the
        node-id space stays ``0 .. n-1`` so that analyses and storage
        layouts remain comparable with the parent graph.
        """
        keep = set(nodes)
        for node in keep:
            self._check(node)
        offsets, targets = self._offsets, self._targets
        builder = DigraphBuilder(self.num_nodes)
        for src in keep:
            for position in range(offsets[src], offsets[src + 1]):
                dst = targets[position]
                if dst in keep:
                    builder.add_arc(src, dst)
        return builder.freeze()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._offsets == other._offsets and self._targets == other._targets

    def __reduce__(self) -> tuple[Any, ...]:
        return (Digraph._from_csr, (self.num_nodes, self._offsets, self._targets))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Digraph(n={self.num_nodes}, arcs={self.num_arcs})"

    # -- internals -----------------------------------------------------------

    def _check(self, node: int) -> None:
        if not 0 <= node < len(self._offsets) - 1:
            raise InvalidNodeError(
                f"node {node} outside the graph's range 0..{len(self._offsets) - 2}"
            )

    def _reverse_arrays(self) -> tuple[array, array]:
        """The reverse CSR (predecessor rows), built once and cached.

        A counting sort over the forward arcs: scattering targets in
        (source asc, target asc) order leaves every reverse row sorted.
        """
        if self._rev is None:
            num_nodes = self.num_nodes
            offsets, targets = self._offsets, self._targets
            roffsets = array("q", bytes(8 * (num_nodes + 1)))
            for dst in targets:
                roffsets[dst + 1] += 1
            for node in range(num_nodes):
                roffsets[node + 1] += roffsets[node]
            rtargets = array("q", bytes(8 * len(targets)))
            cursor = array("q", roffsets[:num_nodes])
            for src in range(num_nodes):
                for position in range(offsets[src], offsets[src + 1]):
                    dst = targets[position]
                    rtargets[cursor[dst]] = src
                    cursor[dst] += 1
            self._rev = (roffsets, rtargets)
        return self._rev

    def _reverse_csr(self) -> tuple[array, memoryview]:
        roffsets, rtargets = self._reverse_arrays()
        return roffsets, memoryview(rtargets).toreadonly()


class DigraphBuilder:
    """A mutable arc accumulator that freezes into a CSR :class:`Digraph`.

    Arcs are appended to two flat ``array('q')`` columns (source,
    target) -- 16 bytes per arc, no per-node Python lists -- and
    :meth:`freeze` counting-sorts them into the final CSR, sorting and
    de-duplicating each row.  With a declared node count, out-of-range
    endpoints raise :class:`~repro.errors.InvalidNodeError`; without
    one the node space grows to ``max endpoint + 1`` (use
    :meth:`ensure_node` to widen it past the arcs, e.g. for isolated
    trailing nodes).
    """

    __slots__ = ("_srcs", "_dsts", "_declared", "_max_node")

    def __init__(self, num_nodes: int | None = None) -> None:
        if num_nodes is not None and num_nodes < 0:
            raise InvalidNodeError(f"number of nodes must be non-negative, got {num_nodes}")
        self._srcs = array("q")
        self._dsts = array("q")
        self._declared = num_nodes
        self._max_node = -1

    @property
    def num_nodes(self) -> int:
        """The node count :meth:`freeze` will produce."""
        if self._declared is not None:
            return self._declared
        return self._max_node + 1

    def __len__(self) -> int:
        """Arcs appended so far (duplicates not yet collapsed)."""
        return len(self._srcs)

    def ensure_node(self, node: int) -> None:
        """Widen the frozen graph's node space to include ``node``."""
        self._check(node)
        if node > self._max_node:
            self._max_node = node

    def add_arc(self, src: int, dst: int) -> None:
        """Append the arc (src, dst); duplicates collapse at freeze."""
        self._check(src)
        self._check(dst)
        self._srcs.append(src)
        self._dsts.append(dst)
        if src > self._max_node:
            self._max_node = src
        if dst > self._max_node:
            self._max_node = dst

    def add_arcs(self, arcs: Iterable[tuple[int, int]]) -> None:
        """Append every arc from ``arcs``."""
        for src, dst in arcs:
            self.add_arc(src, dst)

    def freeze(self) -> Digraph:
        """Counting-sort the arc columns into a frozen CSR graph.

        The builder may be reused afterwards (the arrays are copied out
        by the scatter pass), though callers typically discard it.
        """
        return graph_from_columns(self.num_nodes, self._srcs, self._dsts)

    def _check(self, node: int) -> None:
        if self._declared is not None:
            if not 0 <= node < self._declared:
                raise InvalidNodeError(
                    f"node {node} outside the graph's range 0..{self._declared - 1}"
                )
        elif node < 0:
            raise InvalidNodeError(f"node {node} outside the graph's range 0..")


def graph_from_columns(num_nodes: int, srcs: array, dsts: array) -> Digraph:
    """Counting-sort two flat arc columns into a frozen CSR graph.

    ``srcs[i] -> dsts[i]`` are the arcs, already within ``0 ..
    num_nodes - 1``; duplicates are collapsed.  This is the shared
    freeze path of :class:`DigraphBuilder` and the streaming ingestion
    loader (:mod:`repro.graphs.ingest`), which both accumulate arcs as
    16 bytes per arc instead of per-node Python lists.  The input
    columns are not modified.
    """
    offsets = array("q", bytes(8 * (num_nodes + 1)))
    for src in srcs:
        offsets[src + 1] += 1
    for node in range(num_nodes):
        offsets[node + 1] += offsets[node]
    scattered = array("q", bytes(8 * len(dsts)))
    cursor = array("q", offsets[:num_nodes])
    for src, dst in zip(srcs, dsts):
        scattered[cursor[src]] = dst
        cursor[src] += 1
    # Sort + de-duplicate each row in place, compacting with a write
    # cursor (always <= the row being read, so no clobbering).
    final_offsets = array("q", bytes(8 * (num_nodes + 1)))
    write = 0
    for node in range(num_nodes):
        row = scattered[offsets[node] : offsets[node + 1]].tolist()
        row.sort()
        previous: int | None = None
        for dst in row:
            if dst != previous:
                scattered[write] = dst
                write += 1
                previous = dst
        final_offsets[node + 1] = write
    return Digraph._from_csr(num_nodes, final_offsets, scattered[:write])
