"""The chain-decomposition closure algorithm and reachability index.

A modern counterpoint to the study's 1994 suite, after Kritikakis &
Tollis (*Parameterized Linear Time Transitive Closure*, arXiv
2404.17954; *Fast and Practical DAG Decomposition with Reachability
Applications*, arXiv 2212.03945).  The magic graph is decomposed into
``k`` vertex-disjoint chains (:mod:`repro.graphs.chains`); every node
then stores a *k-vector* -- for each chain, the minimal position it can
reach in that chain, sparse entries only.  Because a node that reaches
position ``p`` of a chain also reaches every later position (chain
links are graph arcs), the vector is a complete reachability summary
in O(k) integers:

* ``reachable(u, v)`` is one vector lookup and one comparison;
* the full closure of ``u`` is the union of ``k`` chain suffixes,
  emitted without reading any other node's expanded list.

The vectors are built in one reverse-topological sweep -- node's
vector = elementwise minimum over its children's vectors, plus its own
(chain, position) entry -- with every vector read/write charged through
the :class:`~repro.storage.engine.StorageEngine` seam on dedicated
``CHAIN`` pages, so the paged engine prices the index build exactly
like every other family's computation.  Vector entries are (chain,
position) pairs, twice the width of a successor entry, so the store
uses the same 30x7 page geometry as the generalized closure's value
lists.

Two consumers share the machinery:

* :class:`ChainsAlgorithm` -- the registered ``chains`` family: builds
  the vectors, then expands them into ordinary successor lists so the
  result is tuple-identical to the other algorithms (and the standard
  write-out costs apply).
* :func:`build_chain_index` -- freezes the vectors into a
  :class:`ChainIndex` answering ``reachable``/``successors`` queries
  from plain dicts, touching no engine at query time (the serve
  layer's index format).  Cyclic inputs route through
  :mod:`repro.graphs.condensation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.base import TwoPhaseAlgorithm
from repro.core.context import ExecutionContext
from repro.core.query import Query, SystemConfig
from repro.errors import CyclicGraphError, InvalidNodeError
from repro.graphs.chains import ChainDecomposition, decompose_chains
from repro.graphs.condensation import condensation
from repro.graphs.digraph import Digraph
from repro.metrics.counters import MetricSet
from repro.storage.engine import CAP_PAGE_COSTS, ListStore, PageId, PageKind

VECTOR_BLOCK_CAPACITY = 7
"""(chain, position) entries per block: vector entries are twice the
size of the study's 4-byte successor entries, so a 30-block page holds
210 instead of 450 (the generalized closure's labelled-entry layout)."""


def _build_vectors(
    ctx: ExecutionContext, deco: ChainDecomposition
) -> tuple[ListStore, dict[int, dict[int, int]]]:
    """One reverse-topological sweep producing every node's k-vector.

    ``vectors[node][chain]`` is the minimal position ``node`` reaches in
    ``chain`` -- including ``node`` itself, so the node's own (chain,
    position) entry is always present and always the minimum for its
    own chain (a child reaching an earlier position of it would close a
    cycle).  Vector storage is charged on dedicated ``CHAIN`` pages.

    Children are *marked*, the k-vector analogue of BTC's arc marking:
    if the vector already holds a position at or before ``child``'s on
    ``child``'s chain, an earlier sibling reaches ``child`` along it, so
    merging ``child`` would only count its entries as duplicates.  They
    are counted and the merge skipped; the list is still read, so every
    counter and storage call matches the full merge.
    """
    vector_store = ctx.engine.make_list_store(
        PageKind.CHAIN,
        policy=ctx.system.list_policy,
        blocks_per_page=30,
        block_capacity=VECTOR_BLOCK_CAPACITY,
    )
    adjacency = ctx.adjacency
    levels = ctx.levels
    chain_of = deco.chain_of
    position_of = deco.position_of
    read_list = vector_store.read_list
    create_list = vector_store.create_list
    vectors: dict[int, dict[int, int]] = {}
    # Counters accumulate in locals and fold once after the sweep (the
    # totals, and every storage call in the same order, are identical).
    arcs_considered = locality = list_unions = 0
    tuple_io = generated = duplicates = 0
    for node in reversed(ctx.topo_order):
        vector: dict[int, int] = {}
        node_level = levels[node]
        for child in adjacency[node]:
            arcs_considered += 1
            locality += node_level - levels[child]
            list_unions += 1
            read_list(child)
            child_vector = vectors[child]
            entries = len(child_vector)
            tuple_io += entries
            generated += entries
            held = vector.get(chain_of[child])
            if held is not None and held <= position_of[child]:
                duplicates += entries
                continue
            for chain_id, pos in child_vector.items():
                held = vector.get(chain_id)
                if held is None or pos < held:
                    vector[chain_id] = pos
                else:
                    duplicates += 1
        vector[chain_of[node]] = position_of[node]
        generated += 1
        vectors[node] = vector
        create_list(node, len(vector))
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


class ChainsAlgorithm(TwoPhaseAlgorithm):
    """Closure via chain decomposition and k-vector suffix expansion."""

    name = "chains"

    def compute(self, ctx: ExecutionContext) -> None:
        deco = decompose_chains(ctx.adjacency, ctx.topo_order)
        vector_store, vectors = _build_vectors(ctx, deco)
        self._emit_closure(ctx, deco, vectors, vector_store)

    def _emit_closure(
        self,
        ctx: ExecutionContext,
        deco: ChainDecomposition,
        vectors: dict[int, dict[int, int]],
        vector_store: ListStore,
    ) -> None:
        """Expand each vector into the node's flat successor list.

        Each closure is the union of at most ``k`` chain *suffixes*:
        reaching position ``p`` of a chain means reaching everything
        from ``p`` on.  Emission reads one vector per node -- never
        another node's expanded list -- which is the family's
        near-linear-output story; the new tuples are appended to the
        main successor store so the standard write-out prices them.
        """
        lists = ctx.lists
        acquired = ctx.acquired
        append = ctx.engine.store.append
        read_vector = vector_store.read_list
        chain_of = deco.chain_of
        # suffix[c][p] = bitset of chain c's members at positions >= p.
        suffix: list[list[int]] = []
        for chain in deco.chains:
            masks = [0] * (len(chain) + 1)
            for index in range(len(chain) - 1, -1, -1):
                masks[index] = masks[index + 1] | (1 << chain[index])
            suffix.append(masks)
        list_reads = tuple_io = generated = 0
        for node in reversed(ctx.topo_order):
            read_vector(node)
            vector = vectors[node]
            list_reads += 1
            tuple_io += len(vector)
            own = chain_of[node]
            bits = 0
            for chain_id, pos in vector.items():
                if chain_id == own:
                    # The own-chain entry includes the node itself;
                    # its successors start one position later.
                    pos += 1
                bits |= suffix[chain_id][pos]
            before = lists[node]
            added = (bits & ~before).bit_count()
            generated += added
            lists[node] = before | bits
            acquired[node] = acquired[node] | bits
            if added:
                append(node, added)
        ctx.metrics.fold(
            list_reads=list_reads,
            tuple_io=tuple_io,
            tuples_generated=generated,
        )


# -- the frozen queryable index ------------------------------------------------


@dataclass(frozen=True)
class ChainIndex:
    """A frozen chain-decomposition reachability index.

    Queries run entirely over the captured dicts: no storage engine is
    touched, so answering them is O(k) time and zero page I/O -- the
    index format the serve layer sits on.  ``metrics`` holds the build
    cost (the vectors' construction and flush under the engine the
    index was built with).

    For a cyclic input (``condensed`` true) the chains cover the
    condensation's component DAG and ``component_of``/``members``/
    ``self_loops`` translate original-node queries; reachability within
    a non-trivial component (or through a self-loop) is answered
    directly.
    """

    num_nodes: int
    chains: tuple[tuple[int, ...], ...]
    chain_of: dict[int, int]
    position_of: dict[int, int]
    vectors: dict[int, dict[int, int]]
    metrics: MetricSet
    condensed: bool = False
    component_of: tuple[int, ...] = ()
    members: tuple[tuple[int, ...], ...] = ()
    self_loops: frozenset[int] = field(default_factory=frozenset)

    @property
    def k(self) -> int:
        """Number of chains -- the index's width parameter."""
        return len(self.chains)

    def reachable(self, src: int, dst: int) -> bool:
        """Whether a nonempty path ``src -> dst`` exists, in O(1).

        ``src`` must be covered by the index (always, for a full build;
        inside the searched scope, for a ``sources=`` build); an
        uncovered ``dst`` is simply unreachable, because the indexed
        scope is closed under successors.
        """
        self._check_range(src)
        self._check_range(dst)
        if self.condensed:
            a: int = self.component_of[src]
            b: int = self.component_of[dst]
        else:
            a, b = src, dst
        vector = self.vectors.get(a)
        if vector is None:
            raise InvalidNodeError(
                f"source node {src} is not covered by this index"
            )
        if a == b:
            if not self.condensed:
                return False
            return len(self.members[a]) > 1 or src in self.self_loops
        target_chain = self.chain_of.get(b)
        if target_chain is None:
            return False
        held = vector.get(target_chain)
        if held is None:
            return False
        if target_chain == self.chain_of[a]:
            # The own-chain entry includes ``a`` itself.
            held += 1
        return held <= self.position_of[b]

    def successors(self, src: int) -> list[int]:
        """All nodes reachable from ``src`` (sorted), via suffix expansion."""
        self._check_range(src)
        if not self.condensed:
            return self._expand(src, src)
        comp = self.component_of[src]
        reached: set[int] = set()
        for other in self._expand(comp, src):
            reached.update(self.members[other])
        if len(self.members[comp]) > 1:
            reached.update(self.members[comp])
        elif src in self.self_loops:
            reached.add(src)
        return sorted(reached)

    def _check_range(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise InvalidNodeError(
                f"node {node} outside the graph's range 0..{self.num_nodes - 1}"
            )

    def _expand(self, indexed: int, src: int) -> list[int]:
        vector = self.vectors.get(indexed)
        if vector is None:
            raise InvalidNodeError(
                f"source node {src} is not covered by this index"
            )
        own = self.chain_of[indexed]
        out: list[int] = []
        for chain_id, pos in vector.items():
            if chain_id == own:
                pos += 1
            out.extend(self.chains[chain_id][pos:])
        return sorted(out)


class _ChainIndexBuilder(ChainsAlgorithm):
    """Index-only variant: build and flush the vectors, skip emission.

    Reuses the whole two-phase machinery (scope search, sorting, cost
    accounting) but keeps the decomposition and vectors on the instance
    for :func:`build_chain_index` to freeze; the write-out flushes the
    *vector* pages, because the vectors are this run's answer.
    """

    def __init__(self) -> None:
        self.deco: ChainDecomposition | None = None
        self.vectors: dict[int, dict[int, int]] = {}
        self._vector_store: ListStore | None = None

    def build_lists(self, ctx: ExecutionContext) -> None:
        """Create the store lists but skip the child bitsets.

        The index build never expands successor lists -- ``compute``
        reads only the adjacency and the k-vectors, and ``write_out``
        flushes the vector pages -- so materialising the per-node child
        bitsets (O(n^2 / 8) bytes on a large local graph: each bitset's
        width is its highest child id) would be pure waste.  The store
        calls are identical to the base method, so the paged engine's
        page/cost counters are unchanged.
        """
        adjacency = ctx.adjacency
        create_list = ctx.store.create_list
        lists = ctx.lists
        acquired = ctx.acquired
        for node in reversed(ctx.topo_order):
            create_list(node, len(adjacency[node]))
            lists[node] = 0
            acquired[node] = 0

    def compute(self, ctx: ExecutionContext) -> None:
        self.deco = decompose_chains(ctx.adjacency, ctx.topo_order)
        self._vector_store, self.vectors = _build_vectors(ctx, self.deco)

    def write_out(self, ctx: ExecutionContext) -> list[int]:
        if ctx.engine.supports(CAP_PAGE_COSTS):
            store = self._vector_store
            assert store is not None  # compute() always ran first
            pages: set[PageId] = set()
            for node in ctx.topo_order:
                pages.update(store.pages_of(node))
            ctx.engine.flush_output(pages)
        total = sum(len(vector) for vector in self.vectors.values())
        ctx.metrics.set_totals(distinct_tuples=total, output_tuples=total)
        return []


def build_chain_index(
    graph: Digraph,
    sources: list[int] | None = None,
    system: SystemConfig | None = None,
) -> ChainIndex:
    """Build a frozen :class:`ChainIndex` over ``graph``.

    ``sources`` restricts the index to the nodes reachable from the
    given sources (the magic scope -- closed under successors, so every
    query whose source lies inside it is answerable).  Cyclic graphs
    are condensed first; ``system`` picks the engine and buffer
    configuration charged for the build.
    """
    try:
        return _build_dag_index(graph, sources, system)
    except CyclicGraphError:
        pass
    cond = condensation(graph)
    comp_sources: list[int] | None = None
    if sources is not None:
        seen: dict[int, None] = {}
        for node in sources:
            seen[cond.component_of[node]] = None
        comp_sources = list(seen)
    inner = _build_dag_index(cond.dag, comp_sources, system)
    return ChainIndex(
        num_nodes=graph.num_nodes,
        chains=inner.chains,
        chain_of=inner.chain_of,
        position_of=inner.position_of,
        vectors=inner.vectors,
        metrics=inner.metrics,
        condensed=True,
        component_of=tuple(cond.component_of),
        members=tuple(tuple(sorted(members)) for members in cond.members),
        self_loops=cond.self_loops,
    )


def _build_dag_index(
    graph: Digraph,
    sources: list[int] | None,
    system: SystemConfig | None,
) -> ChainIndex:
    builder = _ChainIndexBuilder()
    query = Query.full() if sources is None else Query.ptc(list(sources))
    result = builder.run(graph, query, system)
    deco = builder.deco
    assert deco is not None  # compute() always ran
    return ChainIndex(
        num_nodes=graph.num_nodes,
        chains=deco.chains,
        chain_of=deco.chain_of,
        position_of=deco.position_of,
        vectors=builder.vectors,
        metrics=result.metrics,
    )
