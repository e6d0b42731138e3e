"""The uniform two-phase implementation framework (Section 4).

Every algorithm's execution is divided into:

1. a *restructuring phase*, common to all algorithms, in which the
   input relation is scanned (full queries) or searched forward from
   the source nodes (selection queries), the magic subgraph is
   identified, the nodes are topologically sorted, the rectangle-model
   statistics are collected (at no extra I/O cost, Theorem 2), and the
   tuples are converted to successor-list format; and
2. a *computation phase*, different for each algorithm, in which the
   successor lists are expanded; followed by writing the expanded lists
   of the relevant nodes out to disk.

The Search algorithm overrides the split (Section 4.1: its extended
preprocessing does all the work and the computation phase is empty),
and BJ inserts the single-parent reduction between scope identification
and sorting.

All storage access flows through the context's
:class:`~repro.storage.engine.StorageEngine` -- the paged simulated
substrate or the in-memory fast backend -- so the framework never
touches a buffer pool or relation directly.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.core.context import ExecutionContext
from repro.core.query import Query, SystemConfig
from repro.core.result import ClosureResult
from repro.errors import CyclicGraphError, InvalidNodeError
from repro.graphs.digraph import Digraph
from repro.obs.spans import SpanRecorder, span
from repro.obs.tracing import TraceCollector
from repro.storage.engine import CAP_PAGE_COSTS, PageId
from repro.storage.iostats import Phase


def topological_sort_map(adjacency: dict[int, Sequence[int]]) -> list[int]:
    """Topologically sort the nodes of an adjacency mapping.

    Like :func:`repro.graphs.toposort.topological_sort` but over the
    context's (possibly rewritten) adjacency instead of the input
    graph, so BJ's single-parent reduction is honoured.  Rows may be
    plain lists or zero-copy CSR rows; only sequence reads are used.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adjacency, WHITE)
    postorder: list[int] = []
    postorder_append = postorder.append
    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        # Each frame resumes its row's iterator: indexing a CSR row is a
        # Python-level ``ArcView`` call per child, iterating it is not.
        stack = [(root, iter(adjacency[root]))]
        color[root] = GRAY
        while stack:
            node, children = stack[-1]
            for child in children:
                state = color[child]
                if state == GRAY:
                    raise CyclicGraphError(
                        f"cycle detected through arc ({node}, {child})"
                    )
                if state == WHITE:
                    stack.append((child, iter(adjacency[child])))
                    color[child] = GRAY
                    break
            else:
                stack.pop()
                color[node] = BLACK
                postorder_append(node)
    postorder.reverse()
    return postorder


class TwoPhaseAlgorithm(ABC):
    """Base class of all transitive closure algorithms in the study."""

    name: str = "abstract"
    needs_inverse: bool = False
    """Whether the algorithm requires the dual (inverse) relation."""
    mutates_adjacency: bool = False
    """Whether the algorithm rewrites ``ctx.adjacency`` rows in place.

    When ``False`` (every algorithm except BJ) the restructuring phase
    hands out zero-copy CSR rows instead of per-node list copies, so a
    full-query scan of an ``m``-arc graph allocates O(n) row views
    rather than O(n + m) list cells.
    """

    def run(
        self,
        graph: Digraph,
        query: Query | None = None,
        system: SystemConfig | None = None,
        recorder: SpanRecorder | None = None,
        collector: TraceCollector | None = None,
    ) -> ClosureResult:
        """Execute the algorithm and return the answer plus cost profile.

        ``recorder`` (optional) collects nested wall-clock spans for the
        run and its phases; ``collector`` (optional) records structured
        trace events -- every buffer event with full page identity --
        for Chrome-trace export, reports and the run profile (requires
        an engine with ``CAP_TRACE``).  Both are pure observers: they
        never change any cost counter, and when omitted the run is
        exactly the un-instrumented execution.
        """
        query = Query.full() if query is None else query
        system = SystemConfig() if system is None else system
        if query.sources is not None:
            for source in query.sources:
                if not 0 <= source < graph.num_nodes:
                    raise InvalidNodeError(
                        f"source node {source} outside the graph's range "
                        f"0..{graph.num_nodes - 1}"
                    )

        ctx = ExecutionContext(
            graph,
            query,
            system,
            needs_inverse=self.needs_inverse,
            recorder=recorder,
            collector=collector,
        )
        with span("run", recorder):
            start = time.process_time()

            with span("restructure", recorder):
                ctx.enter_phase(Phase.RESTRUCTURE)
                self.restructure(ctx)
            ctx.metrics.set_totals(
                restructure_cpu_seconds=time.process_time() - start
            )

            with span("compute", recorder):
                ctx.enter_phase(Phase.COMPUTE)
                self.compute(ctx)

            with span("writeout", recorder):
                ctx.enter_phase(Phase.WRITEOUT)
                output_nodes = self.write_out(ctx)

            ctx.metrics.set_totals(cpu_seconds=time.process_time() - start)

        if ctx.auditor is not None:
            # The end-of-run invariant sweep: pool residency/pinning,
            # successor-block structure, clustered layout, counters.
            # Raises a structured InvariantViolation on any breach.
            ctx.auditor.audit_run(ctx)
        return self._build_result(ctx, output_nodes)

    # -- restructuring phase (shared) ------------------------------------------

    def restructure(self, ctx: ExecutionContext) -> None:
        """Scan/search the relation, sort, and build initial lists."""
        self.identify_scope(ctx)
        self.sort_and_profile(ctx)
        self.build_lists(ctx)

    def identify_scope(self, ctx: ExecutionContext) -> None:
        """Determine the magic graph and load its adjacency.

        For a full query the relation is scanned sequentially; for a
        selection query the magic subgraph is found by searching
        forward from the source nodes through the clustered index.
        """
        graph, query = ctx.graph, ctx.query
        if query.is_full:
            ctx.engine.scan_relation()
            ctx.in_scope = set(graph.nodes())
            # Mutating algorithms (BJ) get fresh per-node lists; the
            # rest read the graph's CSR rows zero-copy.
            ctx.adjacency = (
                graph.adjacency_lists()
                if self.mutates_adjacency
                else graph.adjacency_rows()
            )
            ctx.metrics.fold(tuple_io=graph.num_arcs)
            return

        seen: set[int] = set()
        stack = list(query.sources or ())
        adjacency: dict[int, Sequence[int]] = {}
        tuple_io = 0
        copy_rows = self.mutates_adjacency
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            children = ctx.engine.read_successors(node)
            tuple_io += len(children)
            # Children of a reachable node are reachable, so the whole
            # successor list stays in the magic graph.
            adjacency[node] = list(children) if copy_rows else children
            for child in children:
                if child not in seen:
                    stack.append(child)
        ctx.metrics.fold(tuple_io=tuple_io)
        ctx.in_scope = seen
        ctx.adjacency = adjacency

    def sort_and_profile(self, ctx: ExecutionContext) -> None:
        """Topologically sort the scope and collect the rectangle model."""
        adjacency = ctx.adjacency
        order = topological_sort_map(adjacency)
        ctx.topo_order = order
        ctx.position = {node: index for index, node in enumerate(order)}

        levels: dict[int, int] = {}
        for node in reversed(order):
            best = 0
            for child in adjacency[node]:
                child_level = levels[child]
                if child_level > best:
                    best = child_level
            levels[node] = best + 1
        ctx.levels = levels

        num_nodes = len(order)
        num_arcs = sum(map(len, adjacency.values()))
        # The adjacency is final from here on (BJ's reduction and the
        # search preprocessing both rewrite it *before* sorting), so the
        # result assembly can reuse the arc count instead of re-summing.
        ctx.num_magic_arcs = num_arcs
        total_level = sum(levels.values())
        ctx.height = total_level / num_nodes if num_nodes else 0.0
        ctx.width = num_arcs / ctx.height if ctx.height else 0.0
        ctx.max_level = max(levels.values(), default=0)

    def build_lists(self, ctx: ExecutionContext) -> None:
        """Create the successor lists, initialised with the children.

        Lists are created in reverse topological order -- the order the
        computation phase expands them -- so consecutive lists share
        pages (inter-list clustering).
        """
        adjacency = ctx.adjacency
        create_list = ctx.store.create_list
        lists = ctx.lists
        acquired = ctx.acquired
        for node in reversed(ctx.topo_order):
            children = adjacency[node]
            create_list(node, len(children))
            bits = 0
            for child in children:
                bits |= 1 << child
            lists[node] = bits
            acquired[node] = 0

    # -- computation phase (per algorithm) ---------------------------------------

    @abstractmethod
    def compute(self, ctx: ExecutionContext) -> None:
        """Expand the successor lists (algorithm-specific)."""

    # -- output ---------------------------------------------------------------

    def write_out(self, ctx: ExecutionContext) -> list[int]:
        """Write the expanded lists of the relevant nodes to disk.

        For a full query every expanded list is written; for a
        selection query only the source nodes' lists are (Section 4).
        Returns the nodes whose lists form the answer.
        """
        if ctx.query.is_full:
            output_nodes = list(ctx.topo_order)
        else:
            output_nodes = [s for s in ctx.query.sources or () if s in ctx.in_scope]
        if ctx.engine.supports(CAP_PAGE_COSTS):
            output_pages: set[PageId] = set()
            pages_of = ctx.store.pages_of
            for node in output_nodes:
                output_pages.update(pages_of(node))
            ctx.engine.flush_output(output_pages)

        lists_get = ctx.lists.get
        ctx.metrics.set_totals(
            distinct_tuples=sum(map(int.bit_count, ctx.lists.values())),
            output_tuples=sum(
                lists_get(node, 0).bit_count() for node in output_nodes
            ),
        )
        return output_nodes

    def _build_result(self, ctx: ExecutionContext, output_nodes: list[int]) -> ClosureResult:
        num_arcs = ctx.num_magic_arcs
        return ClosureResult(
            algorithm=self.name,
            query=ctx.query,
            system=ctx.system,
            metrics=ctx.metrics,
            successor_bits={node: ctx.lists.get(node, 0) for node in output_nodes},
            magic_height=ctx.height,
            magic_width=ctx.width,
            magic_max_level=ctx.max_level,
            magic_nodes=len(ctx.topo_order),
            magic_arcs=num_arcs,
        )
