"""The Search algorithm, "SRCH" (Section 3.4 of the paper; cf. [14, 15]).

When the query names only a few source nodes, the overhead of
topologically sorting the magic graph and expanding every magic node
may not pay off.  SRCH simply searches the graph from each source node,
expanding *only* the source's successor list: a multi-source query with
k sources is treated as k single-source queries.

SRCH does **not** use the immediate successor optimisation: the list of
a source is unioned with the *immediate* successor list of every node
reached, so its union count grows with ``s`` times the size of the
reached subgraph -- which is why its cost deteriorates rapidly as the
number of source nodes grows (Figure 10, Section 6.3.6).

Following Section 4.1, the implementation extends the preprocessing
phase to build the source lists directly from the relation pages; the
computation phase is empty.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.base import TwoPhaseAlgorithm
from repro.core.context import ExecutionContext
from repro.errors import ConfigurationError


class SearchAlgorithm(TwoPhaseAlgorithm):
    """One graph search per source node, over the raw relation."""

    name = "srch"

    def restructure(self, ctx: ExecutionContext) -> None:
        if ctx.query.is_full:
            raise ConfigurationError(
                "the Search algorithm computes selections; "
                "use Query.ptc(...) or pass every node as a source"
            )
        metrics = ctx.metrics
        read_successors = ctx.engine.read_successors
        append = ctx.store.append
        adjacency: dict[int, Sequence[int]] = {}
        # node -> (its child bitset, its out-degree), built on the first
        # visit: rows are read-only, and a node is re-read once per
        # source that reaches it.
        rows: dict[int, tuple[int, int]] = {}
        list_unions = tuple_io = duplicates = 0

        for source in ctx.query.sources or ():
            ctx.store.create_list(source, 0)
            ctx.lists[source] = 0
            ctx.acquired[source] = 0
            # Visited is reached | source, so the children a visit has
            # not reached before are exactly the unvisited ones.  The
            # source stays masked so that a cycle cannot revisit it.
            not_source = ~(1 << source)
            reached_bits = 0
            stack = [source]
            while stack:
                node = stack.pop()
                children = read_successors(node)
                row = rows.get(node)
                if row is None:
                    # Stored as-is: a zero-copy CSR view on the fast engine.
                    adjacency[node] = children
                    bits = 0
                    for child in children:
                        bits |= 1 << child
                    row = rows[node] = (bits, len(children))
                bits, degree = row
                if not degree:
                    continue
                # Union of S_source with the *immediate* successor list
                # of the reached node.
                list_unions += 1
                tuple_io += degree
                fresh = bits & ~reached_bits
                added = fresh.bit_count()
                duplicates += degree - added
                if added:
                    reached_bits |= fresh
                    append(source, added)
                    # Low bit to high bit is the row's order, so nodes
                    # are read in the order one push per unvisited child
                    # would read them.
                    fresh &= not_source
                    while fresh:
                        low = fresh & -fresh
                        stack.append(low.bit_length() - 1)
                        fresh ^= low
            ctx.lists[source] = reached_bits

        metrics.fold(
            list_unions=list_unions,
            list_reads=list_unions,
            tuple_io=tuple_io,
            tuples_generated=tuple_io,
            arcs_considered=tuple_io,
            duplicates=duplicates,
        )
        # Fill in the context's scope/profile state so reports and the
        # locality metric are comparable with the other algorithms.
        ctx.adjacency = adjacency
        ctx.in_scope = set(adjacency)
        self.sort_and_profile(ctx)
        metrics.set_totals(
            unmarked_locality_total=sum(
                ctx.levels[src] - ctx.levels[dst]
                for src, children in adjacency.items()
                for dst in children
            )
        )
        # Every arc of the searched subgraph is "considered" once per
        # source that traverses it; the locality average, however, is
        # over the distinct arcs, so align the denominator.
        self._distinct_arcs = sum(len(children) for children in adjacency.values())

    def compute(self, ctx: ExecutionContext) -> None:
        """All the work happened in the extended preprocessing phase."""

    def write_out(self, ctx: ExecutionContext) -> list[int]:
        output_nodes = super().write_out(ctx)
        # ``arcs_considered`` counts per-source traversals; rescale the
        # locality sum so ``avg_unmarked_locality`` reflects the
        # distinct-arc average (no arcs are ever marked by SRCH).
        metrics = ctx.metrics
        if self._distinct_arcs and metrics.arcs_considered:
            metrics.set_totals(
                unmarked_locality_total=round(
                    metrics.unmarked_locality_total
                    * (metrics.arcs_considered / self._distinct_arcs)
                )
            )
        return output_nodes
