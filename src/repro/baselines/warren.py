"""Warren's matrix algorithm (related work, Section 8).

Warren [26] modified Warshall's algorithm [27] into two row-major
passes over a boolean adjacency matrix:

* pass 1: for each row ``i``, for each ``j < i`` with ``M[i][j]`` set,
  OR row ``j`` into row ``i`` (uses only rows above the diagonal's
  left part -- already final for this pass);
* pass 2: the same for ``j > i``.

After both passes ``M`` is the transitive closure.  The algorithm is
correct for cyclic graphs as well, so it needs no condensation.

On disk the matrix is paged row-major: a 2048-byte page holds
``PAGE_SIZE * 8 // n`` rows (for the paper's n = 2000 that is 8 rows
per page and a 250-page matrix -- far larger than the 10-50 page buffer
pools, which is why the earlier studies [12, 19] found the matrix
algorithms an order of magnitude worse than the graph-based ones).
Row accesses go through the buffer pool, so locality across the passes
is captured exactly; this models the "Blocked Warren" behaviour, with
the buffer pool as the block.

Selections are supported the way a matrix algorithm supports them:
the full closure is computed and only the requested rows are output --
which is precisely why these algorithms lose on high-selectivity
queries (Section 8).
"""

from __future__ import annotations

import time

from repro.core.query import Query, SystemConfig
from repro.core.result import ClosureResult
from repro.graphs.digraph import Digraph
from repro.metrics.counters import MetricSet
from repro.storage.engine import (
    PAGE_SIZE,
    PageId,
    PageKind,
    make_engine,
)
from repro.storage.iostats import Phase


class WarrenAlgorithm:
    """Warren's two-pass bit-matrix transitive closure."""

    name = "warren"

    def run(
        self,
        graph: Digraph,
        query: Query | None = None,
        system: SystemConfig | None = None,
    ) -> ClosureResult:
        """Evaluate the query; same protocol as the paper's algorithms."""
        query = Query.full() if query is None else query
        system = SystemConfig() if system is None else system
        metrics = MetricSet()
        engine = make_engine(system, graph, metrics=metrics)
        n = graph.num_nodes
        rows_per_page = max(1, (PAGE_SIZE * 8) // max(1, n))
        start = time.process_time()

        def row_page(row: int) -> PageId:
            return PageId(PageKind.SUCCESSOR, row // rows_per_page)

        # Engines without a page-cost model skip the per-bit row touches
        # of the inner loop entirely (they would be pure overhead).
        charged = engine.paged

        def touch_row(row: int, dirty: bool = False) -> None:
            if not charged:
                return
            engine.touch_page(PageKind.SUCCESSOR, row // rows_per_page, dirty=dirty)

        # Load phase: build the matrix from a relation scan.
        metrics.io.phase = Phase.RESTRUCTURE
        engine.scan_relation()
        matrix = [0] * n
        for src, dst in graph.arcs():
            matrix[src] |= 1 << dst
        if charged:
            for row in range(n):
                touch_row(row, dirty=True)

        # Warren's two passes.  The union counters accumulate in locals
        # and fold into ``metrics`` once after both passes -- the final
        # totals are identical, nothing reads them mid-compute.
        metrics.io.phase = Phase.COMPUTE
        list_unions = tuples_generated = duplicates = 0
        for below_diagonal in (True, False):
            for i in range(n):
                if charged:
                    touch_row(i)
                # Warren scans j in increasing order over the *current*
                # row: bits set by earlier unions in the same scan are
                # picked up when the scan reaches them, bits at or
                # before the current j are never revisited.
                if below_diagonal:
                    region_mask = (1 << i) - 1  # j < i
                else:
                    region_mask = -1 << (i + 1)  # j > i
                scanned = 0  # mask of positions <= current j
                row_i = matrix[i]
                while True:
                    remaining = row_i & region_mask & ~scanned
                    if not remaining:
                        break
                    low = remaining & -remaining
                    j = low.bit_length() - 1
                    scanned |= (low << 1) - 1
                    if charged:
                        touch_row(j)
                    row_j = matrix[j]
                    row_j_count = row_j.bit_count()
                    list_unions += 1
                    tuples_generated += row_j_count
                    merged = row_i | row_j
                    added = (merged & ~row_i).bit_count()
                    duplicates += row_j_count - added
                    row_i = matrix[i] = merged
                    if added and charged:
                        touch_row(i, dirty=True)
        metrics.fold(
            list_unions=list_unions,
            tuples_generated=tuples_generated,
            duplicates=duplicates,
        )

        metrics.io.phase = Phase.WRITEOUT
        if query.is_full:
            output_rows = list(range(n))
        else:
            output_rows = list(query.sources or ())
        if charged:
            engine.flush_output({row_page(row) for row in output_rows})

        metrics.set_totals(
            distinct_tuples=sum(map(int.bit_count, matrix)),
            output_tuples=sum(matrix[row].bit_count() for row in output_rows),
            cpu_seconds=time.process_time() - start,
        )

        return ClosureResult(
            algorithm=self.name,
            query=query,
            system=system,
            metrics=metrics,
            successor_bits={row: matrix[row] for row in output_rows},
        )
