"""Warshall's algorithm (related work; Warshall [27]).

The original boolean-matrix closure: for each pivot ``k``, every row
``i`` with ``M[i][k]`` set absorbs row ``k``.  Correct for cyclic
graphs.  Compared with Warren's two-pass variant the pivot-major order
touches every row once per pivot it feeds, which is brutal when the
matrix exceeds the buffer pool -- Warren's row-major passes were
invented precisely to fix that access pattern, and the pair of
implementations lets the benchmark suite show the gap.

The matrix uses the same paged layout as :mod:`repro.baselines.warren`.
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


class WarshallAlgorithm:
    """The classic pivot-major boolean-matrix transitive closure."""

    name = "warshall"

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

        metrics.io.phase = Phase.RESTRUCTURE
        engine.scan_relation()
        matrix = [0] * n
        column = [0] * n  # column[k] = bitset of rows with M[i][k] set
        for src, dst in graph.arcs():
            matrix[src] |= 1 << dst
            column[dst] |= 1 << src
        if charged:
            for row in range(n):
                touch_row(row, dirty=True)

        # The union counters accumulate in locals and fold into
        # ``metrics`` once after the pivot loop -- the final totals are
        # identical, nothing reads them mid-compute.
        metrics.io.phase = Phase.COMPUTE
        list_unions = tuples_generated = duplicates = 0
        for pivot in range(n):
            feeders = column[pivot] & ~(1 << pivot)
            pivot_row = matrix[pivot]
            if not feeders or not pivot_row:
                continue
            if charged:
                touch_row(pivot)
            # matrix[pivot] cannot change while its feeders are
            # processed (the pivot itself is masked out above).
            pivot_count = pivot_row.bit_count()
            while feeders:
                low = feeders & -feeders
                row = low.bit_length() - 1
                feeders ^= low
                if charged:
                    touch_row(row)
                before = matrix[row]
                list_unions += 1
                tuples_generated += pivot_count
                after = before | pivot_row
                fresh = after & ~before
                duplicates += pivot_count - fresh.bit_count()
                if fresh:
                    matrix[row] = after
                    if charged:
                        touch_row(row, dirty=True)
                    # Track new column memberships for later pivots.
                    value = fresh
                    while value:
                        bit = value & -value
                        column[bit.bit_length() - 1] |= 1 << row
                        value ^= bit

        metrics.fold(
            list_unions=list_unions,
            tuples_generated=tuples_generated,
            duplicates=duplicates,
        )

        metrics.io.phase = Phase.WRITEOUT
        if query.is_full:
            output_rows = list(range(n))
        else:
            output_rows = list(dict.fromkeys(query.sources or ()))
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
