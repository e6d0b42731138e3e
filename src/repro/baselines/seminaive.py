"""The Seminaive iterative algorithm (related work, Section 8).

Classic bottom-up delta evaluation of the recursive rule
``tc(X, Z) :- tc(X, Y), arc(Y, Z)``: each iteration joins the freshly
derived delta tuples with the arc relation and keeps only the tuples
not seen before, until no new tuple appears.  Kabler et al. [19] found
Seminaive inferior to the graph-based algorithms for full closure but
competitive for selections touching under a third of the nodes; the
graph-based algorithms of this study beat it across the board (see
``benchmarks/bench_baselines.py``).

The implementation runs on the same substrate as the paper's suite:
delta joins probe the source-clustered arc relation through the
buffer pool, and derived tuples are appended to paged result lists.
"""

from __future__ import annotations

import time

from repro.core.query import Query, SystemConfig
from repro.core.result import ClosureResult
from repro.graphs.digraph import Digraph
from repro.metrics.counters import MetricSet
from repro.obs.spans import SpanRecorder, span
from repro.obs.tracing import (
    EV_DELTA_SCAN,
    EV_DELTA_SPOOL,
    TraceCollector,
)
from repro.storage.engine import (
    TUPLES_PER_PAGE,
    PageId,
    PageKind,
    StorageEngine,
    make_engine,
    pages_needed,
)
from repro.storage.iostats import Phase


class SeminaiveAlgorithm:
    """Iterative delta evaluation of the transitive closure."""

    name = "seminaive"
    accepts_instrumentation = True
    """The CLI may pass ``recorder``/``collector``, as it does to the
    two-phase algorithms; a traced run's record then carries a profile
    like theirs.  The baselines never see storage internals, only the
    seam."""

    def run(
        self,
        graph: Digraph,
        query: Query | None = None,
        system: SystemConfig | None = None,
        recorder: "SpanRecorder | None" = None,
        collector: "TraceCollector | None" = None,
    ) -> ClosureResult:
        """Evaluate the query; same protocol as the paper's algorithms.

        ``recorder`` times the run under a single ``run`` span;
        ``collector`` records structured trace events -- including the
        ``delta.spool``/``delta.scan`` markers unique to semi-naive --
        through the engine seam.  Both are pure observers.
        """
        with span("run", recorder):
            return self._run(graph, query, system, collector)

    def _run(
        self,
        graph: Digraph,
        query: Query | None,
        system: SystemConfig | None,
        collector: "TraceCollector | None",
    ) -> ClosureResult:
        query = Query.full() if query is None else query
        system = SystemConfig() if system is None else system
        metrics = MetricSet()
        engine = make_engine(system, graph, metrics=metrics, collector=collector)
        store = engine.make_list_store(PageKind.SUCCESSOR, policy=system.list_policy)
        start = time.process_time()
        metrics.io.phase = Phase.COMPUTE
        if collector is not None:
            collector.phase = Phase.COMPUTE.value

        if query.is_full:
            rows: list[int] = list(graph.nodes())
            engine.scan_relation()
        else:
            rows = list(query.sources or ())

        closure: dict[int, int] = {}
        delta: dict[int, int] = {}
        delta_tuples = 0
        for row in rows:
            bits = 0
            if not query.is_full:
                engine.read_successors(row)
            for child in graph.successors(row):
                bits |= 1 << child
            closure[row] = bits
            delta[row] = bits
            delta_tuples += bits.bit_count()
            store.create_list(row, bits.bit_count())
        metrics.fold(tuples_generated=delta_tuples)
        delta_page_counter = self._spool_delta(engine, 0, delta_tuples)

        # The join counters accumulate in locals and fold into
        # ``metrics`` once after the loop -- the final totals (and
        # every storage call, in the same order) are identical.
        read_list = store.read_list
        append = store.append
        tuple_io = tuples_generated = duplicates = list_reads = 0
        iterations = 0
        while delta:
            iterations += 1
            # The delta is a materialised relation: scan it.
            self._scan_delta(engine, delta_page_counter, delta_tuples)
            # Join the delta with the arc relation: fetch the successor
            # list of every distinct join value once per iteration.
            join_values: set[int] = set()
            for bits in delta.values():
                value = bits
                while value:
                    low = value & -value
                    join_values.add(low.bit_length() - 1)
                    value ^= low
            expansions: dict[int, int] = {}
            for y in sorted(join_values):
                successors = engine.read_successors(y)
                tuple_io += len(successors)
                bits = 0
                for child in successors:
                    bits |= 1 << child
                expansions[y] = bits

            new_delta: dict[int, int] = {}
            new_delta_tuples = 0
            for row, bits in delta.items():
                derived = 0
                value = bits
                while value:
                    low = value & -value
                    derived |= expansions[low.bit_length() - 1]
                    value ^= low
                derived_count = derived.bit_count()
                tuples_generated += derived_count
                fresh = derived & ~closure[row]
                fresh_count = fresh.bit_count()
                duplicates += derived_count - fresh_count
                if derived:
                    # Duplicate elimination merges the derived tuples
                    # with the row's stored result list.
                    list_reads += 1
                    read_list(row)
                if fresh:
                    closure[row] |= fresh
                    new_delta[row] = fresh
                    new_delta_tuples += fresh_count
                    append(row, fresh_count)
            # Spool the new delta relation to disk for the next round.
            delta_page_counter = self._spool_delta(
                engine, delta_page_counter, new_delta_tuples
            )
            delta = new_delta
            delta_tuples = new_delta_tuples
        self.iterations = iterations
        metrics.fold(
            tuple_io=tuple_io,
            tuples_generated=tuples_generated,
            duplicates=duplicates,
            list_reads=list_reads,
        )

        metrics.io.phase = Phase.WRITEOUT
        if collector is not None:
            collector.phase = Phase.WRITEOUT.value
        if engine.paged:
            output_pages: set[PageId] = set()
            for row in rows:
                output_pages.update(store.pages_of(row))
            engine.flush_output(output_pages)
        distinct = sum(map(int.bit_count, closure.values()))
        metrics.set_totals(
            distinct_tuples=distinct,
            output_tuples=distinct,
            cpu_seconds=time.process_time() - start,
        )

        return ClosureResult(
            algorithm=self.name,
            query=query,
            system=system,
            metrics=metrics,
            successor_bits={row: closure[row] for row in rows},
        )

    @staticmethod
    def _spool_delta(engine: StorageEngine, first_page: int, tuples: int) -> int:
        """Write a fresh delta relation (256 tuples/page) to disk.

        Returns the first page number of the spooled delta, which the
        next iteration's :meth:`_scan_delta` reads back.  Delta pages
        get new numbers each round -- a delta file is never reused.
        """
        num_pages = pages_needed(tuples, TUPLES_PER_PAGE)
        if engine.collector is not None:
            engine.collector.emit(
                EV_DELTA_SPOOL,
                PageKind.DELTA.value,
                first_page,
                detail=f"pages={num_pages} tuples={tuples}",
            )
        if engine.paged:
            for offset in range(num_pages):
                engine.create_page(PageKind.DELTA, first_page + offset)
        return first_page + num_pages

    @staticmethod
    def _scan_delta(engine: StorageEngine, end_page: int, tuples: int) -> None:
        """Sequentially read the current delta relation."""
        num_pages = pages_needed(tuples, TUPLES_PER_PAGE)
        if engine.collector is not None:
            engine.collector.emit(
                EV_DELTA_SCAN,
                PageKind.DELTA.value,
                end_page - num_pages,
                detail=f"pages={num_pages} tuples={tuples}",
            )
        if not engine.paged:
            return
        for offset in range(num_pages):
            engine.touch_page(PageKind.DELTA, end_page - num_pages + offset)
