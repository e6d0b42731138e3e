"""The Smart algorithm (related work, Section 8; Ioannidis/Kabler [19]).

Where Seminaive extends paths by one arc per iteration, Smart squares:
iteration ``k`` holds all paths of length up to ``2^k``, joining the
accumulated closure with itself (plus the base relation), so only
``log2(depth)`` iterations are needed.  Kabler et al. found Seminaive
to *always outperform Smart* in their page-I/O study -- squaring joins
the (large) closure-so-far with itself, which re-derives enormous
numbers of duplicates -- and this implementation reproduces that
finding (see ``benchmarks/bench_baselines.py``).

Cost model: each iteration scans the delta (paths discovered in the
previous round), probes the *accumulated result* (clustered per row,
like the successor-list file) for the join, merges for duplicate
elimination, and appends fresh tuples.
"""

from __future__ import annotations

import time

from repro.core.query import Query, SystemConfig
from repro.core.result import ClosureResult
from repro.graphs.digraph import Digraph
from repro.metrics.counters import MetricSet
from repro.storage.engine import (
    TUPLES_PER_PAGE,
    PageId,
    PageKind,
    StorageEngine,
    make_engine,
    pages_needed,
)
from repro.storage.iostats import Phase


class SmartAlgorithm:
    """Logarithmic (squaring) iterative transitive closure."""

    name = "smart"

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
        store = engine.make_list_store(PageKind.SUCCESSOR, policy=system.list_policy)
        start = time.process_time()
        metrics.io.phase = Phase.COMPUTE

        if query.is_full:
            rows = list(graph.nodes())
            engine.scan_relation()
        else:
            rows = list(query.sources or ())
            for row in rows:
                engine.read_successors(row)

        # closure[row] holds all successors found so far; delta[row]
        # the paths first discovered in the previous round.  To answer
        # a selection, Smart still squares over *every* node's row --
        # the join needs paths between arbitrary intermediate nodes --
        # which is why squaring cannot exploit selectivity.
        all_rows = list(graph.nodes())
        closure = {}
        delta = {}
        delta_tuples = 0
        for node in all_rows:
            bits = 0
            for child in graph.successors(node):
                bits |= 1 << child
            closure[node] = bits
            delta[node] = bits
            delta_tuples += bits.bit_count()
            store.create_list(node, bits.bit_count())
        metrics.fold(tuples_generated=delta_tuples)
        delta_pages_end = self._spool(engine, 0, delta_tuples)

        # The join counters accumulate in locals and fold into
        # ``metrics`` once after the loop -- the final totals (and
        # every storage call, in the same order) are identical.
        read_list = store.read_list
        append = store.append
        list_reads = tuples_generated = duplicates = 0
        iterations = 0
        while any(delta.values()):
            iterations += 1
            self._scan(engine, delta_pages_end, delta_tuples)
            new_delta = {}
            new_delta_tuples = 0
            for node in all_rows:
                derived = 0
                # Join the delta with the accumulated closure: paths of
                # length <= 2^k extended by paths of length <= 2^k.
                value = delta[node]
                while value:
                    low = value & -value
                    middle = low.bit_length() - 1
                    value ^= low
                    middle_closure = closure[middle]
                    if middle_closure:
                        list_reads += 1
                        read_list(middle)
                        derived |= middle_closure
                derived_count = derived.bit_count()
                tuples_generated += derived_count
                fresh = derived & ~closure[node]
                fresh_count = fresh.bit_count()
                duplicates += derived_count - fresh_count
                if derived:
                    read_list(node)  # duplicate-elimination merge
                if fresh:
                    closure[node] |= fresh
                    new_delta[node] = fresh
                    new_delta_tuples += fresh_count
                    append(node, fresh_count)
                else:
                    new_delta[node] = 0
            delta = new_delta
            delta_tuples = new_delta_tuples
            delta_pages_end = self._spool(engine, delta_pages_end, delta_tuples)
        self.iterations = iterations
        metrics.fold(
            list_reads=list_reads,
            tuples_generated=tuples_generated,
            duplicates=duplicates,
        )

        metrics.io.phase = Phase.WRITEOUT
        if engine.paged:
            output_pages: set[PageId] = set()
            for row in rows:
                output_pages.update(store.pages_of(row))
            engine.flush_output(output_pages)
        metrics.set_totals(
            distinct_tuples=sum(map(int.bit_count, closure.values())),
            output_tuples=sum(closure[row].bit_count() for row in rows),
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
    def _spool(engine: StorageEngine, first_page: int, tuples: int) -> int:
        num_pages = pages_needed(tuples, TUPLES_PER_PAGE)
        if engine.paged:
            for offset in range(num_pages):
                engine.create_page(PageKind.DELTA, first_page + offset)
        return first_page + num_pages

    @staticmethod
    def _scan(engine: StorageEngine, end_page: int, tuples: int) -> None:
        if not engine.paged:
            return
        num_pages = pages_needed(tuples, TUPLES_PER_PAGE)
        for offset in range(num_pages):
            engine.touch_page(PageKind.DELTA, end_page - num_pages + offset)
