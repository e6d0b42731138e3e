"""Schmitz's algorithm (related work, Section 8; Schmitz [23]).

Schmitz improved Tarjan's SCC algorithm into a transitive closure
algorithm: one depth-first traversal detects strongly connected
components and computes each component's successor set as it is
completed -- every member of a component shares one set, and an arc
leaving a component always points into an already-completed component,
so the union can always reuse finished sets.

Two properties distinguish it from BTC in the study's terms:

* it needs no separate condensation step -- cyclic inputs are handled
  in the same pass (the reason we include it as a cyclic-capable
  member of the suite); but
* it expands in DFS completion order without the topological-sort
  marking optimisation, so it performs one union per arc.  Ioannidis
  et al. [12] measured Schmitz against BTC and found BTC better on
  both I/O and CPU overall; ``benchmarks/bench_baselines.py`` checks
  that ordering here.

Selections are supported naturally: the DFS simply starts from the
source nodes, so only the magic subgraph is traversed.
"""

from __future__ import annotations

import time

from repro.core.query import Query, SystemConfig
from repro.core.result import ClosureResult
from repro.graphs.digraph import Digraph
from repro.metrics.counters import MetricSet
from repro.storage.engine import (
    ListStore,
    PageId,
    PageKind,
    make_engine,
)
from repro.storage.iostats import Phase


class SchmitzAlgorithm:
    """One-pass SCC-merging transitive closure (cyclic inputs welcome)."""

    name = "schmitz"

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

        metrics.io.phase = Phase.RESTRUCTURE
        if query.is_full:
            roots = list(graph.nodes())
            engine.scan_relation()
        else:
            roots = list(query.sources or ())
            # Arcs are fetched on first visit during the DFS below; the
            # restructuring phase for a selection is the search itself.

        metrics.io.phase = Phase.COMPUTE
        n = graph.num_nodes
        UNVISITED = -1
        index_of = [UNVISITED] * n
        lowlink = [0] * n
        on_stack = [False] * n
        component_of = [UNVISITED] * n
        scc_stack: list[int] = []
        counter = 0
        component_sets: dict[int, int] = {}
        component_members: dict[int, list[int]] = {}
        next_component = 0
        fetched: set[int] = set()

        def children_of(node: int) -> list[int]:
            if not query.is_full and node not in fetched:
                fetched.add(node)
                engine.read_successors(node)
            return graph.successors(node)

        for root in roots:
            if not 0 <= root < n:
                from repro.errors import InvalidNodeError

                raise InvalidNodeError(f"source node {root} out of range")
            if index_of[root] != UNVISITED:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    index_of[node] = lowlink[node] = counter
                    counter += 1
                    scc_stack.append(node)
                    on_stack[node] = True
                children = children_of(node)
                descended = False
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if index_of[child] == UNVISITED:
                        work[-1] = (node, child_index)
                        work.append((child, 0))
                        descended = True
                        break
                    if on_stack[child] and index_of[child] < lowlink[node]:
                        lowlink[node] = index_of[child]
                if descended:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index_of[node]:
                    members = []
                    while True:
                        member = scc_stack.pop()
                        on_stack[member] = False
                        component_of[member] = next_component
                        members.append(member)
                        if member == node:
                            break
                    self._complete_component(
                        next_component,
                        members,
                        graph,
                        component_of,
                        component_sets,
                        store,
                        metrics,
                    )
                    component_members[next_component] = members
                    next_component += 1

        metrics.io.phase = Phase.WRITEOUT
        if query.is_full:
            output_nodes = list(graph.nodes())
        else:
            output_nodes = list(dict.fromkeys(query.sources or ()))
        successor_bits = {
            node: component_sets[component_of[node]] for node in output_nodes
        }
        if engine.paged:
            output_pages: set[PageId] = set()
            for node in output_nodes:
                output_pages.update(store.pages_of(component_of[node]))
            engine.flush_output(output_pages)
        metrics.set_totals(
            distinct_tuples=sum(
                bits.bit_count() * len(component_members[comp])
                for comp, bits in component_sets.items()
            ),
            output_tuples=sum(
                bits.bit_count() for bits in successor_bits.values()
            ),
            cpu_seconds=time.process_time() - start,
        )

        return ClosureResult(
            algorithm=self.name,
            query=query,
            system=system,
            metrics=metrics,
            successor_bits=successor_bits,
        )

    def _complete_component(
        self,
        comp_id: int,
        members: list[int],
        graph: Digraph,
        component_of: list[int],
        component_sets: dict[int, int],
        store: ListStore,
        metrics: MetricSet,
    ) -> None:
        """Build the shared successor set of a finished component.

        Every arc out of the component points into a completed
        component (Tarjan invariant), so each distinct target
        component's set is unioned in exactly once.
        """
        bits = 0
        has_internal_arc = False
        seen_components: set[int] = set()
        read_list = store.read_list
        successors = graph.successors
        # The per-arc counters accumulate in locals and fold into
        # ``metrics`` once at the end -- the final totals (and every
        # storage call, in the same order) are identical.
        arcs_considered = arcs_marked = unions = 0
        tuple_io = generated = duplicates = 0
        for member in members:
            for child in successors(member):
                child_comp = component_of[child]
                if child_comp == comp_id:
                    has_internal_arc = True
                    continue
                arcs_considered += 1
                if child_comp in seen_components:
                    # The target component's set is here already; only
                    # the member arc's endpoint may be new.
                    arcs_marked += 1
                    bits |= 1 << child
                    continue
                seen_components.add(child_comp)
                unions += 1
                read_list(child_comp)
                comp_bits = component_sets[child_comp]
                child_bits = comp_bits | (1 << child)
                read = comp_bits.bit_count()
                tuple_io += read
                generated += read
                added = (child_bits & ~bits).bit_count()
                duplicates += read - min(read, added)
                bits |= child_bits
        if len(members) > 1 or has_internal_arc:
            for member in members:
                bits |= 1 << member
        component_sets[comp_id] = bits
        store.create_list(comp_id, bits.bit_count())
        metrics.fold(
            arcs_considered=arcs_considered,
            arcs_marked=arcs_marked,
            list_unions=unions,
            list_reads=unions,
            tuple_io=tuple_io,
            tuples_generated=generated,
            duplicates=duplicates,
        )
