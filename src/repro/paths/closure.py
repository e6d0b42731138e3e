"""Generalized transitive closure evaluation.

The evaluation follows the study's two-phase framework exactly: the
restructuring phase identifies the (magic) scope, topologically sorts
it and creates value lists holding the immediate labelled successors;
the computation phase expands in reverse topological order --

    V_x[y] = plus over children c of x:  label(x, c) * ({c: one} + V_c)

which, on a DAG, aggregates over *every* x-to-y path.

Two cost-relevant differences from the boolean closure:

* **No marking.**  Skipping the arc (x, c) because ``c`` is already in
  ``V_x`` would lose the paths through (x, c), whose values differ
  from the ones already aggregated.  Every arc unions.
* **Wider entries.**  A value list stores (successor, value) pairs --
  8 bytes instead of 4 -- so a 2048-byte page holds 225 entries
  (30 blocks of 7, keeping the block structure + one slot of padding),
  roughly doubling the page footprint of every list.

Cyclic inputs raise :class:`~repro.errors.CyclicGraphError`: a cycle
gives infinitely many paths, and even for idempotent semirings a
fixpoint iteration (not this framework) would be needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.query import Query, SystemConfig
from repro.errors import ConfigurationError
from repro.graphs.digraph import Digraph
from repro.graphs.toposort import topological_sort
from repro.metrics.counters import MetricSet
from repro.paths.semiring import (
    COUNT,
    MAX_MIN,
    MAX_PLUS,
    MAX_PROB,
    MIN_PLUS,
    Semiring,
)
from repro.paths.weighted import WeightedDigraph
from repro.storage.engine import PageId, PageKind, make_engine
from repro.storage.iostats import Phase

VALUE_BLOCK_CAPACITY = 7
"""(successor, value) entries per block: labelled entries are twice the
size of the boolean study's 4-byte entries, so a 30-block page holds
210 instead of 450."""


@dataclass
class GeneralizedClosure:
    """The result of a generalized closure evaluation.

    ``values[x][y]`` is the aggregate over all x-to-y paths; pairs with
    the semiring's ``zero`` (no path) are absent.
    """

    semiring: Semiring
    query: Query
    metrics: MetricSet
    values: dict[int, dict[int, object]] = field(default_factory=dict)

    def value(self, src: int, dst: int) -> object:
        """The aggregate for (src, dst); ``zero`` when no path exists."""
        return self.values.get(src, {}).get(dst, self.semiring.zero)

    @property
    def num_tuples(self) -> int:
        """Number of (source, successor, value) result tuples."""
        return sum(len(row) for row in self.values.values())


def generalized_closure(
    weighted: WeightedDigraph,
    semiring: Semiring,
    sources: list[int] | None = None,
    system: SystemConfig | None = None,
) -> GeneralizedClosure:
    """Aggregate path values over a weighted DAG.

    Parameters
    ----------
    weighted:
        The labelled input graph (must be acyclic).
    semiring:
        The aggregation algebra (see :mod:`repro.paths.semiring`).
    sources:
        Source nodes of a partial query; ``None`` aggregates for every
        node.
    system:
        Simulated system configuration; the block geometry is fixed to
        the labelled-entry layout regardless of the configured one.
    """
    system = system or SystemConfig()
    graph = weighted.graph
    metrics = MetricSet()
    engine = make_engine(system, graph, metrics=metrics)
    store = engine.make_list_store(
        PageKind.SUCCESSOR,
        policy=system.list_policy,
        blocks_per_page=30,
        block_capacity=VALUE_BLOCK_CAPACITY,
    )
    start = time.process_time()

    # -- restructuring ------------------------------------------------------
    metrics.io.phase = Phase.RESTRUCTURE
    if sources is None:
        query = Query.full()
        engine.scan_relation()
        scope = set(graph.nodes())
    else:
        query = Query.ptc(sources)
        scope = set()
        stack = list(query.sources or ())
        tuple_io = 0
        while stack:
            node = stack.pop()
            if node in scope:
                continue
            scope.add(node)
            children = engine.read_successors(node)
            tuple_io += len(children)
            stack.extend(child for child in children if child not in scope)
        metrics.fold(tuple_io=tuple_io)

    order = topological_sort(graph, scope)
    values: dict[int, dict[int, object]] = {}
    for node in reversed(order):
        store.create_list(node, len(graph.successors(node)))

    # -- computation --------------------------------------------------------
    metrics.io.phase = Phase.COMPUTE
    plus, times, one = semiring.plus, semiring.times, semiring.one
    # The per-arc counters accumulate in locals and fold into ``metrics``
    # once after the loop -- the final totals (and every storage call,
    # in the same order) are identical.
    arcs_considered = list_unions = 0
    tuple_io = tuples_generated = duplicates = 0
    for node in reversed(order):
        row: dict[int, object] = {}
        for child in graph.successors(node):
            arcs_considered += 1
            list_unions += 1
            label = weighted.label(node, child)
            child_row = values[child]
            store.read_list(child)
            tuple_io += len(child_row)
            tuples_generated += len(child_row) + 1

            extended = times(label, one)  # the one-arc path's value
            if child in row:
                duplicates += 1
                row[child] = plus(row[child], extended)
            else:
                row[child] = extended
            for successor, value in child_row.items():
                through = times(label, value)
                if successor in row:
                    duplicates += 1
                    row[successor] = plus(row[successor], through)
                else:
                    row[successor] = through
        values[node] = row
        grown = len(row) - len(graph.successors(node))
        if grown > 0:
            store.append(node, grown)
    metrics.fold(
        arcs_considered=arcs_considered,
        list_unions=list_unions,
        list_reads=list_unions,
        tuple_io=tuple_io,
        tuples_generated=tuples_generated,
        duplicates=duplicates,
    )

    # -- write-out ----------------------------------------------------------
    metrics.io.phase = Phase.WRITEOUT
    if query.is_full:
        output_nodes = list(order)
    else:
        output_nodes = [s for s in query.sources or () if s in scope]
    if engine.paged:
        output_pages: set[PageId] = set()
        for node in output_nodes:
            output_pages.update(store.pages_of(node))
        engine.flush_output(output_pages)
    metrics.set_totals(
        distinct_tuples=sum(len(row) for row in values.values()),
        output_tuples=sum(len(values[node]) for node in output_nodes),
        cpu_seconds=time.process_time() - start,
    )

    return GeneralizedClosure(
        semiring=semiring,
        query=query,
        metrics=metrics,
        values={node: values[node] for node in output_nodes},
    )


# -- convenience wrappers ------------------------------------------------------


def shortest_distances(
    weighted: WeightedDigraph,
    sources: list[int] | None = None,
    system: SystemConfig | None = None,
) -> GeneralizedClosure:
    """Minimum path weight between every (reachable) pair."""
    return generalized_closure(weighted, MIN_PLUS, sources, system)


def critical_path_lengths(
    weighted: WeightedDigraph,
    sources: list[int] | None = None,
    system: SystemConfig | None = None,
) -> GeneralizedClosure:
    """Maximum (critical) path weight -- scheduling's key quantity."""
    return generalized_closure(weighted, MAX_PLUS, sources, system)


def bottleneck_capacities(
    weighted: WeightedDigraph,
    sources: list[int] | None = None,
    system: SystemConfig | None = None,
) -> GeneralizedClosure:
    """Widest-path (maximum bottleneck) capacity between pairs."""
    return generalized_closure(weighted, MAX_MIN, sources, system)


def path_reliabilities(
    weighted: WeightedDigraph,
    sources: list[int] | None = None,
    system: SystemConfig | None = None,
) -> GeneralizedClosure:
    """Most-reliable-path probability, with arc labels in [0, 1]."""
    for src, dst, label in weighted.labelled_arcs():
        if not 0.0 <= float(label) <= 1.0:
            raise ConfigurationError(
                f"reliability labels must lie in [0, 1]; arc ({src}, {dst}) "
                f"has {label!r}"
            )
    return generalized_closure(weighted, MAX_PROB, sources, system)


def path_counts(
    graph: Digraph | WeightedDigraph,
    sources: list[int] | None = None,
    system: SystemConfig | None = None,
) -> GeneralizedClosure:
    """Number of distinct paths between every (reachable) pair."""
    if isinstance(graph, Digraph):
        graph = WeightedDigraph.uniform(graph, label=1)
    return generalized_closure(graph, COUNT, sources, system)
