"""Execution context: wires graph, query, engine and metrics together.

One :class:`ExecutionContext` is created per algorithm run.  It builds
the run's :class:`~repro.storage.engine.StorageEngine` (the paged
substrate by default, or the in-memory fast backend) and carries the
state the shared restructuring phase produces: the magic-graph scope,
the topological order, node levels and the initial adjacency (which the
BJ algorithm's single-parent reduction is allowed to rewrite).  All
storage is owned by the engine; the algorithms reach it through
``ctx.engine`` and the shared cost-accounting helpers here.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.chaos.audit import make_auditor
from repro.core.query import Query, SystemConfig
from repro.graphs.digraph import Digraph
from repro.metrics.counters import MetricSet
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceCollector
from repro.storage.engine import CAP_AUDIT, StorageEngine, make_engine
from repro.storage.iostats import Phase


class ExecutionContext:
    """All the state of one algorithm execution."""

    def __init__(
        self,
        graph: Digraph,
        query: Query,
        system: SystemConfig,
        needs_inverse: bool = False,
        recorder: SpanRecorder | None = None,
        collector: TraceCollector | None = None,
    ) -> None:
        self.graph = graph
        self.query = query
        self.system = system
        self.metrics = MetricSet()
        self.recorder = recorder
        self.collector = collector
        # The invariant auditor (repro.chaos.audit): None when audit
        # mode is "off", cheap end-of-run checks by default, plus
        # after-every-eviction pool checks in "strict" mode.  A pure
        # observer -- page-I/O counts are identical with or without it.
        self.auditor = make_auditor()
        self.engine: StorageEngine = make_engine(
            system,
            graph,
            metrics=self.metrics,
            needs_inverse=needs_inverse,
            recorder=recorder,
            auditor=self.auditor,
            collector=collector,
        )
        if self.auditor is not None and not self.engine.supports(CAP_AUDIT):
            # An *explicitly* requested audit was already refused by the
            # engine's constructor.  The implicit cheap auditor has
            # nothing left to check here -- this engine never touches
            # the counters or substrate it covers -- so it does not
            # attach at all (capability honesty, not a silent no-op).
            self.auditor = None

        # Populated by the restructuring phase:
        self.topo_order: list[int] = []
        """Magic-graph nodes in topological order."""
        self.position: dict[int, int] = {}
        """Topological position of each magic node."""
        self.in_scope: set[int] = set()
        """The magic graph's node set (all nodes for a full query)."""
        self.levels: dict[int, int] = {}
        """Node levels of the magic graph (rectangle model, Section 5.3)."""
        self.adjacency: dict[int, Sequence[int]] = {}
        """Per-node children within the magic graph.

        Rows are zero-copy CSR :class:`~repro.graphs.digraph.ArcView`
        windows for read-only algorithms, or fresh mutable lists when
        the algorithm declares ``mutates_adjacency`` (only BJ does).
        """
        self.num_magic_arcs: int = 0
        """Arc count of the magic graph, frozen when the scope is sorted."""
        self.lists: dict[int, int] = {}
        """Successor-list contents as bitsets (bit j set = j in the list)."""
        self.acquired: dict[int, int] = {}
        """Bits acquired through unions; the marking test consults this."""
        self.height: float = 0.0
        """H of the magic graph (rectangle model)."""
        self.width: float = 0.0
        """W of the magic graph (rectangle model)."""
        self.max_level: int = 0
        """Maximum node level of the magic graph."""

    # -- engine component views (read-only conveniences) ---------------------

    @property
    def store(self):
        """The engine's main successor-list store."""
        return self.engine.store

    @property
    def pool(self):
        """The paged engine's buffer pool (None under the fast engine)."""
        return getattr(self.engine, "pool", None)

    @property
    def relation(self):
        """The paged engine's arc relation (None under the fast engine)."""
        return getattr(self.engine, "relation", None)

    @property
    def inverse_relation(self):
        """The paged engine's inverse relation, when materialised."""
        return getattr(self.engine, "inverse_relation", None)

    # -- phase bookkeeping -------------------------------------------------

    def enter_phase(self, phase: Phase) -> None:
        """Switch the I/O accounting to a new execution phase.

        Phase transitions are also the auditor's counter checkpoints:
        totals must be monotone and requests must equal hits plus
        physical reads at every boundary.
        """
        if self.auditor is not None:
            self.auditor.check_counters(self.metrics.io)
        self.metrics.io.phase = phase
        if self.collector is not None:
            self.collector.phase = phase.value

    # -- shared helpers used by the algorithms ------------------------------

    def sources(self) -> tuple[int, ...]:
        """The query's source nodes (all scope nodes for a full query)."""
        if self.query.sources is not None:
            return self.query.sources
        return tuple(self.topo_order)

    def arc_locality(self, src: int, dst: int) -> int:
        """``level(src) - level(dst)`` for an arc of the magic graph."""
        return self.levels[src] - self.levels[dst]

    def union_list(self, target: int, child: int) -> None:
        """Union ``{child} + S_child`` into ``S_target`` (flat lists).

        Performs the full cost accounting of one successor-list union:
        the child's list is read (page touches plus one list I/O), its
        tuples are counted as generated (deductions), duplicates are
        counted against the target's current contents, and the newly
        added successors are appended to the target's list in the
        engine's store.
        """
        store = self.engine.store
        lists = self.lists
        store.read_list(child)

        source_bits = lists[child] | (1 << child)
        read_tuples = store.length(child)

        before = lists[target]
        # ``child`` itself is an immediate successor already present in
        # the target's restructured list, so only the child's proper
        # successor list can contribute new entries.
        added = (source_bits & ~before).bit_count()
        self.metrics.count_union(read_tuples, read_tuples - added)

        lists[target] = before | source_bits
        acquired = self.acquired
        acquired[target] = acquired.get(target, 0) | source_bits
        if added:
            store.append(target, added)
