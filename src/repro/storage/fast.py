"""The fast in-memory storage engine: no page simulation at all.

:class:`FastEngine` answers the same queries as the paged engine --
the algorithms' bitset/tree computation is untouched, so closures and
tuple-level counters (unions, generated tuples, duplicates) are
bit-identical -- but every page-cost hook is free: no buffer pool, no
clustered index charges, no block layout.  Page-I/O counters therefore
stay at zero.  This is the backend for differential testing, the
:mod:`repro.api` query path, and serving workloads where the paper's
cost model is irrelevant and runtime is not.

Capability honesty: the chaos fault plane, event tracing, and substrate
auditing all live in the paged structures this engine does not have.
Rather than silently no-op'ing, construction fails with a structured
:class:`~repro.errors.EngineCapabilityError` whenever one of those
planes was *explicitly requested* (a fault plan is armed, a trace
collector is attached, or ``--audit``/``REPRO_AUDIT`` was set).  The implicit
default ("cheap" auditing) simply detaches: there is no paged
substrate to check, so no auditor is constructed and
:meth:`FastEngine.audit` is a no-op.  Parity with
the paged engine is enforced externally by the differential battery
and the golden-record tests.
"""

from __future__ import annotations

import sys
from array import array
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.chaos.audit import explicit_audit_mode
from repro.chaos.faults import STORAGE_FAULT_KINDS, active_plan
from repro.errors import StorageError
from repro.storage.engine import (
    CAP_AUDIT,
    CAP_CHAOS,
    CAP_TRACE,
    ListStore,
    StorageEngine,
)
from repro.storage.page import BLOCK_CAPACITY, PageId, PageKind
from repro.storage.successor_store import ListPlacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.audit import InvariantAuditor
    from repro.graphs.digraph import Digraph
    from repro.metrics.counters import MetricSet
    from repro.obs.spans import SpanRecorder
    from repro.obs.tracing import TraceCollector


_ABSENT = -1
"""Sentinel length meaning "no list exists for this node id"."""


class FastListStore(ListStore):
    """Length-only successor lists: a flat array, no pages, no blocks.

    The algorithms keep list *contents* themselves (bitsets/trees); the
    paged store tracks layout so page touches can be charged.  With no
    page costs to model, only the lengths remain -- they feed the
    tuple-I/O accounting shared by both engines.  Node ids are the
    dense ``0..n-1`` space of the graph, so lengths live in one
    ``array('q')`` indexed by node (``-1`` = absent) instead of a
    dict -- no per-entry boxing, and sizing it up front from the
    graph's node count makes list creation allocation-free.
    """

    def __init__(self, block_capacity: int = BLOCK_CAPACITY, capacity: int = 0) -> None:
        self.block_capacity = block_capacity
        self._lengths = array("q", [_ABSENT]) * capacity
        self._count = 0

    def __contains__(self, node: int) -> bool:
        lengths = self._lengths
        return 0 <= node < len(lengths) and lengths[node] != _ABSENT

    def _grow_to(self, node: int) -> None:
        """Widen the length array to cover ``node`` (amortised doubling)."""
        needed = node + 1
        grown = max(needed, 2 * len(self._lengths))
        self._lengths.extend(array("q", [_ABSENT]) * (grown - len(self._lengths)))

    def create_list(self, node: int, initial_entries: int = 0) -> None:
        if node < 0:
            raise StorageError(f"node id must be non-negative, got {node}")
        if node >= len(self._lengths):
            self._grow_to(node)
        elif self._lengths[node] != _ABSENT:
            raise StorageError(f"list for node {node} already exists")
        self._lengths[node] = initial_entries
        self._count += 1

    def read_list(self, node: int) -> int:
        # The existence check is inlined (no _require call): these are
        # the hottest store entry points under the fast engine.
        lengths = self._lengths
        if not 0 <= node < len(lengths) or lengths[node] == _ABSENT:
            raise StorageError(f"no successor list exists for node {node}")
        return 0

    def read_blocks(self, node: int, block_indexes: list[int]) -> int:
        lengths = self._lengths
        if not 0 <= node < len(lengths) or lengths[node] == _ABSENT:
            raise StorageError(f"no successor list exists for node {node}")
        return 0

    def append(self, node: int, count: int) -> None:
        if count <= 0:
            return
        lengths = self._lengths
        if not 0 <= node < len(lengths) or lengths[node] == _ABSENT:
            raise StorageError(f"no successor list exists for node {node}")
        lengths[node] += count

    def rewrite_list(self, node: int, new_length: int) -> None:
        lengths = self._lengths
        if not 0 <= node < len(lengths) or lengths[node] == _ABSENT:
            raise StorageError(f"no successor list exists for node {node}")
        lengths[node] = new_length

    def drop_list(self, node: int) -> None:
        lengths = self._lengths
        if 0 <= node < len(lengths) and lengths[node] != _ABSENT:
            lengths[node] = _ABSENT
            self._count -= 1

    def length(self, node: int) -> int:
        lengths = self._lengths
        if 0 <= node < len(lengths) and lengths[node] != _ABSENT:
            return lengths[node]
        return 0

    @property
    def list_count(self) -> int:
        """How many lists currently exist."""
        return self._count

    def pages_of(self, node: int) -> tuple[PageId, ...]:
        return ()  # shared empty tuple: no layout, no allocation

    def page_count(self, node: int) -> int:
        return 0

    def block_index_of_entry(self, node: int, entry_index: int) -> int:
        length = self._require(node)
        if not 0 <= entry_index < length:
            raise StorageError(
                f"entry {entry_index} out of range for list of length {length}"
            )
        return entry_index // self.block_capacity

    @property
    def total_pages(self) -> int:
        return 0

    def _require(self, node: int) -> int:
        lengths = self._lengths
        if not 0 <= node < len(lengths) or lengths[node] == _ABSENT:
            raise StorageError(f"no successor list exists for node {node}")
        return lengths[node]


class FastEngine(StorageEngine):
    """Pure in-memory execution: identical closures, zero page costs."""

    name = "fast"
    capabilities = frozenset()

    def __init__(
        self,
        graph: "Digraph",
        system: Any,
        *,
        metrics: "MetricSet",
        needs_inverse: bool = False,
        recorder: "SpanRecorder | None" = None,
        auditor: "InvariantAuditor | None" = None,
        collector: "TraceCollector | None" = None,
    ) -> None:
        # Refuse explicitly requested planes this engine cannot honour.
        if collector is not None:
            self.require(CAP_TRACE, "event tracing needs the simulated pool")
        plan = active_plan()
        if plan is not None and plan.arms_any(STORAGE_FAULT_KINDS):
            # Serve-site faults (slow-handler, cancelled-request, ...)
            # live above the seam and work on every engine; only the
            # storage/experiment sites need the paged substrate.
            self.require(CAP_CHAOS, "the storage fault sites live in the paged substrate")
        if explicit_audit_mode() not in (None, "off"):
            self.require(CAP_AUDIT, "substrate auditing needs the paged structures")
        self.graph = graph
        self.system = system
        self.metrics = metrics
        self.collector = None
        self.pool = None
        self.relation = None
        self.inverse_relation = None
        self.store: FastListStore = FastListStore(
            block_capacity=system.block_capacity, capacity=graph.num_nodes
        )

    # -- relation access paths ----------------------------------------------

    def scan_relation(self) -> int:
        return 0

    def read_successors(self, node: int) -> Sequence[int]:
        return self.graph.successors(node)

    def read_predecessors(self, node: int) -> Sequence[int]:
        return self.graph.predecessors(node)

    def probe_arcs_unclustered(self, node_arcs: int, seed_position: int) -> None:
        pass

    # -- successor-list storage ---------------------------------------------

    def make_list_store(
        self,
        kind: PageKind = PageKind.SUCCESSOR,
        policy: ListPlacementPolicy = ListPlacementPolicy.MOVE_SELF,
        *,
        blocks_per_page: int | None = None,
        block_capacity: int | None = None,
    ) -> FastListStore:
        # No page simulation: the block geometry has nothing to shape.
        return FastListStore(capacity=self.graph.num_nodes)

    # -- page-level cost hooks (all free) ------------------------------------

    def touch_page(self, kind: PageKind, number: int, dirty: bool = False) -> None:
        pass

    def create_page(self, kind: PageKind, number: int) -> None:
        pass

    def flush_output(self, pages: Iterable[PageId]) -> None:
        pass

    # -- frame pinning: nothing is ever resident, nothing ever pinned --------

    def pin_page(self, page: PageId) -> None:
        pass

    def unpin_page(self, page: PageId) -> None:
        pass

    @property
    def pinned_count(self) -> int:
        return 0

    @property
    def frame_capacity(self) -> int:
        # Effectively unbounded: Hybrid's memory-pressure guards never
        # fire, so it degenerates to one block expanded in strict
        # reverse topological order (the BTC-equivalent schedule).
        return sys.maxsize

    # -- observability ------------------------------------------------------

    def audit(self, auditor: "InvariantAuditor") -> None:
        """No paged substrate to inspect: auditing is a no-op here."""

    def snapshot(self) -> dict[str, Any]:
        return {"engine": self.name, "lists": self.store.list_count}

    def reset(self) -> None:
        self.store = FastListStore(
            block_capacity=self.system.block_capacity,
            capacity=self.graph.num_nodes,
        )
