"""The paper-faithful paged storage engine.

:class:`PagedEngine` wires together the simulated substrate the study's
numbers come from -- a :class:`~repro.storage.buffer.BufferPool` of
2048-byte frames, the clustered :class:`~repro.storage.relation.ArcRelation`
(plus its inverse for JKB2), and block-structured
:class:`~repro.storage.successor_store.SuccessorListStore` pages -- and
exposes them through the :class:`~repro.storage.engine.StorageEngine`
interface.  Every method is a 1:1 delegation to the component that
implemented it before the seam existed, so the engine's counters are
bit-identical to the pre-seam substrate.

``PagedEngine.paged`` is ``True``: page costs, pinning, chaos fault
injection (the fault sites live in the pool and the store), invariant
auditing, and event tracing all act on this engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, make_policy
from repro.storage.engine import ListStore, StorageEngine
from repro.storage.page import PageId, PageKind
from repro.storage.relation import ArcRelation, InverseArcRelation
from repro.storage.successor_store import ListPlacementPolicy, SuccessorListStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.audit import InvariantAuditor
    from repro.graphs.digraph import Digraph
    from repro.metrics.counters import MetricSet
    from repro.obs.spans import SpanRecorder
    from repro.obs.tracing import TraceCollector

# SuccessorListStore predates the seam and conforms structurally.
ListStore.register(SuccessorListStore)


class PagedEngine(StorageEngine):
    """Simulated paged disk: buffer pool, clustered relations, list pages."""

    name = "paged"
    paged = True

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
        self.graph = graph
        self.system = system
        self.metrics = metrics
        self._auditor = auditor
        self.collector = collector
        self.pool = BufferPool(
            system.buffer_pages,
            stats=metrics.io,
            policy=make_policy(system.page_policy, seed=system.policy_seed),
            recorder=recorder,
            auditor=auditor,
            collector=collector,
        )
        self.relation = ArcRelation(graph)
        self.inverse_relation: InverseArcRelation | None = (
            InverseArcRelation(graph) if needs_inverse else None
        )
        self.store: SuccessorListStore = SuccessorListStore(
            self.pool,
            policy=system.list_policy,
            blocks_per_page=system.blocks_per_page,
            block_capacity=system.block_capacity,
        )

    # -- relation access paths ----------------------------------------------

    def scan_relation(self) -> int:
        return self.relation.scan(self.pool)

    def read_successors(self, node: int) -> Sequence[int]:
        return self.relation.read_successors(node, self.pool)

    def read_predecessors(self, node: int) -> Sequence[int]:
        if self.inverse_relation is None:
            raise StorageError(
                "the inverse relation was not materialised for this run"
            )
        return self.inverse_relation.read_predecessors(node, self.pool)

    def probe_arcs_unclustered(self, node_arcs: int, seed_position: int) -> None:
        self.relation.probe_arcs_unclustered(
            node_arcs, self.pool, seed_position=seed_position
        )

    # -- successor-list storage ---------------------------------------------

    def make_list_store(
        self,
        kind: PageKind = PageKind.SUCCESSOR,
        policy: ListPlacementPolicy = ListPlacementPolicy.MOVE_SELF,
        *,
        blocks_per_page: int | None = None,
        block_capacity: int | None = None,
    ) -> SuccessorListStore:
        geometry: dict[str, int] = {}
        if blocks_per_page is not None:
            geometry["blocks_per_page"] = blocks_per_page
        if block_capacity is not None:
            geometry["block_capacity"] = block_capacity
        return SuccessorListStore(self.pool, kind=kind, policy=policy, **geometry)

    # -- page-level cost hooks ----------------------------------------------

    def touch_page(self, kind: PageKind, number: int, dirty: bool = False) -> None:
        self.pool.access(PageId(kind, number), dirty=dirty)

    def create_page(self, kind: PageKind, number: int) -> None:
        self.pool.create(PageId(kind, number))

    def flush_output(self, pages: Iterable[PageId]) -> None:
        self.pool.flush_selected(set(pages))

    # -- frame pinning ------------------------------------------------------

    def pin_page(self, page: PageId) -> None:
        self.pool.pin(page, dirty=True)

    def unpin_page(self, page: PageId) -> None:
        self.pool.unpin(page)

    @property
    def pinned_count(self) -> int:
        return self.pool.pinned_count

    @property
    def frame_capacity(self) -> int:
        return self.pool.capacity

    # -- observability ------------------------------------------------------

    def audit(self, auditor: "InvariantAuditor") -> None:
        auditor.check_pool(self.pool)
        auditor.check_store(self.store)
        auditor.check_relation(self.relation)
        if self.inverse_relation is not None:
            auditor.check_relation(self.inverse_relation)
