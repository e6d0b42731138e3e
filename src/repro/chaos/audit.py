"""Invariant auditing for the simulated storage substrate.

The experiments trust the substrate's internal accounting: the buffer
pool's residency/pinning state, the successor store's block structure
(at most ``blocks_per_page`` blocks of at most ``block_capacity``
entries, the paper's 30 x 15 geometry), the clustered layout of the
input relation, and the monotonicity of every I/O counter.  This module
turns that trust into checks.

Three modes, selected process-wide by the ``REPRO_AUDIT`` environment
variable alone (the CLIs' ``--audit`` flag exports it, so worker
processes see the same mode); a value naming no mode is refused:

* ``off``    -- no auditor is attached at all;
* ``cheap``  -- the default: counters are checked at every phase
  transition, and the pool, the successor store and the counters once
  at the end of each run.  The input relation's frozen CSR is checked
  on the first audit of each graph object only, since a graph never
  changes once built.  On closure-paged's 34 queries (seed 1, a 2-vCPU
  VM) the end-of-run sweeps cost about 33 ms of a pass of about 0.8 s,
  nearly all of it :meth:`InvariantAuditor.check_store`; a graph's
  first audit costs about 1 ms;
* ``strict`` -- additionally re-verifies the buffer pool's residency
  and pin accounting after *every* eviction.

The auditor is a pure observer: it reads internal state directly and
never issues a page request, so page-I/O counts are bit-identical with
auditing on or off.  A failed check raises a structured
:class:`~repro.errors.InvariantViolation` naming the invariant and the
offending values.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.core.context import ExecutionContext
    from repro.graphs.digraph import Digraph
    from repro.storage.buffer import BufferPool
    from repro.storage.iostats import IoStats
    from repro.storage.relation import ArcRelation
    from repro.storage.successor_store import SuccessorListStore

ENV_AUDIT = "REPRO_AUDIT"
"""Environment variable selecting the audit mode (off/cheap/strict)."""

AUDIT_MODES = ("off", "cheap", "strict")

_AUDITED_GRAPHS: weakref.WeakValueDictionary[int, Digraph] = weakref.WeakValueDictionary()
"""Graphs whose CSR order has been checked, by id (a ``Digraph`` is
unhashable); an entry goes when its graph does, so this holds only live
graphs and never grows with the number of runs."""


def explicit_audit_mode() -> str | None:
    """The audit mode ``REPRO_AUDIT`` asks for, or None when it is unset.

    ``audit_mode()`` falls back to "cheap" when nothing was requested;
    engines without audit support (see :mod:`repro.storage.fast`) must
    distinguish that implicit default (degrade to counter-only checks)
    from an explicit request (refuse).  A value naming no mode raises a
    :class:`~repro.errors.ConfigurationError` naming the variable, the
    value and the valid modes -- a typo must not silently run ``cheap``.
    """
    value = os.environ.get(ENV_AUDIT, "").strip().lower()
    if not value:
        return None
    if value not in AUDIT_MODES:
        valid = ", ".join(AUDIT_MODES)
        raise ConfigurationError(
            f"{ENV_AUDIT}={value!r} names an unknown audit mode; valid modes: {valid}"
        )
    return value


def audit_mode() -> str:
    """The effective audit mode: ``REPRO_AUDIT``, else cheap."""
    return explicit_audit_mode() or "cheap"


def make_auditor() -> "InvariantAuditor | None":
    """An auditor for one run under the current mode (None when off)."""
    mode = audit_mode()
    if mode == "off":
        return None
    return InvariantAuditor(strict=(mode == "strict"))


class InvariantAuditor:
    """Cheap accounting checks over one algorithm execution.

    One auditor is created per run (per :class:`ExecutionContext`) so
    its counter-monotonicity watermarks never mix runs.  All methods
    either return quietly or raise :class:`InvariantViolation`.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.checks = 0
        self._last_totals: tuple[int, int, int, int] | None = None

    # -- buffer pool ---------------------------------------------------------

    def check_pool(self, pool: "BufferPool") -> None:
        """Residency vs. capacity and pin accounting vs. the pinned set."""
        self.checks += 1
        if len(pool._frames) > pool.capacity:
            raise InvariantViolation(
                "pool.residency",
                "more resident pages than frames",
                resident=len(pool._frames), capacity=pool.capacity,
            )
        pinned_frames = set()
        for page, frame in pool._frames.items():
            if frame.page != page:
                raise InvariantViolation(
                    "pool.frame-identity", "frame filed under the wrong page id",
                    slot=str(page), frame=str(frame.page),
                )
            if frame.pin_count < 0:
                raise InvariantViolation(
                    "pool.pin-count", "negative pin count",
                    page=str(page), pin_count=frame.pin_count,
                )
            if frame.pin_count > 0:
                pinned_frames.add(page)
        if pinned_frames != pool._pinned:
            raise InvariantViolation(
                "pool.pinned-set",
                "pinned set disagrees with the frames' pin counts",
                pinned_set=len(pool._pinned), pinned_frames=len(pinned_frames),
                stale=len(pool._pinned - pinned_frames),
                missing=len(pinned_frames - pool._pinned),
            )

    def after_evict(self, pool: "BufferPool") -> None:
        """Strict-mode hook: the pool calls this after every eviction."""
        if self.strict:
            self.check_pool(pool)

    # -- successor store -----------------------------------------------------

    def check_store(self, store: "SuccessorListStore") -> None:
        """Block structure, per-page accounting, page directory and page lists."""
        self.checks += 1
        page_ids = store._page_ids
        for number, page_id in enumerate(page_ids):
            if page_id.kind is not store.kind or page_id.number != number:
                raise InvariantViolation(
                    "store.page-list",
                    "a stored page id does not name its own page of this store",
                    page=number, stored=str(page_id), kind=store.kind.value,
                )
        used_on_page: dict[int, int] = {}
        nodes_on_page: dict[int, set[int]] = {}
        for node, layout in store._layouts.items():
            total = 0
            first_seen: dict[int, None] = {}  # the list's pages, first-block order
            for page, used in layout.blocks:
                if not 1 <= used <= store.block_capacity:
                    raise InvariantViolation(
                        "store.block-capacity",
                        f"block holds {used} entries, capacity is "
                        f"{store.block_capacity}",
                        node=node, page=page, used=used,
                    )
                if not 0 <= page < len(page_ids):
                    raise InvariantViolation(
                        "store.page-range",
                        "block on a page the store never allocated",
                        node=node, page=page, allocated=len(page_ids),
                    )
                used_on_page[page] = used_on_page.get(page, 0) + 1
                first_seen[page] = None
                total += used
            if total != layout.length:
                raise InvariantViolation(
                    "store.length",
                    "list length disagrees with the sum of its block fills",
                    node=node, length=layout.length, block_sum=total,
                )
            if layout.pages != [page_ids[page] for page in first_seen]:
                raise InvariantViolation(
                    "store.page-list",
                    "cached page list differs from the pages of the list's "
                    "blocks in first-block order",
                    node=node, cached=[str(page) for page in layout.pages][:5],
                    blocks=list(first_seen)[:5],
                )
            for page in first_seen:
                nodes_on_page.setdefault(page, set()).add(node)
        for page, used in used_on_page.items():
            free = store._free_blocks.get(page)
            if free is None or free < 0 or used + free != store.blocks_per_page:
                raise InvariantViolation(
                    "store.page-accounting",
                    f"page has {used} used blocks and {free} free slots; "
                    f"a page holds exactly {store.blocks_per_page} blocks",
                    page=page, used=used, free=free,
                )
        directories = store._lists_on_page
        for page in sorted(nodes_on_page.keys() | directories.keys()):
            nodes = nodes_on_page.get(page, set())
            directory = directories.get(page, set())
            if nodes != directory:
                raise InvariantViolation(
                    "store.page-directory",
                    "a page's directory entry differs from the lists with a "
                    "block on it",
                    page=page, missing=sorted(nodes - directory)[:5],
                    stale=sorted(directory - nodes)[:5],
                )

    # -- clustered input relation --------------------------------------------

    def check_relation(self, relation: "ArcRelation") -> None:
        """Clustered layout: offsets monotone, tuple runs sorted on dst.

        The relation lays out its graph's frozen CSR, so the order checks
        run on the first audit of each graph object only (JKB2's inverse
        relation is the graph's one cached reverse); the tuple count is
        the relation's own and is checked on every audit.
        """
        self.checks += 1
        offsets = relation._offsets
        if offsets and offsets[-1] != relation.num_tuples:
            raise InvariantViolation(
                "relation.clustering",
                "final offset disagrees with the tuple count",
                final_offset=offsets[-1], num_tuples=relation.num_tuples,
            )
        graph = relation._graph
        if _AUDITED_GRAPHS.get(id(graph)) is graph:
            return
        for node in range(len(offsets) - 1):
            if offsets[node] > offsets[node + 1]:
                raise InvariantViolation(
                    "relation.clustering",
                    "tuple-file offsets are not monotone in the source attribute",
                    node=node, offset=offsets[node], next_offset=offsets[node + 1],
                )
        for node in graph.nodes():
            successors = graph.successors(node)
            if any(a >= b for a, b in zip(successors, successors[1:])):
                raise InvariantViolation(
                    "relation.index-order",
                    "a clustered tuple run is not sorted on the indexed "
                    "destination attribute",
                    node=node,
                )
        _AUDITED_GRAPHS[id(graph)] = graph

    # -- I/O counters --------------------------------------------------------

    def check_counters(self, io: "IoStats") -> None:
        """Monotonicity plus the request = hit + read identity."""
        self.checks += 1
        totals = (io.total_requests, io.total_hits, io.total_reads, io.total_writes)
        if self._last_totals is not None:
            for name, before, now in zip(
                ("requests", "hits", "reads", "writes"), self._last_totals, totals
            ):
                if now < before:
                    raise InvariantViolation(
                        "counters.monotonic",
                        f"total {name} decreased",
                        before=before, now=now,
                    )
        self._last_totals = totals
        if io.total_requests != io.total_hits + io.total_reads:
            raise InvariantViolation(
                "counters.request-split",
                "requests != hits + physical reads",
                requests=io.total_requests, hits=io.total_hits,
                reads=io.total_reads,
            )

    # -- whole-run audit -----------------------------------------------------

    def audit_run(self, ctx: "ExecutionContext") -> None:
        """The end-of-run sweep: counters, then the engine's substrate.

        The substrate checks are dispatched through the storage
        engine's audit hook (:meth:`StorageEngine.audit`): the
        paged engine hands over its pool, store and relations; the fast
        engine has no substrate and contributes nothing beyond the
        counter identities.
        """
        self.check_counters(ctx.metrics.io)
        ctx.engine.audit(self)
