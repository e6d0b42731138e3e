"""Buffer pool with pluggable page replacement policies.

Every page access in the simulator goes through a :class:`BufferPool`.
The pool has a fixed number of frames (``M`` in the paper, varied over
10, 20 and 50 pages in the experiments).  A request for a resident page
is a *hit*; a request for a non-resident page is a *miss* that charges
one physical read, and, if the evicted victim frame is dirty, one
physical write.

Pages can be *pinned*: a pinned page is never chosen as an eviction
victim.  The Hybrid algorithm pins the pages of its diagonal block
(Section 3.2); if a miss occurs while every frame is pinned the pool
raises :class:`~repro.errors.BufferPoolExhaustedError`, which Hybrid
interprets as the signal to perform dynamic reblocking.

The paper examined several page replacement policies and found their
effect secondary (Section 5.1); LRU, MRU, FIFO, CLOCK and a seeded
RANDOM policy are provided so that finding can be checked (see
``benchmarks/bench_ablation_policies.py``).
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chaos.faults import FaultKind, FaultPlan, active_plan
from repro.errors import (
    BufferPoolExhaustedError,
    ConfigurationError,
    CorruptPageReadError,
    PageNotPinnedError,
)
from repro.obs.spans import SpanRecorder, span
from repro.obs.tracing import (
    EV_PAGE_CREATE,
    EV_PAGE_EVICT,
    EV_PAGE_FETCH,
    EV_PAGE_HIT,
    EV_PAGE_PIN,
    EV_PAGE_UNPIN,
    EV_PAGE_WRITE,
    TraceCollector,
)
from repro.storage.iostats import IoStats
from repro.storage.page import PageId, PageKind

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.chaos.audit import InvariantAuditor


class ReplacementPolicy(ABC):
    """Chooses which unpinned resident page to evict on a miss."""

    name: str = "abstract"

    @abstractmethod
    def note_admit(self, page: PageId) -> None:
        """Called when ``page`` enters the pool."""

    @abstractmethod
    def note_access(self, page: PageId) -> None:
        """Called when a resident ``page`` is accessed (a hit)."""

    @abstractmethod
    def note_evict(self, page: PageId) -> None:
        """Called when ``page`` leaves the pool."""

    @abstractmethod
    def choose_victim(self, pinned: set[PageId]) -> PageId | None:
        """Return an unpinned resident page to evict, or ``None``."""


class LruPolicy(ReplacementPolicy):
    """Evict the least recently used unpinned page."""

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()
        # A hit only moves the page to the back: the C method itself is
        # the hook, so the pool's hit path makes no Python-level call.
        self.note_access = self._order.move_to_end  # type: ignore[method-assign]

    def note_admit(self, page: PageId) -> None:
        self._order[page] = None

    def note_access(self, page: PageId) -> None:
        self._order.move_to_end(page)

    def note_evict(self, page: PageId) -> None:
        self._order.pop(page, None)

    def choose_victim(self, pinned: set[PageId]) -> PageId | None:
        for page in self._order:
            if page not in pinned:
                return page
        return None


class MruPolicy(LruPolicy):
    """Evict the most recently used unpinned page."""

    name = "mru"

    def choose_victim(self, pinned: set[PageId]) -> PageId | None:
        for page in reversed(self._order):
            if page not in pinned:
                return page
        return None


class FifoPolicy(ReplacementPolicy):
    """Evict the unpinned page that entered the pool earliest."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def note_admit(self, page: PageId) -> None:
        self._order[page] = None

    def note_access(self, page: PageId) -> None:
        # FIFO ignores accesses after admission.
        pass

    def note_evict(self, page: PageId) -> None:
        self._order.pop(page, None)

    def choose_victim(self, pinned: set[PageId]) -> PageId | None:
        for page in self._order:
            if page not in pinned:
                return page
        return None


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK) replacement."""

    name = "clock"

    def __init__(self) -> None:
        self._pages: list[PageId] = []
        self._referenced: dict[PageId, bool] = {}
        self._hand = 0

    def note_admit(self, page: PageId) -> None:
        self._pages.append(page)
        self._referenced[page] = True

    def note_access(self, page: PageId) -> None:
        self._referenced[page] = True

    def note_evict(self, page: PageId) -> None:
        index = self._pages.index(page)
        self._pages.pop(index)
        del self._referenced[page]
        if index < self._hand:
            self._hand -= 1
        if self._pages and self._hand >= len(self._pages):
            self._hand = 0

    def choose_victim(self, pinned: set[PageId]) -> PageId | None:
        if not self._pages:
            return None
        # At most two sweeps: the first clears reference bits, the second
        # must find a victim unless everything is pinned.
        for _ in range(2 * len(self._pages)):
            page = self._pages[self._hand]
            if page in pinned:
                self._hand = (self._hand + 1) % len(self._pages)
                continue
            if self._referenced[page]:
                self._referenced[page] = False
                self._hand = (self._hand + 1) % len(self._pages)
                continue
            return page
        return None


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random unpinned page (seeded for repeatability)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._pages: list[PageId] = []

    def note_admit(self, page: PageId) -> None:
        self._pages.append(page)

    def note_access(self, page: PageId) -> None:
        pass

    def note_evict(self, page: PageId) -> None:
        self._pages.remove(page)

    def choose_victim(self, pinned: set[PageId]) -> PageId | None:
        candidates = [page for page in self._pages if page not in pinned]
        if not candidates:
            return None
        return self._rng.choice(candidates)


_POLICIES = {
    "lru": LruPolicy,
    "mru": MruPolicy,
    "fifo": FifoPolicy,
    "clock": ClockPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Valid names: ``lru`` (default everywhere), ``mru``, ``fifo``,
    ``clock`` and ``random``.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        valid = ", ".join(sorted(_POLICIES))
        raise ConfigurationError(
            f"unknown page replacement policy {name!r}; valid policies: {valid}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(seed)
    return cls()


@dataclass
class _Frame:
    page: PageId
    dirty: bool = False
    pin_count: int = 0


class BufferPool:
    """A fixed-capacity pool of page frames with replacement and pinning.

    Parameters
    ----------
    capacity:
        Number of page frames (``M``).  Must be positive.
    stats:
        Shared :class:`IoStats` that physical reads/writes and
        request/hit counts are recorded into.
    policy:
        Replacement policy name (see :func:`make_policy`) or an already
        constructed :class:`ReplacementPolicy`.
    recorder:
        Optional :class:`~repro.obs.spans.SpanRecorder`; when attached,
        the physical read and write paths are timed under ``pool.read``
        and ``pool.write`` spans.  Costs one ``None`` check when absent
        and never changes any counter.
    auditor:
        Optional :class:`~repro.chaos.audit.InvariantAuditor`; in
        strict mode the pool re-verifies its residency and pin
        accounting after every eviction.  Pure observer: never issues
        a page request or changes a counter.
    collector:
        Optional :class:`~repro.obs.tracing.TraceCollector`; when
        attached, every pool event (hit, fetch, create, write, evict,
        pin, unpin) is recorded as a structured trace event.  Same
        contract as ``recorder``: one ``None`` check when absent,
        never a counter change.

    A hit, the hot path of every paged run, costs a few dict operations:
    :meth:`access` counts it inline and calls the policy's
    ``note_access``, bound once here (LRU's and MRU's is their
    ``OrderedDict``'s C ``move_to_end``, so no Python-level call).
    :meth:`access_pages` charges a list read or relation lookup in one
    call: clean, in order, each page exactly as ``access(page)`` would.

    Chaos: when a process-wide :class:`~repro.chaos.faults.FaultPlan`
    is armed, the physical-read path is a fault site (corrupt reads,
    eviction storms, latency spikes).  The check lives on the *miss*
    path only, so the hit path never looks at the plan, and with no
    plan armed a miss costs one ``None`` comparison.
    """

    def __init__(
        self,
        capacity: int,
        stats: IoStats | None = None,
        policy: str | ReplacementPolicy = "lru",
        recorder: SpanRecorder | None = None,
        auditor: "InvariantAuditor | None" = None,
        collector: TraceCollector | None = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"buffer pool capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else IoStats()
        self._policy = policy if isinstance(policy, ReplacementPolicy) else make_policy(policy)
        self._note_access = self._policy.note_access
        self._recorder = recorder
        self._auditor = auditor
        self.collector = collector
        self._frames: dict[PageId, _Frame] = {}
        self._pinned: set[PageId] = set()

    # -- introspection ---------------------------------------------------

    def __contains__(self, page: PageId) -> bool:
        return page in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def pinned_count(self) -> int:
        """Number of distinct pinned pages currently resident."""
        return len(self._pinned)

    def is_dirty(self, page: PageId) -> bool:
        """Whether the resident ``page`` has unwritten modifications."""
        frame = self._frames.get(page)
        return frame is not None and frame.dirty

    # -- core operations ---------------------------------------------------

    def access(self, page: PageId, dirty: bool = False) -> bool:
        """Request ``page``; return ``True`` on a hit.

        On a miss, one physical read is charged and, if a dirty victim
        had to be evicted, one physical write.  ``dirty=True`` marks the
        page as modified, to be written when it is evicted or flushed.
        """
        frame = self._frames.get(page)
        if frame is not None:
            stats = self.stats
            stats.requests[stats.phase] += 1
            stats.hits[stats.phase] += 1
            self._note_access(page)
            frame.dirty = frame.dirty or dirty
            if self.collector is not None:
                self.collector.emit(EV_PAGE_HIT, page.kind.value, page.number)
            return True
        self._fault_in(page, dirty)
        return False

    def access_pages(self, pages: Iterable[PageId]) -> None:
        """Request each of ``pages`` in order, clean.

        Exactly as many :meth:`access` calls would: the same counters,
        trace events, evictions and fault opportunities, page by page.
        The call's hits are counted once, on the way out, so a fault
        that stops the batch still leaves requests = hits + reads; the
        phase only changes between pool calls.
        """
        frames = self._frames
        note_access = self._note_access
        collector = self.collector
        hits = 0
        try:
            for page in pages:
                if page in frames:
                    hits += 1
                    note_access(page)
                    if collector is not None:
                        collector.emit(EV_PAGE_HIT, page.kind.value, page.number)
                else:
                    self._fault_in(page, False)
        finally:
            if hits:
                stats = self.stats
                stats.requests[stats.phase] += hits
                stats.hits[stats.phase] += hits

    def create(self, page: PageId) -> None:
        """Materialise a brand-new page directly in the pool.

        Unlike :meth:`access`, no physical read is charged: the page did
        not previously exist on disk.  The page is dirty and will be
        written when evicted or flushed.  Used when the restructuring
        phase allocates fresh successor-list pages.
        """
        frame = self._frames.get(page)
        if frame is not None:
            frame.dirty = True
            self._note_access(page)
            return
        # Materialising a new page is not a lookup: no request, no
        # hit, no read -- only the future write when it leaves dirty.
        if len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page] = _Frame(page, dirty=True)
        self._policy.note_admit(page)
        if self.collector is not None:
            self.collector.emit(EV_PAGE_CREATE, page.kind.value, page.number)

    def pin(self, page: PageId, dirty: bool = False) -> bool:
        """Access and pin ``page``; return ``True`` on a hit.

        A pinned page is never evicted.  Pins nest: each :meth:`pin`
        must be matched by an :meth:`unpin`.
        """
        hit = self.access(page, dirty=dirty)
        self._frames[page].pin_count += 1
        self._pinned.add(page)
        if self.collector is not None:
            self.collector.emit(EV_PAGE_PIN, page.kind.value, page.number)
        return hit

    def unpin(self, page: PageId) -> None:
        """Release one pin on ``page``."""
        frame = self._frames.get(page)
        if frame is None or frame.pin_count == 0:
            raise PageNotPinnedError(f"{page} is not pinned")
        frame.pin_count -= 1
        if frame.pin_count == 0:
            self._pinned.discard(page)
        if self.collector is not None:
            self.collector.emit(EV_PAGE_UNPIN, page.kind.value, page.number)

    def flush(self) -> None:
        """Write every dirty resident page, leaving all pages resident."""
        for frame in self._frames.values():
            if frame.dirty:
                self._record_write(frame.page.kind, frame.page.number)
                frame.dirty = False

    def flush_selected(self, pages: set[PageId]) -> None:
        """Write dirty resident pages in ``pages``; discard other dirt.

        Used at the end of a selection query: only the expanded lists
        of the source nodes are written out (Section 4 of the paper);
        dirty working pages that are not part of the answer are simply
        dropped without a write.
        """
        for frame in self._frames.values():
            if frame.dirty and frame.page in pages:
                self._record_write(frame.page.kind, frame.page.number)
            frame.dirty = False

    def storm_evict(self, limit: int | None = None) -> int:
        """Evict up to ``limit`` unpinned resident pages (all by default).

        The chaos plane's *eviction storm*: dirty victims charge their
        writes and the working set must be re-read, so the damage is
        visible in the counters while the computation stays correct --
        the graceful-degradation property the harness verifies.
        Returns the number of pages evicted.
        """
        evicted = 0
        for page in list(self._frames):
            if limit is not None and evicted >= limit:
                break
            frame = self._frames[page]
            if frame.pin_count:
                continue
            self._drop(frame)
            evicted += 1
        return evicted

    # -- internals ---------------------------------------------------------

    def _fault_in(self, page: PageId, dirty: bool) -> None:
        """The miss path of :meth:`access` and :meth:`access_pages`."""
        plan = active_plan()
        with span("pool.read", self._recorder):
            if plan is not None:
                self._inject_read_faults(plan, page, pre_admit=True)
            if len(self._frames) >= self.capacity:
                self._evict_one()
            # Counted only once the page is actually served: when every
            # frame is pinned the eviction above raises and Hybrid
            # reblocks and retries, and an aborted attempt must not
            # break the requests = hits + reads identity.
            self.stats.requests[self.stats.phase] += 1
            self.stats.record_read(page.kind)
            self._frames[page] = _Frame(page, dirty=dirty)
            self._policy.note_admit(page)
            if self.collector is not None:
                self.collector.emit(EV_PAGE_FETCH, page.kind.value, page.number)
            if plan is not None:
                self._inject_read_faults(plan, page, pre_admit=False)

    def _inject_read_faults(self, plan: FaultPlan, page: PageId, pre_admit: bool) -> None:
        """Fault site: one physical page read (chaos plane, see class doc)."""
        if pre_admit:
            event = plan.fire(FaultKind.SLOW_IO)
            if event is not None:
                time.sleep(event.params.get("ms", 1.0) / 1000.0)
            event = plan.fire(FaultKind.EVICT_STORM)
            if event is not None:
                limit = event.params.get("k")
                self.storm_evict(None if limit is None else int(limit))
        else:
            event = plan.fire(FaultKind.CORRUPT_READ)
            if event is not None:
                raise CorruptPageReadError(
                    f"injected checksum failure reading {page} "
                    f"(chaos opportunity {event.opportunity})"
                )

    def _record_write(self, kind: PageKind, number: int | None = None) -> None:
        with span("pool.write", self._recorder):
            self.stats.record_write(kind)
        if self.collector is not None:
            self.collector.emit(EV_PAGE_WRITE, kind.value, number)

    def _evict_one(self) -> None:
        victim = self._policy.choose_victim(self._pinned)
        if victim is None:
            raise BufferPoolExhaustedError(
                f"all {self.capacity} frames are pinned; cannot fault in a new page"
            )
        self._drop(self._frames[victim])

    def _drop(self, frame: _Frame) -> None:
        if frame.dirty:
            self._record_write(frame.page.kind, frame.page.number)
        del self._frames[frame.page]
        self._pinned.discard(frame.page)
        self._policy.note_evict(frame.page)
        if self.collector is not None:
            self.collector.emit(
                EV_PAGE_EVICT, frame.page.kind.value, frame.page.number
            )
        if self._auditor is not None:
            self._auditor.after_evict(self)
