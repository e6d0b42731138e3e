"""The storage-engine seam: one interface, interchangeable substrates.

Every algorithm in the suite expresses its storage needs through a
:class:`StorageEngine`: scanning and probing the input arc relation,
reading/appending successor lists, touching raw pages, pinning frames,
and flushing the answer.  Two engines implement the interface:

* ``paged`` (:mod:`repro.storage.paged`) -- the paper-faithful
  substrate: a simulated buffer pool over 2048-byte pages, clustered
  relations, and block-structured successor-list storage.  Every page
  touch is charged to the I/O counters, so this engine produces the
  numbers the study reports.
* ``fast`` (:mod:`repro.storage.fast`) -- a dict/array in-memory
  backend with **no page simulation**.  It returns bit-identical
  closures (and tuple-level counters) at a fraction of the runtime,
  for differential testing, the :mod:`repro.api` query path, and
  serving workloads where page costs are irrelevant.

Capability hooks
----------------

Cross-cutting planes (chaos fault injection, invariant auditing, page
tracing, frame pinning) attach through *capabilities*.  An engine
advertises what it supports via :meth:`StorageEngine.supports`; asking
for an unsupported capability raises a structured
:class:`~repro.errors.EngineCapabilityError` instead of silently
no-op'ing, so "the chaos run passed" can never mean "the faults were
dropped on the floor".

Engine selection
----------------

The engine is part of :class:`~repro.core.query.SystemConfig`
(``engine=``), resolved at construction time from, in order: an
explicit value, a process-wide default set by
:func:`set_default_engine` (the ``--engine`` flags), the
``REPRO_ENGINE`` environment variable, and finally ``"paged"``.
Because the resolved name is frozen into the config, pickled work units
carry their engine to worker processes unchanged.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import ConfigurationError, EngineCapabilityError
from repro.storage.page import (
    BLOCK_CAPACITY,
    BLOCKS_PER_PAGE,
    PAGE_SIZE,
    TUPLES_PER_PAGE,
    PageId,
    PageKind,
    pages_needed,
)
from repro.storage.successor_store import ListPlacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.chaos.audit import InvariantAuditor
    from repro.graphs.digraph import Digraph
    from repro.metrics.counters import MetricSet
    from repro.obs.spans import SpanRecorder
    from repro.obs.tracing import TraceCollector

__all__ = [
    # Page vocabulary, re-exported so algorithm code can name page
    # identities and geometry without importing the substrate modules
    # (the RPL001 seam-isolation rule bans those imports outside
    # repro/storage/).
    "BLOCK_CAPACITY",
    "BLOCKS_PER_PAGE",
    "PAGE_SIZE",
    "TUPLES_PER_PAGE",
    "PageId",
    "PageKind",
    "pages_needed",
    # The seam itself.
    "CAP_AUDIT",
    "CAP_CHAOS",
    "CAP_PAGE_COSTS",
    "CAP_PINNING",
    "CAP_TRACE",
    "ENGINE_NAMES",
    "ENV_ENGINE",
    "ListPlacementPolicy",
    "ListStore",
    "StorageEngine",
    "default_engine",
    "make_engine",
    "set_default_engine",
]

ENV_ENGINE = "REPRO_ENGINE"
"""Environment variable selecting the default storage engine."""

ENGINE_NAMES = ("paged", "fast")
"""Registered engine names, in documentation order."""

# -- capabilities -----------------------------------------------------------

CAP_PAGE_COSTS = "page-costs"
"""Page touches are charged to the I/O counters (the paper's measure)."""

CAP_PINNING = "pinning"
"""Frames can be pinned/unpinned (the Hybrid algorithm's diagonal block)."""

CAP_CHAOS = "chaos"
"""The chaos fault plane's storage fault sites are live in this engine."""

CAP_AUDIT = "audit"
"""The invariant auditor can inspect this engine's substrate state."""

CAP_TRACE = "trace"
"""Event tracing: a :class:`~repro.obs.tracing.TraceCollector` can record
the engine's page events (with full page identity), block and delta
events."""


_default: str | None = None  # process-wide override; None = env / "paged"


def default_engine() -> str:
    """The effective default engine: explicit setting > REPRO_ENGINE > paged.

    A ``REPRO_ENGINE`` value naming no registered engine raises a
    :class:`~repro.errors.ConfigurationError` that spells out both the
    offending value and the accepted set -- a typo'd export must not
    silently fall back to the paged engine and measure the wrong thing.
    """
    if _default is not None:
        return _default
    value = os.environ.get(ENV_ENGINE, "").strip().lower()
    if not value:
        return "paged"
    if value not in ENGINE_NAMES:
        valid = ", ".join(ENGINE_NAMES)
        raise ConfigurationError(
            f"{ENV_ENGINE}={value!r} names an unknown storage engine; "
            f"valid engines: {valid}"
        )
    return value


def set_default_engine(name: str | None) -> str | None:
    """Set (or clear, with ``None``) the process-wide default engine.

    Returns the previous override so callers can restore it.
    """
    global _default
    if name is not None and name not in ENGINE_NAMES:
        valid = ", ".join(ENGINE_NAMES)
        raise ConfigurationError(
            f"unknown storage engine {name!r}; valid engines: {valid}"
        )
    previous = _default
    _default = name
    return previous


# -- the interface ----------------------------------------------------------


class ListStore(ABC):
    """Successor-list storage as the algorithms see it.

    The store tracks list *layout and length* only; list contents are
    kept by the algorithms as bitsets or trees (see
    :mod:`repro.storage.successor_store`).  The paged implementation is
    :class:`~repro.storage.successor_store.SuccessorListStore`
    (registered as a virtual subclass); the fast implementation is
    :class:`~repro.storage.fast.FastListStore`.
    """

    @abstractmethod
    def create_list(self, node: int, initial_entries: int = 0) -> None:
        """Allocate a new (possibly empty) list for ``node``."""

    @abstractmethod
    def read_list(self, node: int) -> int:
        """Charge one full read of ``node``'s list; return pages touched."""

    @abstractmethod
    def read_blocks(self, node: int, block_indexes: list[int]) -> int:
        """Charge a partial read covering the given block indexes."""

    @abstractmethod
    def append(self, node: int, count: int) -> None:
        """Append ``count`` new entries to ``node``'s list."""

    @abstractmethod
    def drop_list(self, node: int) -> None:
        """Free ``node``'s list without any I/O."""

    @abstractmethod
    def length(self, node: int) -> int:
        """Current number of entries in ``node``'s list."""

    @abstractmethod
    def pages_of(self, node: int) -> list[PageId]:
        """The distinct pages holding ``node``'s list (no I/O charged)."""

    @abstractmethod
    def page_count(self, node: int) -> int:
        """How many pages ``node``'s list spans."""

    @abstractmethod
    def __contains__(self, node: int) -> bool: ...


class StorageEngine(ABC):
    """Everything an algorithm may ask of the storage substrate.

    One engine is created per run.  ``store`` is the engine's main
    successor-list store; auxiliary stores (predecessor lists, the
    output file) come from :meth:`make_list_store`.  The relation
    access paths return the *logical* successors/predecessors while
    charging whatever the engine's cost model says they cost.
    """

    name: str = "abstract"
    capabilities: frozenset[str] = frozenset()
    store: ListStore
    collector: "TraceCollector | None" = None
    """The run's structured trace collector, when one is attached
    (requires ``CAP_TRACE``); emit sites above the pool reach it here."""

    # -- capability hooks ---------------------------------------------------

    def supports(self, capability: str) -> bool:
        """Whether this engine provides ``capability``."""
        return capability in self.capabilities

    def require(self, capability: str, detail: str = "") -> None:
        """Raise :class:`EngineCapabilityError` unless supported."""
        if capability not in self.capabilities:
            suffix = f" ({detail})" if detail else ""
            raise EngineCapabilityError(
                f"the {self.name!r} storage engine does not support "
                f"{capability!r}{suffix}; run with the 'paged' engine instead"
            )

    # -- relation access paths ----------------------------------------------

    @abstractmethod
    def scan_relation(self) -> int:
        """Sequentially read the whole arc relation; return pages touched."""

    @abstractmethod
    def read_successors(self, node: int) -> Sequence[int]:
        """Fetch ``node``'s successors (charging the clustered-index path).

        The row is read-only (a zero-copy CSR view on the fast engine);
        callers that need to mutate it must copy it first.
        """

    @abstractmethod
    def read_predecessors(self, node: int) -> Sequence[int]:
        """Fetch ``node``'s predecessors via the inverse relation (JKB2)."""

    @abstractmethod
    def probe_arcs_unclustered(self, node_arcs: int, seed_position: int) -> None:
        """Charge ``node_arcs`` scattered relation probes (plain JKB)."""

    # -- successor-list storage ---------------------------------------------

    @abstractmethod
    def make_list_store(
        self,
        kind: PageKind = PageKind.SUCCESSOR,
        policy: ListPlacementPolicy = ListPlacementPolicy.MOVE_SELF,
        *,
        blocks_per_page: int | None = None,
        block_capacity: int | None = None,
    ) -> ListStore:
        """An auxiliary list store in its own page space.

        ``blocks_per_page``/``block_capacity`` override the engine's
        default block geometry (``None`` keeps it); the generalized
        closure uses this for its wider (successor, value) entries.
        Engines without page simulation ignore the geometry.
        """

    # -- page-level cost hooks ----------------------------------------------

    @abstractmethod
    def touch_page(self, kind: PageKind, number: int, dirty: bool = False) -> None:
        """Charge one access of an explicitly numbered page."""

    @abstractmethod
    def create_page(self, kind: PageKind, number: int) -> None:
        """Materialise a brand-new dirty page (no read charged)."""

    @abstractmethod
    def flush_output(self, pages: Iterable[PageId]) -> None:
        """Write the given dirty pages out (the answer's write-out cost)."""

    # -- frame pinning (Hybrid's diagonal block) ----------------------------

    @abstractmethod
    def pin_page(self, page: PageId) -> None:
        """Fault in (dirty) and pin one page."""

    @abstractmethod
    def unpin_page(self, page: PageId) -> None:
        """Release one pinned page."""

    @property
    @abstractmethod
    def pinned_count(self) -> int:
        """Number of currently pinned frames."""

    @property
    @abstractmethod
    def frame_capacity(self) -> int:
        """Total frames available to the engine (the buffer pool size)."""

    # -- observability ------------------------------------------------------

    @abstractmethod
    def audit(self, auditor: "InvariantAuditor") -> None:
        """Run the auditor's substrate checks over this engine's state."""

    @abstractmethod
    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe summary of the engine's current storage state."""

    @abstractmethod
    def reset(self) -> None:
        """Discard all run state (lists, resident pages); keep the input."""


def make_engine(
    system: Any,
    graph: "Digraph",
    *,
    metrics: "MetricSet",
    needs_inverse: bool = False,
    recorder: "SpanRecorder | None" = None,
    auditor: "InvariantAuditor | None" = None,
    collector: "TraceCollector | None" = None,
) -> StorageEngine:
    """Build the engine named by ``system.engine`` for one run.

    ``recorder``, ``auditor`` and ``collector`` are the
    observability planes; engines that cannot honour an *explicitly
    requested* plane refuse at construction time (capability hooks)
    rather than running blind.
    """
    name = getattr(system, "engine", "") or default_engine()
    if name == "paged":
        from repro.storage.paged import PagedEngine

        return PagedEngine(
            graph,
            system,
            metrics=metrics,
            needs_inverse=needs_inverse,
            recorder=recorder,
            auditor=auditor,
            collector=collector,
        )
    if name == "fast":
        from repro.storage.fast import FastEngine

        return FastEngine(
            graph,
            system,
            metrics=metrics,
            needs_inverse=needs_inverse,
            recorder=recorder,
            auditor=auditor,
            collector=collector,
        )
    valid = ", ".join(ENGINE_NAMES)
    raise ConfigurationError(
        f"unknown storage engine {name!r}; valid engines: {valid}"
    )
