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

One fact about the engine
-------------------------

The two engines differ in exactly one respect: whether pages are
simulated.  :attr:`StorageEngine.paged` states it.  Algorithms test
``engine.paged`` before the optional page-cost and pinning hooks (the
RPL004 lint rule enforces it), and the cross-cutting planes that live
in the paged substrate -- chaos storage faults, invariant auditing,
page tracing -- are refused by the fast engine with a structured
:class:`~repro.errors.EngineCapabilityError` instead of silently
no-op'ing, so "the chaos run passed" can never mean "the faults were
dropped on the floor".

Engine selection
----------------

The engine is part of :class:`~repro.core.query.SystemConfig`
(``engine=``), resolved at construction time from, in order: an
explicit value, the ``REPRO_ENGINE`` environment variable (which the
``--engine`` flag of ``run_all`` exports), and finally ``"paged"``.
Because the resolved name is frozen into the config, pickled work units
carry their engine to worker processes unchanged.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Collection
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import ConfigurationError
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
    "ENGINE_NAMES",
    "ENV_ENGINE",
    "ListPlacementPolicy",
    "ListStore",
    "StorageEngine",
    "default_engine",
    "make_engine",
]

ENV_ENGINE = "REPRO_ENGINE"
"""Environment variable selecting the default storage engine."""

ENGINE_NAMES = ("paged", "fast")
"""Registered engine names, in documentation order."""


def default_engine() -> str:
    """The effective default engine: REPRO_ENGINE, else paged.

    A ``REPRO_ENGINE`` value naming no registered engine raises a
    :class:`~repro.errors.ConfigurationError` that spells out both the
    offending value and the accepted set -- a typo'd export must not
    silently fall back to the paged engine and measure the wrong thing.
    """
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
    def lists_on(self, page: PageId) -> Collection[int]:
        """The lists with a block on ``page`` (no I/O charged)."""

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
    paged: bool
    """Whether pages are simulated: page touches are charged to the I/O
    counters, frames can be pinned, and the chaos storage faults, the
    invariant auditor and page tracing have a substrate to act on.  Test
    it before the optional page-cost and pinning hooks."""
    store: ListStore
    collector: "TraceCollector | None" = None
    """The run's structured trace collector, when one is attached
    (paged engines only); emit sites above the pool reach it here."""

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

    ``SystemConfig`` has already resolved and validated the name.
    ``recorder``, ``auditor`` and ``collector`` are the observability
    planes; an engine that cannot honour an *explicitly requested* plane
    refuses at construction time rather than running blind.
    """
    from repro.storage.fast import FastEngine
    from repro.storage.paged import PagedEngine

    engine_class: type[PagedEngine] | type[FastEngine] = (
        PagedEngine if system.engine == "paged" else FastEngine
    )
    return engine_class(
        graph,
        system,
        metrics=metrics,
        needs_inverse=needs_inverse,
        recorder=recorder,
        auditor=auditor,
        collector=collector,
    )
