"""Simulated disk and memory substrate.

This subpackage models the storage environment of the paper (Section 4
and Section 5.1):

* :mod:`repro.storage.page` -- page geometry constants and page identity.
* :mod:`repro.storage.iostats` -- per-phase, per-page-kind I/O counters.
* :mod:`repro.storage.buffer` -- a buffer pool with pluggable page
  replacement policies and page pinning.
* :mod:`repro.storage.relation` -- the input arc relation stored as
  tuples clustered on the source attribute with a clustered index, plus
  the inverse relation clustered on the destination attribute used by
  the JKB2 variant of the Compute_Tree algorithm.
* :mod:`repro.storage.successor_store` -- paged successor-list storage
  (30 blocks of 15 successors per 2048-byte page) with page splits and
  list replacement policies.
* :mod:`repro.storage.engine` -- the :class:`StorageEngine` seam the
  algorithms actually program against, with the paper-faithful
  ``paged`` backend (:mod:`repro.storage.paged`) and the in-memory
  ``fast`` backend (:mod:`repro.storage.fast`).

Under the ``paged`` engine every page access flows through a
:class:`BufferPool`, so the page-I/O numbers reported by the
experiments are produced by the same mechanism the paper used: a
simulated buffer manager.
"""

from repro.storage.buffer import BufferPool, ReplacementPolicy, make_policy
from repro.storage.engine import (
    ENGINE_NAMES,
    ListStore,
    StorageEngine,
    default_engine,
    make_engine,
)
from repro.storage.iostats import IoStats, Phase
from repro.storage.page import (
    BLOCKS_PER_PAGE,
    BLOCK_CAPACITY,
    PAGE_SIZE,
    SUCCESSORS_PER_PAGE,
    TUPLES_PER_PAGE,
    TUPLE_SIZE,
    PageId,
    PageKind,
)
from repro.storage.relation import ArcRelation, InverseArcRelation
from repro.storage.successor_store import ListPlacementPolicy, SuccessorListStore

__all__ = [
    "ArcRelation",
    "BLOCKS_PER_PAGE",
    "BLOCK_CAPACITY",
    "BufferPool",
    "ENGINE_NAMES",
    "InverseArcRelation",
    "IoStats",
    "ListPlacementPolicy",
    "ListStore",
    "PAGE_SIZE",
    "PageId",
    "PageKind",
    "Phase",
    "ReplacementPolicy",
    "SUCCESSORS_PER_PAGE",
    "StorageEngine",
    "SuccessorListStore",
    "TUPLES_PER_PAGE",
    "TUPLE_SIZE",
    "default_engine",
    "make_engine",
    "make_policy",
]
