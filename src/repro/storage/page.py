"""Page geometry and page identity.

The constants below are taken directly from Section 5.1 of the paper:

* pages are 2048 bytes;
* input-relation tuples are 8 bytes (two integers), so 256 tuples fit on
  a relation page;
* after restructuring, a successor-list page is divided into 30 blocks,
  each holding up to 15 successor entries, so 450 successors fit on a
  successor-list page.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import ConfigurationError

PAGE_SIZE = 2048
"""Size of a disk page in bytes."""

TUPLE_SIZE = 8
"""Size of an arc-relation tuple in bytes (two 4-byte integers)."""

TUPLES_PER_PAGE = PAGE_SIZE // TUPLE_SIZE
"""Arc tuples per relation page (256)."""

BLOCKS_PER_PAGE = 30
"""Successor-list blocks per page."""

BLOCK_CAPACITY = 15
"""Successor entries per block."""

SUCCESSORS_PER_PAGE = BLOCKS_PER_PAGE * BLOCK_CAPACITY
"""Successor entries per successor-list page (450)."""

INDEX_ENTRIES_PER_PAGE = PAGE_SIZE // 8
"""Entries per clustered-index page (key + page pointer, 8 bytes)."""


class PageKind(enum.Enum):
    """The different families of pages the simulator distinguishes.

    Keeping page kinds separate lets the experiments break total page
    I/O down by data structure (input relation vs. index vs. successor
    lists), which Section 6.1 of the paper does when attributing cost to
    the restructuring and computation phases.
    """

    RELATION = "relation"
    INVERSE_RELATION = "inverse_relation"
    INDEX = "index"
    INVERSE_INDEX = "inverse_index"
    SUCCESSOR = "successor"
    PREDECESSOR = "predecessor"
    OUTPUT = "output"
    DELTA = "delta"
    CHAIN = "chain"

    # Members are singletons, so identity hashing is equivalent to the
    # default name hash -- and much cheaper for PageId hashing and the
    # per-kind I/O counters on the hot path.
    __hash__ = object.__hash__


class PageId(NamedTuple):
    """Identity of a simulated disk page.

    ``kind`` names the data structure the page belongs to and ``number``
    is the page's position within that structure.  Two pages are the
    same page if and only if their :class:`PageId` values are equal.

    A tuple, so the hashing and equality every buffer-pool lookup pays
    run in C; the stores and relations also build each id once and
    reuse it, so most lookups match on identity.
    """

    kind: PageKind
    number: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageId({self.kind.value}:{self.number})"


ENTRY_SIZE = 4
"""Size of one successor entry in bytes (a 4-byte node id)."""


def validate_block_geometry(blocks_per_page: int, block_capacity: int) -> None:
    """Check that a successor-page geometry physically fits a page.

    The paper's layout is 30 blocks x 15 entries x 4 bytes = 1800 of
    2048 bytes (the remainder is block headers).  A configuration whose
    blocks cannot fit on one 2048-byte page would silently undercount
    page I/O, so the successor store and the invariant auditor both
    reject it up front.

    Raises :class:`~repro.errors.ConfigurationError` (a ``ValueError``)
    with the offending values.
    """
    if blocks_per_page <= 0 or block_capacity <= 0:
        raise ConfigurationError(
            "blocks_per_page and block_capacity must both be positive, got "
            f"blocks_per_page={blocks_per_page}, block_capacity={block_capacity}"
        )
    payload = blocks_per_page * block_capacity * ENTRY_SIZE
    if payload > PAGE_SIZE:
        raise ConfigurationError(
            f"successor-page geometry {blocks_per_page} blocks x "
            f"{block_capacity} entries needs {payload} bytes, which does not "
            f"fit a {PAGE_SIZE}-byte page"
        )


def pages_needed(entries: int, per_page: int) -> int:
    """Number of pages needed to hold ``entries`` items, ``per_page`` each.

    >>> pages_needed(0, 256)
    0
    >>> pages_needed(1, 256)
    1
    >>> pages_needed(257, 256)
    2
    """
    if entries <= 0:
        return 0
    return -(-entries // per_page)
