"""I/O statistics collected by the simulated buffer manager.

The paper's primary cost measure is page I/O, recorded by a simulated
buffer manager (Section 6.1).  :class:`IoStats` counts page reads and
writes broken down two ways:

* by *phase* -- restructuring vs. computation vs. output writing, so the
  cost breakdown of Table 3 can be reproduced; and
* by *page kind* -- relation, index, successor-list, ... so experiments
  can attribute I/O to individual data structures.

Buffer-pool requests and hits are also counted, from which the hit
ratios plotted in Figure 13 (c)/(d) are derived.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from repro.storage.page import PageKind


class Phase(enum.Enum):
    """Execution phases of the uniform two-phase framework (Section 4)."""

    RESTRUCTURE = "restructure"
    COMPUTE = "compute"
    WRITEOUT = "writeout"

    # Members are singletons, so identity hashing is equivalent to the
    # default name hash -- and much cheaper for the Counter-keyed I/O
    # accounting on the hot path.
    __hash__ = object.__hash__


@dataclass
class IoStats:
    """Mutable page-I/O counters shared by one algorithm execution."""

    # reads/writes key physical I/Os two ways at once: by Phase and by
    # PageKind (record_read/record_write bump both breakdowns).
    # requests/hits are keyed by Phase only, and the buffer pool bumps
    # them inline: a hit is its hot path.
    reads: Counter[Phase | PageKind] = field(default_factory=Counter)
    writes: Counter[Phase | PageKind] = field(default_factory=Counter)
    requests: Counter[Phase | PageKind] = field(default_factory=Counter)
    hits: Counter[Phase | PageKind] = field(default_factory=Counter)
    phase: Phase = Phase.RESTRUCTURE

    def record_read(self, kind: PageKind) -> None:
        """Record one physical page read (a buffer-pool miss)."""
        self.reads[self.phase] += 1
        self.reads[kind] += 1

    def record_write(self, kind: PageKind) -> None:
        """Record one physical page write (dirty eviction or flush)."""
        self.writes[self.phase] += 1
        self.writes[kind] += 1

    # -- derived totals ------------------------------------------------

    def reads_in(self, phase: Phase) -> int:
        """Physical reads charged while ``phase`` was current."""
        return self.reads[phase]

    def writes_in(self, phase: Phase) -> int:
        """Physical writes charged while ``phase`` was current."""
        return self.writes[phase]

    def reads_of(self, kind: PageKind) -> int:
        """Physical reads of pages of the given kind."""
        return self.reads[kind]

    def writes_of(self, kind: PageKind) -> int:
        """Physical writes of pages of the given kind."""
        return self.writes[kind]

    @property
    def total_reads(self) -> int:
        """Physical page reads across all phases."""
        reads = self.reads
        return (
            reads[Phase.RESTRUCTURE] + reads[Phase.COMPUTE] + reads[Phase.WRITEOUT]
        )

    @property
    def total_writes(self) -> int:
        """Physical page writes across all phases."""
        writes = self.writes
        return (
            writes[Phase.RESTRUCTURE] + writes[Phase.COMPUTE] + writes[Phase.WRITEOUT]
        )

    @property
    def total_io(self) -> int:
        """Total page I/O operations (reads plus writes)."""
        return self.total_reads + self.total_writes

    @property
    def total_requests(self) -> int:
        """Buffer-pool page requests across all phases."""
        requests = self.requests
        return (
            requests[Phase.RESTRUCTURE]
            + requests[Phase.COMPUTE]
            + requests[Phase.WRITEOUT]
        )

    @property
    def total_hits(self) -> int:
        """Buffer-pool hits across all phases."""
        hits = self.hits
        return hits[Phase.RESTRUCTURE] + hits[Phase.COMPUTE] + hits[Phase.WRITEOUT]

    def hit_ratio(self, phase: Phase | None = None) -> float:
        """Buffer-pool hit ratio, overall or for a single phase.

        Figure 13 of the paper reports the hit ratio of the computation
        phase only; pass ``Phase.COMPUTE`` to reproduce that measure.
        Returns 0.0 when no requests were made.
        """
        if phase is None:
            requests, hits = self.total_requests, self.total_hits
        else:
            requests, hits = self.requests[phase], self.hits[phase]
        if requests == 0:
            return 0.0
        return hits / requests

    def estimated_io_seconds(self, ms_per_io: float = 20.0) -> float:
        """Estimated I/O time if the I/Os were real (Table 3's model).

        The paper multiplies the simulated I/O count by 20 ms, the
        measured cost of one I/O on its DECstation's RZ24 disk.
        """
        return self.total_io * ms_per_io / 1000.0
