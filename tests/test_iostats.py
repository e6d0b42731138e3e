"""Tests for the I/O statistics counters."""

from repro.storage.buffer import BufferPool
from repro.storage.iostats import IoStats, Phase
from repro.storage.page import PageId, PageKind


class TestPhaseAttribution:
    def test_reads_are_charged_to_the_current_phase(self):
        stats = IoStats()
        stats.phase = Phase.RESTRUCTURE
        stats.record_read(PageKind.RELATION)
        stats.phase = Phase.COMPUTE
        stats.record_read(PageKind.SUCCESSOR)
        stats.record_read(PageKind.SUCCESSOR)
        assert stats.reads_in(Phase.RESTRUCTURE) == 1
        assert stats.reads_in(Phase.COMPUTE) == 2
        assert stats.total_reads == 3

    def test_writes_are_charged_to_the_current_phase(self):
        stats = IoStats()
        stats.phase = Phase.WRITEOUT
        stats.record_write(PageKind.SUCCESSOR)
        assert stats.writes_in(Phase.WRITEOUT) == 1
        assert stats.writes_in(Phase.COMPUTE) == 0

    def test_kind_attribution(self):
        stats = IoStats()
        stats.record_read(PageKind.RELATION)
        stats.record_read(PageKind.INDEX)
        stats.record_read(PageKind.INDEX)
        assert stats.reads_of(PageKind.INDEX) == 2
        assert stats.reads_of(PageKind.RELATION) == 1
        assert stats.reads_of(PageKind.SUCCESSOR) == 0

    def test_total_io_sums_reads_and_writes(self):
        stats = IoStats()
        stats.record_read(PageKind.RELATION)
        stats.record_write(PageKind.SUCCESSOR)
        stats.record_write(PageKind.SUCCESSOR)
        assert stats.total_io == 3


class TestHitRatio:
    def test_zero_requests_gives_zero_ratio(self):
        assert IoStats().hit_ratio() == 0.0

    def test_overall_ratio(self):
        # Requests and hits are counted by the buffer pool, per phase.
        pool = BufferPool(4)
        pool.stats.phase = Phase.RESTRUCTURE
        pool.access(PageId(PageKind.SUCCESSOR, 0))  # miss
        pool.access(PageId(PageKind.SUCCESSOR, 0))  # hit
        pool.stats.phase = Phase.COMPUTE
        pool.access(PageId(PageKind.SUCCESSOR, 1))  # miss
        pool.access(PageId(PageKind.SUCCESSOR, 1))  # hit
        stats = pool.stats
        assert stats.requests[Phase.RESTRUCTURE] == stats.requests[Phase.COMPUTE] == 2
        assert stats.hits[Phase.RESTRUCTURE] == stats.hits[Phase.COMPUTE] == 1
        assert stats.hit_ratio() == 0.5

    def test_per_phase_ratio(self):
        pool = BufferPool(4)
        resident = PageId(PageKind.SUCCESSOR, 0)
        pool.create(resident)  # materialised, not requested
        pool.stats.phase = Phase.RESTRUCTURE
        pool.access(PageId(PageKind.RELATION, 0))  # miss
        pool.stats.phase = Phase.COMPUTE
        pool.access(resident)  # hit
        stats = pool.stats
        assert stats.requests[Phase.RESTRUCTURE] == 1
        assert stats.hits[Phase.RESTRUCTURE] == 0
        assert stats.requests[Phase.COMPUTE] == stats.hits[Phase.COMPUTE] == 1
        assert stats.hit_ratio(Phase.COMPUTE) == 1.0
        assert stats.hit_ratio(Phase.RESTRUCTURE) == 0.0


class TestEstimatedIoTime:
    def test_twenty_ms_per_io(self):
        # Table 3's model: 20 ms per simulated I/O.
        stats = IoStats()
        for _ in range(100):
            stats.record_read(PageKind.SUCCESSOR)
        assert stats.estimated_io_seconds() == 2.0

    def test_custom_cost(self):
        stats = IoStats()
        stats.record_write(PageKind.SUCCESSOR)
        assert stats.estimated_io_seconds(ms_per_io=5.0) == 0.005
