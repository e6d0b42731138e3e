"""Tests for the buffer pool and its replacement policies."""

import pytest

from repro.chaos.faults import FaultPlan, use_fault_plan
from repro.errors import (
    BufferPoolExhaustedError,
    ConfigurationError,
    CorruptPageReadError,
    PageNotPinnedError,
)
from repro.obs.tracing import TraceCollector
from repro.storage.buffer import BufferPool, make_policy
from repro.storage.iostats import Phase
from repro.storage.page import PageId, PageKind


def page(number: int, kind: PageKind = PageKind.SUCCESSOR) -> PageId:
    return PageId(kind, number)


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BufferPool(0)

    def test_first_access_is_a_miss(self):
        pool = BufferPool(4)
        assert pool.access(page(0)) is False
        assert pool.stats.total_reads == 1

    def test_second_access_is_a_hit(self):
        pool = BufferPool(4)
        pool.access(page(0))
        assert pool.access(page(0)) is True
        assert pool.stats.total_reads == 1

    def test_requests_equal_hits_plus_misses(self):
        pool = BufferPool(2)
        for number in [0, 1, 0, 2, 1, 0, 0]:
            pool.access(page(number))
        stats = pool.stats
        assert stats.total_requests == 7
        assert stats.total_requests == stats.total_hits + stats.total_reads

    def test_occupancy_never_exceeds_capacity(self):
        pool = BufferPool(3)
        for number in range(10):
            pool.access(page(number))
            assert len(pool) <= 3

    def test_contains(self):
        pool = BufferPool(2)
        pool.access(page(1))
        assert page(1) in pool
        assert page(2) not in pool


class TestDirtyPages:
    def test_clean_eviction_writes_nothing(self):
        pool = BufferPool(1)
        pool.access(page(0))
        pool.access(page(1))  # evicts page 0, clean
        assert pool.stats.total_writes == 0

    def test_dirty_eviction_writes_once(self):
        pool = BufferPool(1)
        pool.access(page(0), dirty=True)
        pool.access(page(1))  # evicts dirty page 0
        assert pool.stats.total_writes == 1

    def test_dirtiness_is_sticky_until_written(self):
        pool = BufferPool(2)
        pool.access(page(0), dirty=True)
        pool.access(page(0))  # a clean access does not launder the dirt
        assert pool.is_dirty(page(0))

    def test_flush_writes_all_dirty_pages_once(self):
        pool = BufferPool(4)
        pool.access(page(0), dirty=True)
        pool.access(page(1), dirty=True)
        pool.access(page(2))
        pool.flush()
        assert pool.stats.total_writes == 2
        pool.flush()  # second flush writes nothing new
        assert pool.stats.total_writes == 2

    def test_flush_selected_writes_only_chosen_pages(self):
        pool = BufferPool(4)
        pool.access(page(0), dirty=True)
        pool.access(page(1), dirty=True)
        pool.flush_selected({page(0)})
        assert pool.stats.total_writes == 1
        # The unchosen page's dirt was discarded, not deferred.
        pool.flush()
        assert pool.stats.total_writes == 1

    def test_create_charges_no_read(self):
        pool = BufferPool(2)
        pool.create(page(7))
        assert pool.stats.total_reads == 0
        assert pool.is_dirty(page(7))


class TestPinning:
    def test_pinned_pages_survive_pressure(self):
        pool = BufferPool(2)
        pool.pin(page(0))
        for number in range(1, 6):
            pool.access(page(number))
        assert page(0) in pool

    def test_all_pinned_raises_exhausted(self):
        pool = BufferPool(2)
        pool.pin(page(0))
        pool.pin(page(1))
        with pytest.raises(BufferPoolExhaustedError):
            pool.access(page(2))

    def test_unpin_restores_evictability(self):
        pool = BufferPool(1)
        pool.pin(page(0))
        pool.unpin(page(0))
        pool.access(page(1))
        assert page(0) not in pool

    def test_unpin_unpinned_page_raises(self):
        pool = BufferPool(2)
        pool.access(page(0))
        with pytest.raises(PageNotPinnedError):
            pool.unpin(page(0))

    def test_pins_nest(self):
        pool = BufferPool(1)
        pool.pin(page(0))
        pool.pin(page(0))
        pool.unpin(page(0))
        # Still pinned once.
        with pytest.raises(BufferPoolExhaustedError):
            pool.access(page(1))
        pool.unpin(page(0))
        pool.access(page(1))

    def test_pinned_count(self):
        pool = BufferPool(3)
        pool.pin(page(0))
        pool.pin(page(1))
        assert pool.pinned_count == 2
        pool.unpin(page(0))
        pool.unpin(page(1))
        assert pool.pinned_count == 0


class TestLru:
    def test_evicts_least_recently_used(self):
        pool = BufferPool(2, policy="lru")
        pool.access(page(0))
        pool.access(page(1))
        pool.access(page(0))  # 1 is now LRU
        pool.access(page(2))  # evicts 1
        assert page(0) in pool
        assert page(1) not in pool


class TestMru:
    def test_evicts_most_recently_used(self):
        pool = BufferPool(2, policy="mru")
        pool.access(page(0))
        pool.access(page(1))  # 1 is MRU
        pool.access(page(2))  # evicts 1
        assert page(0) in pool
        assert page(1) not in pool


class TestFifo:
    def test_evicts_oldest_admission_despite_hits(self):
        pool = BufferPool(2, policy="fifo")
        pool.access(page(0))
        pool.access(page(1))
        pool.access(page(0))  # hit does not refresh FIFO position
        pool.access(page(2))  # evicts 0
        assert page(0) not in pool
        assert page(1) in pool


class TestClock:
    def test_second_chance(self):
        pool = BufferPool(2, policy="clock")
        pool.access(page(0))
        pool.access(page(1))
        pool.access(page(0))  # reference bit set on 0
        # Both referenced: first sweep clears, second evicts page 0?
        # CLOCK clears 0's bit first, then 1's, then evicts 0.
        pool.access(page(2))
        assert len(pool) == 2

    def test_clock_respects_pins(self):
        pool = BufferPool(2, policy="clock")
        pool.pin(page(0))
        pool.access(page(1))
        pool.access(page(2))  # must evict 1, never the pinned 0
        assert page(0) in pool


class TestRandom:
    def test_seeded_random_is_deterministic(self):
        def run(seed: int) -> list[int]:
            pool = BufferPool(3, policy=make_policy("random", seed=seed))
            evictions = []
            for number in range(20):
                before = {frame.number for frame in list(_pages(pool))}
                pool.access(page(number))
                after = {frame.number for frame in list(_pages(pool))}
                evictions.extend(sorted(before - after))
            return evictions

        assert run(5) == run(5)

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError):
            make_policy("optimal-oracle")


class TestAccessPages:
    """One batched call is exactly that many per-page ``access`` calls."""

    # Hits, misses and evictions on a 3-frame pool, with dirty victims.
    SEQUENCE = [0, 1, 0, 2, 3, 1, 1, 11, 4, 0, 5, 10, 2, 2, 6, 3, 0]

    def _pool(self, policy: str) -> BufferPool:
        pool = BufferPool(
            3, policy=make_policy(policy, seed=7), collector=TraceCollector()
        )
        pool.access(page(10), dirty=True)
        pool.create(page(11))
        pool.stats.phase = Phase.COMPUTE
        return pool

    @pytest.mark.parametrize("policy", ["lru", "mru", "fifo", "clock", "random"])
    def test_matches_per_page_access(self, policy):
        batched, single = self._pool(policy), self._pool(policy)
        pages = [page(number) for number in self.SEQUENCE]
        batched.access_pages(pages)
        for each in pages:
            single.access(each)
        assert batched.stats == single.stats
        assert _pages(batched) == _pages(single)
        # The same victims on the next evictions.
        for number in range(20, 26):
            batched.access(page(number))
            single.access(page(number))
            assert _pages(batched) == _pages(single)
        assert batched.stats == single.stats
        assert [event.identity() for event in batched.collector.events] == [
            event.identity() for event in single.collector.events
        ]

    def test_corrupt_read_mid_batch_keeps_the_identity(self):
        pool = BufferPool(4)
        with use_fault_plan(FaultPlan.parse("corrupt-read,after=2")):
            with pytest.raises(CorruptPageReadError):
                pool.access_pages([page(0), page(0), page(1), page(2)])
        stats = pool.stats
        assert (stats.total_requests, stats.total_hits, stats.total_reads) == (3, 1, 2)
        assert stats.total_requests == stats.total_hits + stats.total_reads

    def test_exhausted_pool_mid_batch_keeps_the_identity(self):
        pool = BufferPool(2)
        pool.pin(page(0))
        pool.pin(page(1))
        with pytest.raises(BufferPoolExhaustedError):
            pool.access_pages([page(0), page(2), page(1)])
        stats = pool.stats
        assert (stats.total_requests, stats.total_hits, stats.total_reads) == (3, 1, 2)
        assert stats.total_requests == stats.total_hits + stats.total_reads


def _pages(pool: BufferPool):
    return list(pool._frames)  # test-only peek at residency
