"""Tests for page-access tracing and the access patterns it reveals.

Every pool here has a :class:`TraceCollector` attached, so each buffer
event arrives as a ``page.*`` trace event with full page identity.
"""

from repro.obs.tracing import (
    EV_PAGE_CREATE,
    EV_PAGE_FETCH,
    EV_PAGE_HIT,
    EV_PAGE_WRITE,
    TraceCollector,
)
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IoStats
from repro.storage.page import PageId, PageKind
from repro.storage.relation import ArcRelation


def page(number: int, kind: PageKind = PageKind.SUCCESSOR) -> PageId:
    return PageId(kind, number)


def traced_pool(capacity, stats=None):
    collector = TraceCollector()
    return BufferPool(capacity, stats=stats, collector=collector), collector


def page_numbers(collector, name, kind):
    """Page numbers of the ``name`` events on pages of ``kind``, in order."""
    return [e.page for e in collector if e.name == name and e.kind == kind.value]


def is_sequential(numbers):
    return all(a <= b for a, b in zip(numbers, numbers[1:]))


class TestAttachedTrace:
    """A collector attached to a pool sees its events; the counters still count."""

    def test_records_hits_and_misses_in_order(self):
        pool, collector = traced_pool(2)
        pool.access(page(0))
        pool.access(page(0))
        pool.access(page(1))
        assert [e.name for e in collector] == [EV_PAGE_FETCH, EV_PAGE_HIT, EV_PAGE_FETCH]

    def test_records_eviction_writes(self):
        pool, collector = traced_pool(1)
        pool.access(page(0), dirty=True)
        pool.access(page(1))  # evicts dirty page 0
        assert page_numbers(collector, EV_PAGE_WRITE, PageKind.SUCCESSOR) == [0]

    def test_underlying_stats_still_count(self):
        stats = IoStats()
        pool, collector = traced_pool(2, stats)
        pool.access(page(0))
        assert stats.total_reads == 1
        assert stats.total_requests == 1
        assert len(collector) == 1

    def test_kind_filter(self):
        pool, collector = traced_pool(4)
        pool.access(page(0, PageKind.RELATION))
        pool.access(page(0, PageKind.SUCCESSOR))
        assert page_numbers(collector, EV_PAGE_FETCH, PageKind.RELATION) == [0]


class TestTracedPool:
    """Every page event of a traced pool carries the full page identity."""

    def test_records_page_numbers(self):
        pool, collector = traced_pool(4)
        pool.access(page(7))
        pool.access(page(3))
        assert page_numbers(collector, EV_PAGE_FETCH, PageKind.SUCCESSOR) == [7, 3]

    def test_create_is_distinguished_from_write(self):
        pool, collector = traced_pool(4)
        pool.create(page(5))
        assert page_numbers(collector, EV_PAGE_CREATE, PageKind.SUCCESSOR) == [5]
        assert collector.counts()[EV_PAGE_WRITE] == 0

    def test_is_sequential(self):
        pool, collector = traced_pool(8)
        for number in (0, 1, 2, 5):
            pool.access(page(number))
        pool.access(page(1))  # hit: not a fetch, still sequential
        assert is_sequential(page_numbers(collector, EV_PAGE_FETCH, PageKind.SUCCESSOR))
        # A genuinely out-of-order *fetch* breaks sequentiality.
        pool2, collector2 = traced_pool(2)
        pool2.access(page(3))
        pool2.access(page(1))
        assert not is_sequential(page_numbers(collector2, EV_PAGE_FETCH, PageKind.SUCCESSOR))


class TestAccessPatterns:
    def test_full_scan_of_the_relation_is_sequential(self, medium_dag):
        """The restructuring phase of a full query reads the relation
        front to back -- the clustered layout's whole point."""
        pool, collector = traced_pool(10)
        relation = ArcRelation(medium_dag)
        relation.scan(pool)
        assert page_numbers(collector, EV_PAGE_FETCH, PageKind.RELATION) == list(
            range(relation.num_pages)
        )

    def test_indexed_probes_touch_only_the_nodes_run(self, medium_dag):
        pool, collector = traced_pool(10)
        relation = ArcRelation(medium_dag)
        relation.read_successors(40, pool)
        data_fetches = page_numbers(collector, EV_PAGE_FETCH, PageKind.RELATION)
        assert set(data_fetches) == set(relation.pages_for_node(40))

    def test_unclustered_probes_are_scattered(self):
        """JKB's predecessor fetch: the probed pages jump around."""
        from repro.graphs.generator import generate_dag

        pool, collector = traced_pool(2)
        relation = ArcRelation(generate_dag(800, 4, 200, seed=1))
        relation.probe_arcs_unclustered(30, pool, seed_position=3)
        fetches = page_numbers(collector, EV_PAGE_FETCH, PageKind.RELATION)
        assert len(fetches) > 1
        assert not is_sequential(fetches)
