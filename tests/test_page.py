"""Tests for the page geometry module."""

from repro.storage.page import (
    BLOCKS_PER_PAGE,
    BLOCK_CAPACITY,
    PAGE_SIZE,
    SUCCESSORS_PER_PAGE,
    TUPLES_PER_PAGE,
    TUPLE_SIZE,
    PageId,
    PageKind,
    pages_needed,
)


class TestGeometry:
    def test_paper_page_size(self):
        assert PAGE_SIZE == 2048

    def test_paper_tuples_per_page(self):
        # Section 5.1: 8-byte tuples, 256 per page.
        assert TUPLE_SIZE == 8
        assert TUPLES_PER_PAGE == 256

    def test_paper_successors_per_page(self):
        # Section 5.1: 30 blocks of 15 successors = 450 per page.
        assert BLOCKS_PER_PAGE == 30
        assert BLOCK_CAPACITY == 15
        assert SUCCESSORS_PER_PAGE == 450


class TestPageId:
    def test_equality_is_by_value(self):
        a = PageId(PageKind.RELATION, 3)
        b = PageId(PageKind.RELATION, 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_kinds_distinguish_pages(self):
        assert PageId(PageKind.RELATION, 3) != PageId(PageKind.SUCCESSOR, 3)

    def test_numbers_distinguish_pages(self):
        assert PageId(PageKind.RELATION, 3) != PageId(PageKind.RELATION, 4)

    def test_page_id_is_immutable(self):
        import pytest

        with pytest.raises(AttributeError):
            PageId(PageKind.RELATION, 0).number = 1

    def test_stored_id_is_the_same_pool_key_as_a_fresh_one(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.successor_store import SuccessorListStore

        pool = BufferPool(4)
        store = SuccessorListStore(pool, kind=PageKind.OUTPUT)
        store.create_list(0, 5)
        (stored,) = store.pages_of(0)
        fresh = PageId(PageKind.OUTPUT, 0)
        assert stored == fresh and hash(stored) == hash(fresh)
        assert fresh in pool
        assert pool.access(fresh)  # a hit on the frame the store created
        assert str(stored) == str(fresh) == "PageId(output:0)"


class TestPagesNeeded:
    def test_zero_entries_need_no_pages(self):
        assert pages_needed(0, 256) == 0

    def test_negative_entries_need_no_pages(self):
        assert pages_needed(-5, 256) == 0

    def test_exact_fit(self):
        assert pages_needed(256, 256) == 1
        assert pages_needed(512, 256) == 2

    def test_rounding_up(self):
        assert pages_needed(1, 256) == 1
        assert pages_needed(257, 256) == 2
        assert pages_needed(450, 450) == 1
        assert pages_needed(451, 450) == 2
