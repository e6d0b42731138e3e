"""Tests for the block-structured successor-list store."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import BLOCKS_PER_PAGE, SUCCESSORS_PER_PAGE, PageId, PageKind
from repro.storage.successor_store import ListPlacementPolicy, SuccessorListStore


def make_store(capacity: int = 100, policy=ListPlacementPolicy.MOVE_SELF):
    pool = BufferPool(capacity)
    return SuccessorListStore(pool, policy=policy), pool


class TestCreation:
    def test_create_and_length(self):
        store, _pool = make_store()
        store.create_list(0, 10)
        assert store.length(0) == 10
        assert 0 in store

    def test_duplicate_creation_raises(self):
        store, _pool = make_store()
        store.create_list(0, 1)
        with pytest.raises(StorageError):
            store.create_list(0, 1)

    def test_empty_list_occupies_no_pages(self):
        store, _pool = make_store()
        store.create_list(0, 0)
        assert store.pages_of(0) == []
        assert store.page_count(0) == 0

    def test_page_capacity_is_450_successors(self):
        store, _pool = make_store()
        store.create_list(0, SUCCESSORS_PER_PAGE)
        assert store.page_count(0) == 1
        store.create_list(1, 1)
        # The full page has no free blocks; the new list opens page 2.
        assert store.pages_of(1) == [PageId(PageKind.SUCCESSOR, 1)]

    def test_small_lists_share_a_page(self):
        store, _pool = make_store()
        for node in range(BLOCKS_PER_PAGE):
            store.create_list(node, 1)  # one block each
        for node in range(BLOCKS_PER_PAGE):
            assert store.pages_of(node) == [PageId(PageKind.SUCCESSOR, 0)]

    def test_creation_charges_no_reads(self):
        store, pool = make_store()
        store.create_list(0, 100)
        assert pool.stats.total_reads == 0  # fresh pages are created, not read

    def test_new_pages_are_written_on_flush(self):
        store, pool = make_store()
        store.create_list(0, SUCCESSORS_PER_PAGE + 1)
        pool.flush()
        assert pool.stats.total_writes == 2


class TestReads:
    def test_read_touches_every_page_of_the_list(self):
        store, pool = make_store()
        store.create_list(0, 2 * SUCCESSORS_PER_PAGE)
        pool.stats.requests.clear()
        pages = store.read_list(0)
        assert pages == 2

    def test_read_unknown_list_raises(self):
        store, _pool = make_store()
        with pytest.raises(StorageError):
            store.read_list(99)

    def test_read_blocks_touches_only_covering_pages(self):
        store, pool = make_store()
        store.create_list(0, 2 * SUCCESSORS_PER_PAGE)  # blocks 0..59 on 2 pages
        touched = store.read_blocks(0, [0, 1])  # both on the first page
        assert touched == 1
        touched = store.read_blocks(0, [0, BLOCKS_PER_PAGE])  # one per page
        assert touched == 2


class TestAppends:
    def test_append_grows_length(self):
        store, _pool = make_store()
        store.create_list(0, 3)
        store.append(0, 4)
        assert store.length(0) == 7

    def test_append_zero_is_a_no_op(self):
        store, pool = make_store()
        store.create_list(0, 3)
        before = pool.stats.total_requests
        store.append(0, 0)
        assert pool.stats.total_requests == before

    def test_append_fills_tail_block_before_allocating(self):
        store, _pool = make_store()
        store.create_list(0, 10)  # one block, 5 slots left
        store.append(0, 5)
        assert store.pages_of(0) == [PageId(PageKind.SUCCESSOR, 0)]

    def test_move_self_split_spills_to_new_page(self):
        store, _pool = make_store(policy=ListPlacementPolicy.MOVE_SELF)
        # Fill page 0 completely with two lists.
        store.create_list(0, SUCCESSORS_PER_PAGE - 15)
        store.create_list(1, 15)
        store.append(0, 30)  # page full: expanding list spills
        assert store.splits == 1
        assert store.page_count(0) == 2
        assert store.page_count(1) == 1  # the other list did not move

    def test_move_largest_relocates_the_other_list(self):
        store, _pool = make_store(policy=ListPlacementPolicy.MOVE_LARGEST)
        store.create_list(0, SUCCESSORS_PER_PAGE - 30)
        store.create_list(1, 15)
        store.create_list(2, 15)
        store.append(0, 40)
        assert store.relocations >= 1
        # The expanding list stayed clustered on its original page plus
        # possibly the freed room.
        assert store.length(0) == SUCCESSORS_PER_PAGE - 30 + 40

    def test_move_smallest_picks_the_smallest_victim(self):
        store, _pool = make_store(policy=ListPlacementPolicy.MOVE_SMALLEST)
        store.create_list(0, SUCCESSORS_PER_PAGE - 45)
        store.create_list(1, 30)
        store.create_list(2, 15)
        pages_of_1_before = store.pages_of(1)
        store.append(0, 60)
        # List 2 (smallest) moved; list 1 stayed.
        assert store.pages_of(1) == pages_of_1_before

    def test_lengths_survive_relocation(self):
        store, _pool = make_store(policy=ListPlacementPolicy.MOVE_LARGEST)
        store.create_list(0, 400)
        store.create_list(1, 50)
        store.append(0, 500)
        assert store.length(0) == 900
        assert store.length(1) == 50


class TestRewriteAndDrop:
    def test_drop_frees_blocks_for_reuse(self):
        store, _pool = make_store()
        store.create_list(0, SUCCESSORS_PER_PAGE)
        store.drop_list(0)
        assert 0 not in store
        store.create_list(1, 5)
        # An implementation may or may not reuse freed space, but the
        # dropped list must be gone.
        assert store.length(1) == 5


class TestClustering:
    def test_consecutively_created_lists_are_neighbours(self):
        store, _pool = make_store()
        store.create_list(0, 15)
        store.create_list(1, 15)
        assert store.pages_of(0) == store.pages_of(1)

    def test_store_kind_tags_its_pages(self):
        pool = BufferPool(10)
        store = SuccessorListStore(pool, kind=PageKind.OUTPUT)
        store.create_list(0, 20)
        assert all(page.kind is PageKind.OUTPUT for page in store.pages_of(0))
