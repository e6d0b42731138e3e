"""Tests for the streaming SNAP ingestion pipeline.

Covers the loader's input tolerance (comments, blanks, duplicates,
self-loops, gzip), id compaction (sparse integers, string ids, the
``# nodes:`` header), the stream-family registry, and -- via a
hypothesis property suite -- that a graph loaded from an edge list
equals the same arcs built through ``Digraph.from_arcs``.
"""

import gzip
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, IngestError
from repro.graphs.digraph import Digraph, DigraphBuilder
from repro.graphs.generator import generate_dag, iter_paper_arcs
from repro.graphs.ingest import (
    STREAM_FAMILIES,
    iter_braided_arcs,
    load_snap,
    stream_family,
    stream_paper_dag,
    write_snap,
)
from repro.graphs.toposort import is_acyclic

FIXTURES = Path(__file__).parent / "fixtures" / "ingest"


class TestLoaderTolerance:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.snap"
        path.write_text("")
        result = load_snap(path)
        assert result.graph.num_nodes == 0
        assert result.graph.num_arcs == 0
        assert result.stats.arc_lines == 0
        assert result.stats.acyclic

    def test_comments_and_blanks_only(self, tmp_path):
        path = tmp_path / "comments.snap"
        path.write_text("# snap comment\n% konect comment\n\n   \n")
        result = load_snap(path)
        assert result.graph.num_nodes == 0
        assert result.stats.comment_lines == 2
        assert result.stats.blank_lines == 2

    def test_duplicate_arcs_are_collapsed_and_counted(self, tmp_path):
        path = tmp_path / "dups.snap"
        path.write_text("0 1\n0 1\n0 1\n1 2\n")
        result = load_snap(path)
        assert result.graph.num_arcs == 2
        assert result.stats.duplicate_arcs == 2
        assert result.stats.arc_lines == 4

    def test_self_loops_are_dropped_and_counted(self, tmp_path):
        path = tmp_path / "loops.snap"
        path.write_text("0 0\n0 1\n1 1\n")
        result = load_snap(path)
        assert result.stats.self_loops == 2
        assert result.graph.num_arcs == 1
        # A self-loop node still exists even with no surviving arcs.
        assert result.graph.num_nodes == 2

    def test_trailing_columns_are_ignored(self, tmp_path):
        path = tmp_path / "weighted.snap"
        path.write_text("0 1 0.75 extra\n1 2 0.25\n")
        result = load_snap(path)
        assert sorted(result.graph.arcs()) == [(0, 1), (1, 2)]

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_text("0 1\n# fine\njustonetoken\n")
        with pytest.raises(IngestError, match="line 3"):
            load_snap(path)
        with pytest.raises(ValueError):  # IngestError is also a ValueError
            load_snap(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_snap(tmp_path / "nope.snap")

    def test_gzip_payload_detected_from_magic_not_name(self, tmp_path):
        # A gzipped file with a non-.gz name still loads.
        path = tmp_path / "misleading.snap"
        with gzip.open(path, "wt") as handle:
            handle.write("0 1\n1 2\n")
        result = load_snap(path)
        assert result.graph.num_arcs == 2

    def test_truncated_gzip_raises_ingest_error(self, tmp_path):
        path = tmp_path / "cut.snap.gz"
        write_snap(path, ((node, node + 1) for node in range(20_000)))
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(IngestError, match=r"cut\.snap\.gz.*truncated.*after line \d+"):
            load_snap(path)

    def test_corrupt_gzip_crc_raises_ingest_error(self, tmp_path):
        path = tmp_path / "crc.snap.gz"
        write_snap(path, ((node, node + 1) for node in range(150)))
        payload = bytearray(path.read_bytes())
        payload[-8] ^= 0x01  # the trailer's CRC-32 of the member
        path.write_bytes(bytes(payload))
        with pytest.raises(IngestError, match=r"crc\.snap\.gz.*corrupt.*CRC check failed"):
            load_snap(path)

    def test_arc_line_accounting_invariant(self, tmp_path):
        path = tmp_path / "mixed.snap"
        path.write_text("# c\n0 1\n0 1\n2 2\n\n1 0\n")
        stats = load_snap(path).stats
        assert stats.arc_lines == (
            stats.arcs + stats.self_loops + stats.duplicate_arcs
        )


class TestIdCompaction:
    def test_dense_ids_load_verbatim(self, tmp_path):
        path = tmp_path / "dense.snap"
        path.write_text("0 1\n1 2\n2 0\n")
        result = load_snap(path)
        assert not result.stats.compacted
        assert result.external_ids is None
        assert result.internal_id(1) == 1
        assert result.external_id(1) == 1

    def test_sparse_integer_ids_compact_in_numeric_order(self, tmp_path):
        path = tmp_path / "sparse.snap"
        path.write_text("100 5\n5 17\n")
        result = load_snap(path)
        assert result.stats.compacted
        assert result.external_ids == (5, 17, 100)
        assert result.internal_id(5) == 0
        assert result.internal_id(100) == 2
        assert result.external_id(1) == 17
        # Arcs are relabelled consistently.
        assert sorted(result.graph.arcs()) == [(0, 1), (2, 0)]

    def test_string_ids_compact_lexicographically(self, tmp_path):
        path = tmp_path / "strings.snap"
        path.write_text("nodeB nodeA\nnodeA nodeC\n")
        result = load_snap(path)
        assert result.external_ids == ("nodeA", "nodeB", "nodeC")
        assert result.internal_id("nodeB") == 1
        with pytest.raises(IngestError, match="not present"):
            result.internal_id("nodeZ")

    def test_leading_zero_tokens_stay_distinct_nodes(self, tmp_path):
        path = tmp_path / "zeros.snap"
        path.write_text("07 7\n7 8\n")
        result = load_snap(path)
        assert result.graph.num_nodes == 3
        assert result.stats.compacted
        # Numeric ties break on the token, deterministically.
        assert result.external_ids == ("07", 7, 8)

    def test_compaction_is_independent_of_arc_order(self, tmp_path):
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        a.write_text("30 10\n10 20\n")
        b.write_text("10 20\n30 10\n")
        ra, rb = load_snap(a), load_snap(b)
        assert ra.external_ids == rb.external_ids
        assert ra.graph == rb.graph

    def test_nodes_header_preserves_isolated_nodes(self, tmp_path):
        path = tmp_path / "header.snap"
        path.write_text("# nodes: 5\n0 2\n2 4\n")
        result = load_snap(path)
        assert result.graph.num_nodes == 5
        assert not result.stats.compacted
        assert result.graph.out_degree(1) == 0

    def test_explicit_num_nodes_overrides(self, tmp_path):
        path = tmp_path / "plain.snap"
        path.write_text("0 2\n2 4\n")
        result = load_snap(path, num_nodes=6)
        assert result.graph.num_nodes == 6

    def test_header_too_small_falls_back_to_compaction(self, tmp_path):
        path = tmp_path / "lying.snap"
        path.write_text("# nodes: 2\n0 5\n5 9\n")
        result = load_snap(path)
        assert result.stats.compacted
        assert result.graph.num_nodes == 3

    def test_header_ignored_for_string_ids(self, tmp_path):
        path = tmp_path / "strheader.snap"
        path.write_text("# nodes: 10\nx y\n")
        result = load_snap(path)
        assert result.graph.num_nodes == 2
        assert result.stats.compacted


class TestCyclicInputs:
    def test_cycle_is_recorded(self, tmp_path):
        path = tmp_path / "cycle.snap"
        path.write_text("0 1\n1 2\n2 0\n")
        result = load_snap(path)
        assert not result.stats.acyclic
        assert result.condensation is None

    def test_condense_attaches_condensation(self, tmp_path):
        path = tmp_path / "cycle.snap"
        path.write_text("0 1\n1 2\n2 0\n2 3\n")
        result = load_snap(path, condense=True)
        assert result.stats.condensed
        assert result.stats.components == 2
        assert result.condensation is not None
        assert result.condensation.dag.num_nodes == 2

    def test_condense_is_noop_on_acyclic_input(self, tmp_path):
        path = tmp_path / "dag.snap"
        path.write_text("0 1\n1 2\n")
        result = load_snap(path, condense=True)
        assert result.stats.acyclic
        assert not result.stats.condensed
        assert result.condensation is None


class TestRoundTrip:
    def test_write_then_load_plain(self, tmp_path):
        graph = generate_dag(120, 3, 40, seed=5)
        path = tmp_path / "dag.snap"
        count = write_snap(path, graph.arcs(), comments=("nodes: 120",))
        assert count == graph.num_arcs
        assert load_snap(path).graph == graph

    def test_write_then_load_gzip(self, tmp_path):
        graph = generate_dag(120, 3, 40, seed=5)
        path = tmp_path / "dag.snap.gz"
        write_snap(path, graph.arcs(), comments=("nodes: 120",))
        # Really gzipped on disk.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert load_snap(path).graph == graph

    def test_streamed_paper_dag_equals_generated(self, tmp_path):
        path = tmp_path / "paper.snap"
        write_snap(path, stream_paper_dag(300, 4, 80, seed=9),
                   comments=("nodes: 300",))
        assert load_snap(path).graph == generate_dag(300, 4, 80, seed=9)

    def test_comment_lines_round_trip_as_comments(self, tmp_path):
        path = tmp_path / "c.snap"
        write_snap(path, [(0, 1)], comments=("hello", "world"))
        text = path.read_text()
        assert text.startswith("# hello\n# world\n")
        assert load_snap(path).stats.comment_lines == 2


class TestCheckedInFixtures:
    def test_tiny_fixture(self):
        result = load_snap(FIXTURES / "tiny.snap")
        stats = result.stats
        assert stats.nodes == 6
        assert stats.arcs == 5
        assert stats.duplicate_arcs == 1
        assert stats.self_loops == 1
        assert stats.compacted
        assert stats.acyclic
        assert result.external_ids == (5, 10, 17, 42, 100, 205)
        # The diamond: both middle nodes reach the sink.
        sink = result.internal_id(100)
        assert sink in result.graph.successors(result.internal_id(10))
        assert sink in result.graph.successors(result.internal_id(17))

    def test_string_id_fixture(self):
        result = load_snap(FIXTURES / "tiny_string_ids.snap")
        assert result.stats.compacted
        assert result.external_ids == ("n42", "n42x", "n7", "n9")

    def test_braid_fixture_gz(self):
        result = load_snap(FIXTURES / "braid_small.snap.gz")
        assert result.graph.num_nodes == 200
        assert not result.stats.compacted
        assert result.stats.acyclic
        assert result.stats.duplicate_arcs == 0


class TestStreamGenerators:
    def test_braid_is_deterministic(self):
        a = list(iter_braided_arcs(3, 30, seed=4))
        b = list(iter_braided_arcs(3, 30, seed=4))
        assert a == b
        assert a != list(iter_braided_arcs(3, 30, seed=5))

    def test_braid_has_no_duplicates_or_self_loops(self):
        arcs = list(iter_braided_arcs(4, 60, shortcuts_per_node=3, seed=1))
        assert len(arcs) == len(set(arcs))
        assert all(src != dst for src, dst in arcs)

    def test_braid_is_acyclic_with_contiguous_nodes(self):
        num_nodes = 5 * 40
        builder = DigraphBuilder(num_nodes)
        builder.add_arcs(iter_braided_arcs(5, 40, seed=2))
        graph = builder.freeze()
        assert is_acyclic(graph)
        # Every node is on a chain: no isolated nodes.
        assert all(
            graph.out_degree(node) or graph.in_degree(node)
            for node in graph.nodes()
        )

    def test_braid_chain_arcs_always_present(self):
        arcs = set(iter_braided_arcs(2, 10, shortcuts_per_node=0,
                                     cross_links_per_chain=0, seed=0))
        expected = {(i, i + 1) for i in range(9)} | {
            (10 + i, 11 + i) for i in range(9)
        }
        assert arcs == expected

    def test_braid_validation(self):
        with pytest.raises(ConfigurationError):
            next(iter_braided_arcs(0, 10))
        with pytest.raises(ConfigurationError):
            next(iter_braided_arcs(2, 1))
        with pytest.raises(ConfigurationError):
            next(iter_braided_arcs(2, 10, shortcut_span=1))
        with pytest.raises(ConfigurationError):
            next(iter_braided_arcs(2, 10, shortcuts_per_node=-1))

    def test_paper_stream_matches_generator_module(self):
        assert list(stream_paper_dag(100, 3, 20, seed=6)) == list(
            iter_paper_arcs(100, 3, 20, seed=6)
        )


class TestStreamFamilies:
    def test_registry_lookup_is_case_insensitive(self):
        assert stream_family("BRAID-10K") is stream_family("braid-10k")

    def test_unknown_family_lists_valid_names(self):
        with pytest.raises(ConfigurationError, match="braid-10k"):
            stream_family("nope")

    def test_family_names_are_unique(self):
        names = [family.name for family in STREAM_FAMILIES]
        assert len(names) == len(set(names))

    def test_smallest_family_writes_and_loads(self, tmp_path):
        family = stream_family("paper-2k")
        path = tmp_path / "fam.snap.gz"
        family.write(path)
        result = load_snap(path)
        assert result.graph.num_nodes == family.num_nodes
        assert not result.stats.compacted
        assert result.graph == generate_dag(2000, 5, 200, seed=0)


@st.composite
def arc_lists(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=30))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
            ),
            max_size=80,
        )
    )
    return num_nodes, arcs


class TestLoadedEqualsBuilt:
    @given(arc_lists())
    @settings(max_examples=60, deadline=None)
    def test_loaded_graph_equals_from_arcs(self, tmp_path_factory, case):
        num_nodes, arcs = case
        clean = [(u, v) for u, v in arcs if u != v]
        path = tmp_path_factory.mktemp("prop") / "g.snap"
        write_snap(path, arcs, comments=(f"nodes: {num_nodes}",))
        result = load_snap(path)
        assert result.graph == Digraph.from_arcs(num_nodes, clean)
        assert result.stats.self_loops == len(arcs) - len(clean)
        assert result.stats.duplicate_arcs == len(clean) - len(set(clean))
