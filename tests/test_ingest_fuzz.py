"""Fuzz suite for the SNAP loader, the ingest path's untrusted-input boundary.

``load_snap`` is fed mutated bytes of a small plain edge list and of
the same list gzipped: byte flips, byte insertions, truncation, and
injected comment, blank, one-field and three-column lines.  Whatever
the bytes, it must either return a graph or raise ``IngestError``; no
other exception may escape.

Plain-text inputs are also run through a reference loader kept here --
per line ``strip``, ``startswith`` and ``split``, then one relabel per
arc -- and the tighter loader must agree with it exactly: the same CSR
arrays, ``IngestStats`` and external ids, or an ``IngestError`` on the
same line.
"""

import gzip
import re
from array import array

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import IngestError
from repro.graphs.digraph import graph_from_columns
from repro.graphs.ingest import GZIP_MAGIC, RELABEL_SLICE, iter_braided_arcs, load_snap
from repro.graphs.toposort import is_acyclic

BASE_TEXT = "# fuzz base: 3 braided chains of 50\n# nodes: 150\n" + "".join(
    f"{src}\t{dst}\n" for src, dst in iter_braided_arcs(3, 50, seed=3)
)
INJECTED_LINES = ("# comment", "% konect", "", "  \t ", "17", "4 9 0.5", "a b c")


@st.composite
def payloads(draw):
    """Mutated bytes of the base edge list, plain or gzipped."""
    lines = BASE_TEXT.splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(INJECTED_LINES)) + "\n")
    data = "".join(lines).encode()
    if draw(st.booleans()):
        data = gzip.compress(data, mtime=0)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("flip", "insert", "truncate")))
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            flipped = data[at] ^ draw(st.integers(1, 255))
            data = data[:at] + bytes([flipped]) + data[at + 1 :]
        elif kind == "insert":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
        elif kind == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
    return data


_HEADER = re.compile(r"nodes:\s*(\d+)", re.IGNORECASE)


def reference_load(path):
    """The loader's plain-text semantics, spelled out the long way.

    Returns ``(offsets, targets, stats, external_ids)``, or the number
    of the first line with fewer than two fields.
    """
    slots: dict[str, int] = {}
    srcs, dsts = array("q"), array("q")
    declared = None
    arc_lines = comment_lines = blank_lines = self_loops = 0
    with open(path, encoding="utf-8", errors="replace") as stream:
        for lineno, line in enumerate(stream, start=1):
            text = line.strip()
            if not text:
                blank_lines += 1
                continue
            if text.startswith(("#", "%")):
                comment_lines += 1
                if declared is None:
                    header = _HEADER.search(text)
                    if header is not None:
                        declared = int(header.group(1))
                continue
            columns = text.split()
            if len(columns) < 2:
                return lineno
            arc_lines += 1
            src = slots.setdefault(columns[0], len(slots))
            dst = slots.setdefault(columns[1], len(slots))
            if src == dst:
                self_loops += 1
                continue
            srcs.append(src)
            dsts.append(dst)

    tokens = list(slots)
    try:
        values = [int(token, 10) for token in tokens]
    except ValueError:
        values = None
    num_nodes = len(tokens)
    if (
        declared is not None
        and values is not None
        and all(0 <= value < declared for value in values)
        and len(set(values)) == len(values)
    ):
        num_nodes, perm, identity = declared, values, True
    else:
        if values is not None:
            order = sorted(range(num_nodes), key=lambda s: (values[s], tokens[s]))
        else:
            order = sorted(range(num_nodes), key=tokens.__getitem__)
        perm = [0] * num_nodes
        for rank, slot in enumerate(order):
            perm[slot] = rank
        identity = values is not None and all(
            values[slot] == rank for rank, slot in enumerate(order)
        )
    for position in range(len(srcs)):
        srcs[position] = perm[srcs[position]]
        dsts[position] = perm[dsts[position]]
    graph = graph_from_columns(num_nodes, srcs, dsts)

    external_ids = None
    if not identity:
        external_ids = tuple(
            values[slot]
            if values is not None and str(values[slot]) == tokens[slot]
            else tokens[slot]
            for slot in order
        )
    stats = {
        "nodes": num_nodes,
        "arcs": graph.num_arcs,
        "arc_lines": arc_lines,
        "comment_lines": comment_lines,
        "blank_lines": blank_lines,
        "self_loops": self_loops,
        "duplicate_arcs": len(srcs) - graph.num_arcs,
        "compacted": not identity,
        "acyclic": is_acyclic(graph),
        "condensed": False,
        "components": 0,
    }
    return list(graph.csr_offsets), list(graph.csr_targets), stats, external_ids


def loaded(result):
    """A load's result in :func:`reference_load`'s form."""
    graph = result.graph
    return (
        list(graph.csr_offsets),
        list(graph.csr_targets),
        result.stats.as_dict(),
        result.external_ids,
    )


class TestLoaderFuzz:
    @given(payloads())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_bytes_load_or_raise_ingest_error(self, tmp_path, data):
        path = tmp_path / "fuzz.snap"
        path.write_bytes(data)
        try:
            result, error = load_snap(path), ""
        except IngestError as exc:
            result, error = None, str(exc)
            assert str(path) in error
        if data.startswith(GZIP_MAGIC):
            return
        expected = reference_load(path)
        if isinstance(expected, int):
            assert result is None and f"line {expected}:" in error
        else:
            assert result is not None and loaded(result) == expected

    def test_unmutated_payloads_load_the_braid(self, tmp_path):
        plain, packed = tmp_path / "base.snap", tmp_path / "base.snap.gz"
        plain.write_text(BASE_TEXT)
        packed.write_bytes(gzip.compress(BASE_TEXT.encode(), mtime=0))
        for path in (plain, packed):
            result = load_snap(path)
            assert result.graph.num_nodes == 150
            assert not result.stats.compacted

    def test_relabel_spans_several_slices(self, tmp_path):
        path = tmp_path / "sparse.snap"
        arcs = list(iter_braided_arcs(4, 1500, seed=7))
        assert len(arcs) > 2 * RELABEL_SLICE
        path.write_text("".join(f"{3 * src + 1} {3 * dst + 1}\n" for src, dst in arcs))
        result = load_snap(path)
        assert result.stats.compacted
        assert loaded(result) == reference_load(path)
