"""Real-graph ingestion: streaming edge lists into the CSR core.

The paper's evaluation runs on synthetic (n, F, l) DAGs; this module is
the on-ramp for *real* graphs in the SNAP edge-list format (one
``source<whitespace>destination`` pair per line, ``#`` comments), the
lingua franca of public graph collections.  Design constraints:

* **Streaming, bounded memory.**  The loader never materialises
  per-node Python lists: arcs accumulate in two flat ``array('q')``
  columns (16 bytes per arc) and are counting-sorted into the frozen
  CSR :class:`~repro.graphs.digraph.Digraph` in one pass
  (:func:`~repro.graphs.digraph.graph_from_columns`).  Likewise the
  generators below *yield* arcs so a 100k+-node graph can be written
  to disk without ever existing as an object graph.
* **Tolerant input.**  Plain or gzip payload (sniffed from the magic
  bytes, not the file name), ``#``/``%`` comment lines, blank lines,
  trailing columns (weights) ignored, duplicate arcs collapsed,
  self-loops dropped -- each tallied in :class:`IngestStats`.
* **Id compaction.**  External node ids need not be ``0..n-1`` -- they
  may be sparse integers or arbitrary strings.  Ids are compacted to
  the dense internal range by sorted order (numeric when every id
  parses as an integer, lexicographic otherwise), which makes the
  mapping a pure function of the id *set* -- independent of arc order
  in the file.  Files whose ids are already exactly ``0..n-1`` load
  with the identity mapping and no translation table.
* **Cycles are data.**  Real edge lists are rarely acyclic.  The
  loader records acyclicity in the stats and, with ``condense=True``,
  attaches the existing condensation
  (:mod:`repro.graphs.condensation`) so component-DAG pipelines can
  proceed; index builds via
  :func:`repro.core.chains.build_chain_index` condense on their own.
"""

from __future__ import annotations

import gzip
import io
import random
import re
import zlib
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError, IngestError
from repro.graphs.condensation import Condensation, condensation
from repro.graphs.digraph import Digraph, graph_from_columns
from repro.graphs.generator import iter_paper_arcs
from repro.graphs.toposort import is_acyclic

COMMENT_PREFIXES = ("#", "%")
"""Line prefixes treated as comments (SNAP uses ``#``, KONECT ``%``)."""

GZIP_MAGIC = b"\x1f\x8b"

RELABEL_SLICE = 1 << 14
"""Arc-column entries relabelled per step of the id compaction."""


@dataclass(frozen=True)
class IngestStats:
    """Tallies from one :func:`load_snap` pass.

    ``arc_lines`` counts edge lines parsed (including self-loops and
    duplicates); ``arcs`` is the final graph's deduplicated arc count,
    so ``arc_lines == arcs + self_loops + duplicate_arcs`` always
    holds.
    """

    nodes: int
    arcs: int
    arc_lines: int
    comment_lines: int
    blank_lines: int
    self_loops: int
    duplicate_arcs: int
    compacted: bool
    acyclic: bool
    condensed: bool = False
    components: int = 0

    def as_dict(self) -> dict[str, object]:
        """The stats as a JSON-ready mapping."""
        return {
            "nodes": self.nodes,
            "arcs": self.arcs,
            "arc_lines": self.arc_lines,
            "comment_lines": self.comment_lines,
            "blank_lines": self.blank_lines,
            "self_loops": self.self_loops,
            "duplicate_arcs": self.duplicate_arcs,
            "compacted": self.compacted,
            "acyclic": self.acyclic,
            "condensed": self.condensed,
            "components": self.components,
        }


@dataclass
class IngestResult:
    """A loaded graph plus its ingestion stats and id translation.

    ``external_ids[internal]`` is the original file id of each internal
    node (``None`` when the file's ids were already the dense
    ``0..n-1`` integers).  ``condensation`` is attached only when
    ``condense=True`` was requested *and* the graph is cyclic.
    """

    graph: Digraph
    stats: IngestStats
    external_ids: tuple[int | str, ...] | None = None
    condensation: Condensation | None = None
    _index: dict[int | str, int] | None = field(
        default=None, repr=False, compare=False
    )

    def internal_id(self, external: int | str) -> int:
        """Map a file-side node id to its internal ``0..n-1`` id."""
        if self.external_ids is None:
            node = int(external)
            if not 0 <= node < self.graph.num_nodes:
                raise IngestError(
                    f"node id {external!r} outside the ingested range "
                    f"0..{self.graph.num_nodes - 1}"
                )
            return node
        if self._index is None:
            self._index = {
                token: node for node, token in enumerate(self.external_ids)
            }
        for key in (external, str(external)):
            found = self._index.get(key)
            if found is not None:
                return found
        try:
            found = self._index.get(int(external))
            if found is not None:
                return found
        except (TypeError, ValueError):
            pass
        raise IngestError(f"node id {external!r} not present in the ingested graph")

    def external_id(self, node: int) -> int | str:
        """Map an internal node id back to the file's id."""
        if self.external_ids is None:
            if not 0 <= node < self.graph.num_nodes:
                raise IngestError(
                    f"node {node} outside the ingested range "
                    f"0..{self.graph.num_nodes - 1}"
                )
            return node
        return self.external_ids[node]


def _open_text(path: Path) -> io.TextIOWrapper:
    """Open a possibly-gzipped edge list as text, sniffing the magic."""
    raw = open(path, "rb")
    try:
        magic = raw.read(2)
        raw.seek(0)
        if magic == GZIP_MAGIC:
            return io.TextIOWrapper(
                gzip.GzipFile(fileobj=raw), encoding="utf-8", errors="replace"
            )
        return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")
    except Exception:
        raw.close()
        raise


_NODES_HEADER = re.compile(r"nodes:\s*(\d+)", re.IGNORECASE)


def load_snap(
    path: str | Path,
    *,
    condense: bool = False,
    num_nodes: int | None = None,
) -> IngestResult:
    """Stream a SNAP-format edge list into a frozen CSR graph.

    One pass over the file accumulates arcs as flat integer columns and
    first-seen id slots; ids are then compacted (sorted order), the
    columns relabelled in place, and the CSR built by counting sort --
    peak memory is O(nodes + arcs) machine integers, never per-node
    Python lists.

    ``num_nodes`` declares the graph's node count up front; a
    ``# nodes: N`` comment line (as :func:`write_snap` emits and SNAP
    headers approximate) serves the same role when the parameter is
    omitted.  The declared count is honoured only when every id is an
    integer already in ``0..N-1`` -- then the ids are kept verbatim
    (isolated nodes survive the round-trip, which a bare edge list
    cannot express); otherwise ids are compacted as usual and the
    declaration is ignored.

    Raises
    ------
    IngestError
        On an edge line with fewer than two fields, with the line
        number; or when a gzip payload is cut off or corrupt, with the
        last line read.
    """
    path = Path(path)
    slots: dict[str, int] = {}
    srcs = array("q")
    dsts = array("q")
    declared = num_nodes
    arc_lines = comment_lines = blank_lines = self_loops = 0
    lineno = 0  # the last line read, for a cut-off compressed payload
    setdefault = slots.setdefault
    srcs_append = srcs.append
    dsts_append = dsts.append
    with _open_text(path) as stream:
        try:
            for lineno, line in enumerate(stream, start=1):
                columns = line.split()
                if not columns:
                    blank_lines += 1
                    continue
                if columns[0].startswith(COMMENT_PREFIXES):
                    comment_lines += 1
                    if declared is None:
                        header = _NODES_HEADER.search(line)
                        if header is not None:
                            declared = int(header.group(1))
                    continue
                if len(columns) < 2:
                    raise IngestError(
                        f"{path}: line {lineno}: expected 'src dst', "
                        f"got {line.strip()!r}"
                    )
                arc_lines += 1
                src = setdefault(columns[0], len(slots))
                dst = setdefault(columns[1], len(slots))
                if src == dst:
                    self_loops += 1
                    continue
                srcs_append(src)
                dsts_append(dst)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IngestError(
                f"{path}: compressed data is truncated or corrupt after "
                f"line {lineno}: {exc}"
            ) from exc

    num_seen = len(slots)
    tokens = list(slots)  # tokens[slot] = token, by first-seen insertion order
    int_values: list[int] | None = []
    for token in tokens:
        try:
            int_values.append(int(token, 10))
        except ValueError:
            int_values = None
            break

    total_nodes = num_seen
    if (
        declared is not None
        and int_values is not None
        and num_seen <= declared
        and all(0 <= value < declared for value in int_values)
        and len(set(int_values)) == num_seen
    ):
        # The declared count covers every id: keep ids verbatim, sized
        # to the declaration (isolated nodes included).
        total_nodes = declared
        identity = True
        perm = array("q", int_values)
    elif int_values is not None:
        # Numeric sort; the token itself breaks ties ("07" vs "7" stay
        # distinct nodes, deterministically ordered).
        order = sorted(range(num_seen), key=lambda s: (int_values[s], tokens[s]))
        identity = all(int_values[slot] == rank for rank, slot in enumerate(order))
        perm = array("q", bytes(8 * num_seen))
        for rank, slot in enumerate(order):
            perm[slot] = rank
    else:
        order = sorted(range(num_seen), key=tokens.__getitem__)
        identity = False
        perm = array("q", bytes(8 * num_seen))
        for rank, slot in enumerate(order):
            perm[slot] = rank

    if any(perm[slot] != slot for slot in range(num_seen)):
        relabel = perm.tolist()
        for column in (srcs, dsts):
            # Bounded slices keep the temporary list small at any scale.
            for start in range(0, len(column), RELABEL_SLICE):
                stop = start + RELABEL_SLICE
                column[start:stop] = array(
                    "q", [relabel[slot] for slot in column[start:stop]]
                )

    graph = graph_from_columns(total_nodes, srcs, dsts)
    acyclic = is_acyclic(graph)
    cond = condensation(graph) if condense and not acyclic else None

    external_ids: tuple[int | str, ...] | None = None
    if not identity:
        if int_values is not None:
            # Canonical integer spellings become ints; a non-canonical
            # token ("07", "+3") stays a string so it never collides
            # with the node whose id *is* that integer.
            external_ids = tuple(
                value if str(value) == tokens[slot] else tokens[slot]
                for slot in order
                for value in (int_values[slot],)
            )
        else:
            external_ids = tuple(tokens[slot] for slot in order)

    stats = IngestStats(
        nodes=total_nodes,
        arcs=graph.num_arcs,
        arc_lines=arc_lines,
        comment_lines=comment_lines,
        blank_lines=blank_lines,
        self_loops=self_loops,
        duplicate_arcs=len(srcs) - graph.num_arcs,
        compacted=not identity,
        acyclic=acyclic,
        condensed=cond is not None,
        components=len(cond.members) if cond is not None else 0,
    )
    return IngestResult(
        graph=graph, stats=stats, external_ids=external_ids, condensation=cond
    )


def write_snap(
    path: str | Path,
    arcs: Iterable[tuple[int, int]],
    *,
    comments: Iterable[str] = (),
) -> int:
    """Stream arcs to a SNAP edge list; gzip when the name ends ``.gz``.

    Each comment line is prefixed with ``# ``; returns the number of
    arc lines written.  The arc iterable is consumed exactly once, so a
    multi-million-arc generator writes in constant memory.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    count = 0
    with opener(path, "wt", encoding="utf-8") as stream:
        for comment in comments:
            stream.write(f"# {comment}\n")
        for src, dst in arcs:
            stream.write(f"{src}\t{dst}\n")
            count += 1
    return count


# -- streaming DAG generators --------------------------------------------------


def stream_paper_dag(
    num_nodes: int,
    avg_out_degree: float,
    locality: int,
    seed: int | None = None,
) -> Iterator[tuple[int, int]]:
    """The paper's (n, F, l) arc stream, identical to ``generate_dag``.

    Re-exported from :mod:`repro.graphs.generator` so ingestion
    pipelines (write a big synthetic graph to disk, load it back) have
    one import surface; the stream and the in-memory generator share
    the same pseudo-random draw sequence, so a written-then-loaded
    graph equals the generated one.
    """
    return iter_paper_arcs(num_nodes, avg_out_degree, locality, seed=seed)


def iter_braided_arcs(
    num_chains: int,
    chain_length: int,
    *,
    shortcut_span: int = 64,
    shortcuts_per_node: int = 7,
    cross_links_per_chain: int = 40,
    seed: int = 0,
) -> Iterator[tuple[int, int]]:
    """Stream a "braided chains" DAG: big, sparse, chain-index friendly.

    ``num_chains`` parallel chains of ``chain_length`` nodes each (node
    ``(c, i)`` is id ``c * chain_length + i``), with three arc kinds:

    * the chain arcs ``(c, i) -> (c, i+1)``;
    * per node, up to ``shortcuts_per_node`` *within-chain* shortcuts to
      unique positions in ``[i+2, i+shortcut_span]`` -- they multiply
      the arc count without changing any chain-index vector (the
      minimal position reachable in the own chain is already ``i``);
    * per chain, ``cross_links_per_chain`` arcs into the *next* chain
      at random positions -- so a node reaches at most the chains after
      its own, keeping every k-vector at ``<= num_chains`` entries.

    The paper's (n, F, l) model goes dense at 100k+ nodes (closures,
    and so chain vectors, blow up quadratically); this family is the
    scale fixture -- ~1M arcs at 125k nodes with bounded vectors --
    and, like everything here, it is a pure function of its parameters
    and seed, streamed in O(1) memory.
    """
    if num_chains < 1:
        raise ConfigurationError(f"num_chains must be at least 1, got {num_chains}")
    if chain_length < 2:
        raise ConfigurationError(
            f"chain_length must be at least 2, got {chain_length}"
        )
    if shortcut_span < 2:
        raise ConfigurationError(
            f"shortcut_span must be at least 2, got {shortcut_span}"
        )
    if shortcuts_per_node < 0 or cross_links_per_chain < 0:
        raise ConfigurationError("shortcut and cross-link counts must be >= 0")
    rng = random.Random(seed)
    length = chain_length
    for chain in range(num_chains):
        base = chain * length
        for position in range(length - 1):
            node = base + position
            yield node, node + 1
            low = position + 2
            high = min(position + shortcut_span, length - 1)
            if low <= high:
                take = min(shortcuts_per_node, high - low + 1)
                if take:
                    for target in sorted(rng.sample(range(low, high + 1), take)):
                        yield node, base + target
        if chain + 1 < num_chains:
            next_base = base + length
            for position in sorted(
                rng.sample(range(length), min(cross_links_per_chain, length))
            ):
                yield base + position, next_base + rng.randrange(length)


# -- the ingestion dataset registry --------------------------------------------


@dataclass(frozen=True)
class StreamFamily:
    """A named, deterministic arc stream for ingestion pipelines.

    ``arcs()`` yields the family's arc stream from scratch each call;
    ``num_nodes`` is the exact node count of the streamed graph.  The
    registry complements ``GRAPH_FAMILIES`` (the paper's in-memory
    G1..G12 suite) with ingestion-scale workloads that exist as files,
    not objects.
    """

    name: str
    description: str
    num_nodes: int
    _make: Callable[[], Iterator[tuple[int, int]]]

    def arcs(self) -> Iterator[tuple[int, int]]:
        """A fresh iterator over the family's arc stream."""
        return self._make()

    def write(self, path: str | Path) -> int:
        """Write the family to ``path`` as SNAP; returns the arc count."""
        return write_snap(
            path,
            self.arcs(),
            comments=(
                f"repro ingest fixture: {self.name}",
                self.description,
                f"nodes: {self.num_nodes}",
            ),
        )


STREAM_FAMILIES: tuple[StreamFamily, ...] = (
    StreamFamily(
        name="paper-2k",
        description="the paper's G6 shape (n=2000, F=5, l=200), streamed",
        num_nodes=2000,
        _make=lambda: stream_paper_dag(2000, 5, 200, seed=0),
    ),
    StreamFamily(
        name="braid-10k",
        description="10 braided chains of 1000 nodes (~80k arcs)",
        num_nodes=10_000,
        _make=lambda: iter_braided_arcs(10, 1000, seed=0),
    ),
    StreamFamily(
        name="braid-125k",
        description="25 braided chains of 5000 nodes (~1.1M arcs)",
        num_nodes=125_000,
        _make=lambda: iter_braided_arcs(25, 5000, shortcuts_per_node=8, seed=0),
    ),
)


def stream_family(name: str) -> StreamFamily:
    """Look up an ingestion stream family by name."""
    for family in STREAM_FAMILIES:
        if family.name.lower() == name.lower():
            return family
    valid = ", ".join(family.name for family in STREAM_FAMILIES)
    raise ConfigurationError(
        f"unknown ingest family {name!r}; valid families: {valid}"
    )
