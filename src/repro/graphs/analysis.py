"""DAG statistics and the rectangle model (Section 5.3 of the paper).

Definitions reproduced here:

* ``level(i)`` is 1 for a sink and ``1 + max(level(j) for children j)``
  otherwise.
* ``locality(i, j) = level(i) - level(j)`` for an arc (i, j): the
  "distance" the arc spans, which predicts how likely the child's
  successor list is to still be in the buffer pool when the arc is
  processed.
* An arc is *redundant* if it is not in the transitive reduction
  ``TR(G)``; on a topologically sorted DAG the marking optimisation
  identifies exactly the redundant arcs.
* ``H(G) = sum(level(i)) / n`` (the height) and ``W(G) = |G| / H(G)``
  (the width) map a DAG onto a rectangle.  Theorem 1:
  ``H(G) = H(TR(G)) = H(TC(G))`` and ``W(TR(G)) <= W(G) <= W(TC(G))``.

All of this is computable in a single DFS traversal (Theorem 2); the
algorithms collect it during their restructuring phase at no extra I/O
cost, and Section 6.3.4 uses the width to predict whether JKB2 or BTC
wins on a partial-closure query.

Successor sets are represented as Python integers used as bitsets, the
same trick the paper's implementation uses for duplicate elimination
("duplicate elimination using bit vectors was found to be quite
cheap", Section 6.1); it also keeps closure computation fast enough to
run the paper's full 2000-node workloads in pure Python.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.graphs.digraph import Digraph
from repro.graphs.toposort import topological_sort


def node_levels(graph: Digraph, nodes: Iterable[int] | None = None) -> dict[int, int]:
    """The level of every node (1 for sinks, 1 + max child level otherwise).

    When ``nodes`` is given, levels are computed for the induced
    subgraph over that node set (used for magic graphs).
    """
    order = topological_sort(graph, nodes)
    in_scope = set(order)
    levels: dict[int, int] = {}
    for node in reversed(order):
        best = 0
        for child in graph.successors(node):
            if child in in_scope:
                child_level = levels[child]
                if child_level > best:
                    best = child_level
        levels[node] = best + 1
    return levels


def arc_locality(levels: dict[int, int], src: int, dst: int) -> int:
    """The locality of the arc (src, dst): ``level(src) - level(dst)``."""
    return levels[src] - levels[dst]


def transitive_closure_sets(
    graph: Digraph, nodes: Iterable[int] | None = None
) -> dict[int, int]:
    """Successor bitsets for every node: bit ``j`` of ``result[i]`` is set
    iff ``j`` is a proper successor of ``i`` (i itself excluded).
    """
    order = topological_sort(graph, nodes)
    in_scope = set(order)
    closure: dict[int, int] = {}
    for node in reversed(order):
        acc = 0
        for child in graph.successors(node):
            if child in in_scope:
                acc |= (1 << child) | closure[child]
        closure[node] = acc
    return closure


def transitive_closure_size(graph: Digraph, nodes: Iterable[int] | None = None) -> int:
    """``|TC(G)|``: the number of (ancestor, proper successor) pairs."""
    closure = transitive_closure_sets(graph, nodes)
    return sum(bits.bit_count() for bits in closure.values())


def transitive_reduction_arcs(
    graph: Digraph, nodes: Iterable[int] | None = None
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Split the arcs into (irredundant, redundant) sets.

    An arc (i, j) is redundant iff an alternative path from i to j
    exists; the irredundant arcs form the (unique) transitive reduction
    of the DAG.  Implemented with the marking procedure the BTC
    algorithm uses: children of each node are examined in topological
    order while accumulating the union of their closed successor sets.
    """
    order = topological_sort(graph, nodes)
    in_scope = set(order)
    position = {node: index for index, node in enumerate(order)}
    closure = transitive_closure_sets(graph, nodes)

    irredundant: set[tuple[int, int]] = set()
    redundant: set[tuple[int, int]] = set()
    for node in order:
        children = sorted(
            (child for child in graph.successors(node) if child in in_scope),
            key=position.__getitem__,
        )
        acc = 0
        for child in children:
            if (acc >> child) & 1:
                redundant.add((node, child))
            else:
                irredundant.add((node, child))
            acc |= (1 << child) | closure[child]
    return irredundant, redundant


@dataclass(frozen=True)
class GraphProfile:
    """The per-graph statistics reported in Table 2 of the paper."""

    num_nodes: int
    num_arcs: int
    max_level: int
    height: float
    width: float
    avg_arc_locality: float
    avg_irredundant_locality: float
    closure_size: int


def profile_graph(
    graph: Digraph,
    nodes: Iterable[int] | None = None,
    include_closure_size: bool = True,
) -> GraphProfile:
    """Compute the rectangle-model profile of a DAG (or magic subgraph).

    ``include_closure_size=False`` skips the ``|TC(G)|`` column, which
    is the only quantity here that is *not* available from the single
    restructuring-phase traversal (Theorem 2).
    """
    order = topological_sort(graph, nodes)
    in_scope = set(order)
    levels = node_levels(graph, order)

    arcs = [
        (src, dst)
        for src in order
        for dst in graph.successors(src)
        if dst in in_scope
    ]
    num_arcs = len(arcs)
    num_nodes = len(order)

    total_level = sum(levels.values())
    height = total_level / num_nodes if num_nodes else 0.0
    width = num_arcs / height if height else 0.0
    max_level = max(levels.values(), default=0)

    total_locality = sum(levels[src] - levels[dst] for src, dst in arcs)
    avg_locality = total_locality / num_arcs if num_arcs else 0.0

    irredundant, _ = transitive_reduction_arcs(graph, order)
    total_irr = sum(levels[src] - levels[dst] for src, dst in irredundant)
    avg_irr = total_irr / len(irredundant) if irredundant else 0.0

    closure_size = transitive_closure_size(graph, order) if include_closure_size else 0

    return GraphProfile(
        num_nodes=num_nodes,
        num_arcs=num_arcs,
        max_level=max_level,
        height=height,
        width=width,
        avg_arc_locality=avg_locality,
        avg_irredundant_locality=avg_irr,
        closure_size=closure_size,
    )


def bitset_to_nodes(bits: int) -> list[int]:
    """Expand a successor bitset into a sorted list of node ids."""
    result = []
    index = 0
    while bits:
        chunk = bits & 0xFFFFFFFFFFFFFFFF
        while chunk:
            low = chunk & -chunk
            result.append(index + low.bit_length() - 1)
            chunk ^= low
        bits >>= 64
        index += 64
    return result
