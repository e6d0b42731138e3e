"""Depth-first search, topological sorting and reachability.

The restructuring phase of every algorithm topologically sorts the
(magic) graph (Section 4 of the paper).  All traversals here are
iterative so that deep graphs (G10 has maximum node level 1605 at the
paper's scale) do not overflow Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import CyclicGraphError
from repro.graphs.digraph import Digraph


def topological_sort(graph: Digraph, nodes: Iterable[int] | None = None) -> list[int]:
    """Topologically sort ``graph`` (or the induced subset ``nodes``).

    Returns a list in which every arc goes from an earlier to a later
    position.  Ties are broken deterministically by a DFS from the
    lowest-numbered roots, so repeated runs yield identical layouts.

    Raises
    ------
    CyclicGraphError
        If the graph (restricted to ``nodes``) contains a cycle.
    """
    in_scope = None if nodes is None else set(nodes)
    candidates = graph.nodes() if in_scope is None else sorted(in_scope)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in candidates}
    postorder: list[int] = []

    for root in candidates:
        if color[root] != WHITE:
            continue
        # Each frame resumes its row's iterator where it left off.
        stack = [(root, iter(graph.successors(root)))]
        color[root] = GRAY
        while stack:
            node, children = stack[-1]
            for child in children:
                if in_scope is not None and child not in in_scope:
                    continue
                state = color[child]
                if state == GRAY:
                    raise CyclicGraphError(
                        f"cycle detected through arc ({node}, {child}); "
                        "condense the graph first (repro.graphs.condensation)"
                    )
                if state == WHITE:
                    stack.append((child, iter(graph.successors(child))))
                    color[child] = GRAY
                    break
            else:
                stack.pop()
                color[node] = BLACK
                postorder.append(node)

    postorder.reverse()
    return postorder


def is_acyclic(graph: Digraph) -> bool:
    """Whether the graph contains no directed cycle."""
    try:
        topological_sort(graph)
    except CyclicGraphError:
        return False
    return True


def reachable_from(graph: Digraph, sources: Iterable[int]) -> set[int]:
    """All nodes reachable from ``sources``, including the sources.

    This is the node set of the *magic graph* of a selection query
    (Section 2 of the paper).
    """
    seen: set[int] = set()
    stack = list(sources)
    for node in stack:
        graph.successors(node)  # validates the node id
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for child in graph.successors(node):
            if child not in seen:
                stack.append(child)
    return seen
