"""Chain decomposition (path cover) of a DAG.

A *chain decomposition* partitions the nodes of a DAG into k vertex-
disjoint paths ("chains") following graph arcs.  Kritikakis & Tollis
(*Parameterized Linear Time Transitive Closure*, arXiv 2404.17954;
*Fast and Practical DAG Decomposition with Reachability Applications*,
arXiv 2212.03945) show that such a decomposition yields an O(k * n)
reachability index: store, per node, the minimal position it reaches in
every chain, and ``reachable(u, v)`` reduces to one position
comparison.

The decomposition is one deterministic **node-order greedy** pass
(the first stage of the practical paper's concatenation heuristic):
walk the nodes in topological order; append each node to the chain
whose current tail is one of its parents (lowest chain id wins the
tie), or open a new chain.  k always stays >= the width of the DAG
(any antichain meets each chain at most once).

The heuristic's second stage -- joining whole chains end to end along
an arc from one chain's tail to another chain's head -- can never
apply after this greedy, so it is not implemented.  Take a chain's
final tail ``t`` and an arc ``t -> h``: ``t`` precedes ``h`` in the
order and nothing is ever appended after a final tail, so ``t`` is
still a tail when ``h`` is placed, and ``h`` joins a chain instead of
opening one.  No final tail has an arc to a chain head.

The decomposition is a pure graph computation: no storage engine is
involved here.  :mod:`repro.core.chains` layers the paper-style cost
accounting and the queryable index on top.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.graphs.digraph import Digraph
from repro.graphs.toposort import topological_sort


@dataclass(frozen=True)
class ChainDecomposition:
    """A vertex-disjoint path cover of (a subset of) a DAG.

    Attributes
    ----------
    chains:
        The chains themselves; ``chains[c]`` lists nodes in path order,
        and every consecutive pair is an arc of the graph.
    chain_of:
        ``chain_of[v]`` is the chain id covering node ``v``.
    position_of:
        ``position_of[v]`` is ``v``'s index within its chain.
    """

    chains: tuple[tuple[int, ...], ...]
    chain_of: dict[int, int]
    position_of: dict[int, int]

    @property
    def k(self) -> int:
        """The number of chains (the index's width parameter)."""
        return len(self.chains)


def decompose_chains(
    adjacency: Mapping[int, Sequence[int]],
    order: list[int],
) -> ChainDecomposition:
    """Decompose an adjacency mapping into chains in one greedy pass.

    ``order`` must be a topological order of ``adjacency``'s nodes (the
    restructuring phase already computed one, so callers pass it in
    instead of re-sorting).  No chain's final tail has an arc to another
    chain's head (see the module docstring), so concatenating chains
    end to end could not lower k.  ``chain_of`` and ``position_of`` are
    filled in placement order.

    The result is a pure function of ``(adjacency, order)``: ties are
    broken by chain id, so repeated runs -- in any process -- produce
    the identical decomposition (the engine-parity and ``--resume``
    guarantees depend on this).
    """
    predecessors: dict[int, list[int]] = {node: [] for node in order}
    for node in order:
        for child in adjacency[node]:
            predecessors[child].append(node)

    chains: list[list[int]] = []
    chain_of: dict[int, int] = {}
    position_of: dict[int, int] = {}
    tail_chain: dict[int, int] = {}  # current tail node -> its chain id
    for node in order:
        best: int | None = None
        for parent in predecessors[node]:
            candidate = tail_chain.get(parent)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        if best is None:
            best = len(chains)
            chains.append([])
        else:
            del tail_chain[chains[best][-1]]
        chains[best].append(node)
        chain_of[node] = best
        position_of[node] = len(chains[best]) - 1
        tail_chain[node] = best

    return ChainDecomposition(
        chains=tuple(tuple(chain) for chain in chains),
        chain_of=chain_of,
        position_of=position_of,
    )


def chain_decomposition(
    graph: Digraph,
    nodes: list[int] | None = None,
) -> ChainDecomposition:
    """Decompose a :class:`Digraph` (or an induced node subset).

    Convenience wrapper around :func:`decompose_chains` that sorts the
    graph first (raising
    :class:`~repro.errors.CyclicGraphError` on cycles -- condense
    cyclic inputs with :mod:`repro.graphs.condensation` first).
    """
    order = topological_sort(graph, nodes)
    if nodes is None:
        # Whole-graph decomposition reads the CSR rows zero-copy; only
        # the induced-subset path filters into per-node lists.
        adjacency: Mapping[int, Sequence[int]] = {
            node: graph.successors(node) for node in order
        }
    else:
        in_scope = set(nodes)
        adjacency = {
            node: [child for child in graph.successors(node) if child in in_scope]
            for node in order
        }
    return decompose_chains(adjacency, order)
