"""Query specifications for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Query
from repro.graphs.datasets import sample_sources
from repro.graphs.digraph import Digraph


@dataclass(frozen=True)
class QuerySpec:
    """A query shape: full closure, or a selection of ``s`` sources.

    The paper repeats each selection experiment with several randomly
    drawn source sets (Section 5.2); :meth:`materialise` draws one such
    set deterministically from ``sample_index``.
    """

    selectivity: int | None = None  # None = full closure

    @classmethod
    def full(cls) -> "QuerySpec":
        """The complete-closure query shape (CTC)."""
        return cls(selectivity=None)

    @classmethod
    def selection(cls, s: int) -> "QuerySpec":
        """A partial-closure query shape with ``s`` source nodes."""
        return cls(selectivity=s)

    def draw_sources(
        self, graph: Digraph, sample_index: int = 0, seed: int | None = None
    ) -> tuple[int, ...] | None:
        """Draw the source sample for ``graph`` (None for full closure).

        The sample is a pure function of ``(selectivity,
        sample_index)`` -- seed ``1000 + sample_index`` -- so any
        process that draws from the same spec draws the same sources
        (the experiment engine's seeding contract).  ``seed`` overrides
        the derived seed for callers that manage seeds themselves (the
        CLI's ``--seed``).
        """
        if self.selectivity is None:
            return None
        if seed is None:
            seed = 1000 + sample_index
        return sample_sources(graph, self.selectivity, seed=seed)

    def materialise(
        self, graph: Digraph, sample_index: int = 0, seed: int | None = None
    ) -> Query:
        """Draw a concrete query for ``graph`` (see :meth:`draw_sources`)."""
        sources = self.draw_sources(graph, sample_index, seed)
        return Query.full() if sources is None else Query.ptc(sources)
