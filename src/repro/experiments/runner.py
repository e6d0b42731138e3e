"""Per-cell averages of the paper's repetition protocol.

The paper reports, for every data point, the average over five random
graphs per family and five source-node sets per selection query
(Section 5.2).  The experiment engine (:mod:`repro.experiments.parallel`)
runs that protocol as one work unit per (graph seed, source sample) and
folds one result per unit into an :class:`AveragedMetrics` -- the
simulated counters only, so the averages are bit-identical at any
``--jobs``.  Run one cell with::

    with ExperimentEngine(sink=sink) as engine:
        (metrics,) = engine.run_cells([Cell(algorithm, family, query, system)], profile)
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.result import ClosureResult
from repro.storage.iostats import Phase


@dataclass(frozen=True)
class AveragedMetrics:
    """Metric averages over repeated runs of one experimental cell."""

    algorithm: str
    runs: int
    total_io: float
    restructure_io: float
    compute_io: float
    tuples_generated: float
    duplicates: float
    distinct_tuples: float
    output_tuples: float
    list_unions: float
    marking_percentage: float
    selection_efficiency: float
    avg_unmarked_locality: float
    hit_ratio: float
    answer_tuples: float

    @classmethod
    def from_results(cls, algorithm: str, results: list[ClosureResult]) -> "AveragedMetrics":
        """Average the headline metrics of several runs."""

        def mean(values: Iterable[float]) -> float:
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        summaries = [r.metrics for r in results]
        return cls(
            algorithm=algorithm,
            runs=len(results),
            total_io=mean(m.total_io for m in summaries),
            restructure_io=mean(
                m.io.reads_in(Phase.RESTRUCTURE) + m.io.writes_in(Phase.RESTRUCTURE)
                for m in summaries
            ),
            compute_io=mean(
                m.io.reads_in(Phase.COMPUTE) + m.io.writes_in(Phase.COMPUTE)
                for m in summaries
            ),
            tuples_generated=mean(m.tuples_generated for m in summaries),
            duplicates=mean(m.duplicates for m in summaries),
            distinct_tuples=mean(m.distinct_tuples for m in summaries),
            output_tuples=mean(m.output_tuples for m in summaries),
            list_unions=mean(m.list_unions for m in summaries),
            marking_percentage=mean(m.marking_percentage for m in summaries),
            selection_efficiency=mean(m.selection_efficiency for m in summaries),
            avg_unmarked_locality=mean(m.avg_unmarked_locality for m in summaries),
            hit_ratio=mean(m.hit_ratio() for m in summaries),
            answer_tuples=mean(r.num_tuples for r in results),
        )
