"""Experiment runner: execute algorithms and average their metrics.

The paper reports, for every data point, the average over five random
graphs per family and five source-node sets per selection query
(Section 5.2).  :func:`average_runs` reproduces that protocol at a
configurable number of repetitions.

Telemetry: besides returning averages, the runner emits one
:class:`~repro.obs.record.RunRecord` *per run* (not per cell) whenever
a sink is attached -- either passed explicitly or installed process-
wide with :func:`repro.obs.sink.set_global_sink`.  With no sink
attached (the default), no record is built and runs are exactly as
cheap as before.

Storage engines: the runner is engine-agnostic.  The engine name is
resolved into :class:`SystemConfig` at construction time, so a bare
``SystemConfig()`` built here (when a caller passes ``system=None``)
picks up the process default installed by ``run_all --engine`` /
``REPRO_ENGINE`` -- see :func:`repro.storage.engine.default_engine`.

This module is the *serial* execution substrate.  The process-pool
engine in :mod:`repro.experiments.parallel` fans cells out across
workers but reproduces this module's behaviour exactly: its work units
call :func:`run_single` with the same seeds, its aggregation calls
:meth:`AveragedMetrics.from_results` on results in the same order, and
at ``jobs=1`` it delegates to :func:`average_runs` unchanged.  Any
change to the repetition protocol here must be mirrored in
``parallel._cell_units``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.core.query import SystemConfig
from repro.core.registry import make_algorithm
from repro.core.result import ClosureResult
from repro.experiments.config import ScaleProfile
from repro.experiments.queries import QuerySpec
from repro.graphs.datasets import GraphFamily, graph_family
from repro.graphs.digraph import Digraph
from repro.obs.bench import bench_reps
from repro.obs.record import RunRecord
from repro.obs.sink import RunSink, get_global_sink
from repro.obs.spans import SpanRecorder
from repro.storage.iostats import Phase


def run_single(
    algorithm: str,
    graph: Digraph,
    query_spec: QuerySpec,
    system: SystemConfig | None = None,
    sample_index: int = 0,
    workload: dict[str, Any] | None = None,
    sink: RunSink | None = None,
    recorder: SpanRecorder | None = None,
) -> ClosureResult:
    """Run one algorithm once on one graph with one drawn query.

    When ``sink`` is given -- or a process-wide sink is installed via
    :func:`repro.obs.sink.set_global_sink` -- a :class:`RunRecord`
    describing the run (tagged with ``workload``) is emitted to it.

    When :func:`repro.obs.bench.set_bench_reps` installs ``N > 1``,
    the run is repeated ``N`` times and a record emitted *per
    repetition* -- the simulated counters are deterministic across
    reps, so this purely multiplies the timing samples the bench
    summary and the compare gate's variance band draw from.
    """
    query = query_spec.materialise(graph, sample_index)
    result: ClosureResult | None = None
    for _rep in range(bench_reps()):
        start = time.perf_counter()
        result = make_algorithm(algorithm).run(
            graph, query, system or SystemConfig(), recorder=recorder
        )
        wall_seconds = time.perf_counter() - start

        global_sink = get_global_sink()
        if sink is not None or global_sink is not None:
            if workload is None:
                workload = {"nodes": graph.num_nodes, "arcs": graph.num_arcs}
            record = RunRecord.from_result(
                result,
                workload=workload,
                recorder=recorder,
                wall_seconds=wall_seconds,
            )
            if sink is not None:
                sink.emit(record)
            if global_sink is not None and global_sink is not sink:
                global_sink.emit(record)
    assert result is not None  # bench_reps() >= 1 always
    return result


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


def average_runs(
    algorithm: str,
    family: str | GraphFamily,
    query_spec: QuerySpec,
    profile: ScaleProfile,
    system: SystemConfig | None = None,
    sink: RunSink | None = None,
) -> AveragedMetrics:
    """Run one experimental cell with the profile's repetition protocol.

    One run per (graph seed, source-sample) combination: the paper's
    5-graphs x 5-source-sets protocol at the profile's counts.  Each
    individual run emits a :class:`RunRecord` to ``sink`` (and to the
    process-wide sink, if installed); all records of one cell share the
    same workload tag, so ``repro compare`` averages them back into the
    cell before diffing.
    """
    if isinstance(family, str):
        family = graph_family(family)
    system = system or SystemConfig()
    workload = {
        "family": family.name,
        "profile": profile.name,
        "nodes": profile.num_nodes,
    }
    results = []
    for graph_seed in range(profile.graphs_per_family):
        graph = profile.build(family, seed=graph_seed)
        samples = 1 if query_spec.selectivity is None else profile.source_samples
        for sample_index in range(samples):
            results.append(
                run_single(
                    algorithm,
                    graph,
                    query_spec,
                    system,
                    sample_index,
                    workload=workload,
                    sink=sink,
                )
            )
    return AveragedMetrics.from_results(algorithm, results)
