"""Aggregation of per-run records into the benchmark perf trajectory.

The benchmark suite gives its session's experiment engine a
:class:`~repro.obs.sink.MemorySink`, so every run that engine makes for
the regenerated tables and figures emits one
:class:`~repro.obs.record.RunRecord`.  At session end those records are
folded into one entry per *benchmark cell* (algorithm x workload x
query shape) and written as ``BENCH_summary.json`` -- the durable
perf-trajectory file later PRs diff against.

Repetitions: the experiment engine can run each unit ``N`` times
(``ExperimentEngine(reps=N)``: ``--repro-reps`` in the benchmark suite,
``--reps`` on the CLI).  The
simulated counters are deterministic, so the per-cell ``total_io`` is
a mean purely for symmetry; the *measured* metrics use **min-of-N** --
the minimum is the least-noisy estimator of a timing's true cost on a
shared machine -- with every sample preserved in ``cpu_samples`` /
``wall_samples`` so the compare gate can derive a variance band.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.record import RunRecord


def _query_label(query: dict[str, Any]) -> str:
    if query.get("kind") == "full":
        return "full"
    return f"s={query.get('selectivity')}"


def build_bench_summary(records: list[RunRecord]) -> list[dict[str, Any]]:
    """One summary entry per cell, aggregating that cell's runs.

    Each entry carries the cell identity (algorithm, family/workload,
    query shape) plus mean ``total_io`` and min-of-N ``cpu_seconds``
    and ``wall_seconds``.  Cells with more than one run additionally
    record every timing sample (``cpu_samples``/``wall_samples``).
    """
    cells: dict[tuple[str, str, str, str], list[RunRecord]] = {}
    for record in records:
        cells.setdefault(record.cell_key(), []).append(record)

    summary = []
    for key in sorted(cells):
        runs = cells[key]
        first = runs[0]
        cpu_samples = [round(r.cpu_seconds, 6) for r in runs]
        wall_samples = [round(r.wall_seconds, 6) for r in runs]
        entry: dict[str, Any] = {
            "algorithm": first.algorithm,
            "family": first.workload.get("family"),
            "workload": first.workload,
            "query": _query_label(first.query),
            "buffer_pages": first.system.get("buffer_pages"),
            "system": first.system,
            "runs": len(runs),
            "total_io": sum(r.total_io for r in runs) / len(runs),
            "cpu_seconds": min(cpu_samples),
            "wall_seconds": min(wall_samples),
        }
        if len(runs) > 1:
            entry["cpu_samples"] = cpu_samples
            entry["wall_samples"] = wall_samples
        summary.append(entry)
    return summary


def write_bench_summary(summary: Any, path: str | Path) -> None:
    """Write a bench summary as reviewable JSON.

    Keys are sorted and the file ends with a trailing newline, so the
    diff between two PRs' ``BENCH_summary.json`` is minimal and every
    line is a real change.
    """
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
