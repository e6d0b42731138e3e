"""Baseline-vs-candidate comparison of JSONL run records.

Loads two JSONL files of :class:`~repro.obs.record.RunRecord`\\ s,
groups each side into experimental *cells* (algorithm x workload x
query shape), averages repetitions within a cell, and reports the
per-cell delta of the paper's primary measure (``total_io``) and of
``cpu_seconds``.  Thresholds turn the report into a *noise-aware*
regression gate: every metric carries a :class:`MetricGate` combining
a relative tolerance, an absolute floor, and a variance band derived
from the baseline's own repetitions (``k`` standard deviations across
the cell's samples).  The defaults express the repository's policy:

* ``total_io`` is **deterministic** -- the simulator charges the same
  page I/O every run -- so its gate is purely relative and the CLI
  defaults it to *exact* (any growth fails);
* ``cpu_seconds`` is measured and machine-noisy, so it is report-only
  unless a ``cpu_threshold`` is passed;
* ``wall_seconds`` is the noisiest of all: when gated (pass a
  ``wall_threshold``) its band is ``max(rel x base, abs floor,
  k x sigma)`` so a cell with three ``--reps`` samples showing 2%
  jitter is not failed over a 1% drift.

``python -m repro compare baseline.jsonl out.jsonl`` exits non-zero
iff any gated metric in any cell grew beyond its band.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.metrics.report import format_table
from repro.obs.record import RunRecord
from repro.obs.sink import RecordFile

RecordSource = Union[str, Path, list[RunRecord]]


def load_records(source: RecordSource) -> list[RunRecord]:
    """Read run records from a JSONL file (or pass a list through).

    The file is read through :class:`~repro.obs.sink.RecordFile`, each
    line decoded by :meth:`RunRecord.from_dict`: a *final* line that
    does not parse -- the signature a crash mid-append leaves behind --
    is discarded with a warning, and any other malformed line raises
    :class:`~repro.errors.RecordFileError` naming ``file:line``.
    """
    if isinstance(source, list):
        return source
    return RecordFile(source).read(RunRecord.from_dict, "record", "not a RunRecord line")


@dataclass(frozen=True)
class MetricGate:
    """Tolerance policy of one metric in the regression gate.

    A metric regresses when its growth exceeds *all three* allowances
    at once -- i.e. when ``delta > max(rel x baseline, absolute,
    noise_sigma x stddev(baseline samples))``.  ``rel=None`` makes the
    metric report-only (its delta is shown, never gated).  Each
    tolerance must be finite and >= 0: a NaN or infinite one would let
    any growth pass.
    """

    metric: str
    rel: float | None = None
    absolute: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rel", "absolute", "noise_sigma"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{self.metric} gate: {name} must be finite and >= 0, got {value}"
                )

    @property
    def gated(self) -> bool:
        return self.rel is not None

    def allowance(self, base_mean: float, base_std: float) -> float:
        """The absolute growth this gate tolerates for one cell."""
        return max(
            (self.rel or 0.0) * base_mean,
            self.absolute,
            self.noise_sigma * base_std,
        )


def default_gates(
    threshold: float = 0.05,
    cpu_threshold: float | None = None,
    wall_threshold: float | None = None,
    wall_abs: float = 0.005,
    noise_sigma: float = 3.0,
) -> tuple[MetricGate, ...]:
    """The standard gate set (see the module docstring for the policy).

    The wall gate is built, so its tolerances are checked, even when
    ``wall_threshold`` is None; it is kept only when gated.
    """
    wall = MetricGate(
        "wall_seconds", rel=wall_threshold, absolute=wall_abs, noise_sigma=noise_sigma
    )
    gates = [
        MetricGate("total_io", rel=threshold),
        MetricGate("cpu_seconds", rel=cpu_threshold),
    ]
    if wall.gated:
        gates.append(wall)
    return tuple(gates)


@dataclass(frozen=True)
class CellDelta:
    """The change of one metric in one experimental cell."""

    cell: str
    metric: str
    baseline: float
    candidate: float
    regressed: bool
    allowance: float = 0.0
    """Absolute growth the metric's gate tolerated in this cell."""
    gated: bool = True
    """False when the metric was report-only here."""

    @property
    def delta(self) -> float:
        """Absolute change, candidate minus baseline."""
        return self.candidate - self.baseline

    @property
    def ratio(self) -> float | None:
        """Relative change ``delta / baseline`` (None when baseline is 0)."""
        if self.baseline == 0:
            return None
        return self.delta / self.baseline


@dataclass
class ComparisonReport:
    """All per-cell deltas plus the cells only one side has."""

    deltas: list[CellDelta] = field(default_factory=list)
    missing_in_candidate: list[str] = field(default_factory=list)
    new_in_candidate: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[CellDelta]:
        """The deltas that breached their threshold."""
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        """True when no cell regressed (the gate passes)."""
        return not self.regressions

    def render(self) -> str:
        """Aligned text table of every delta, regressions marked."""
        if not self.deltas:
            return "(no overlapping cells to compare)"
        rows = []
        for d in self.deltas:
            ratio = d.ratio
            if not d.gated:
                verdict = "report-only"
            elif d.regressed:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows.append(
                {
                    "cell": d.cell,
                    "metric": d.metric,
                    "baseline": d.baseline,
                    "candidate": d.candidate,
                    "delta": d.delta,
                    "delta_%": "n/a" if ratio is None else f"{100 * ratio:+.1f}%",
                    "band": f"{d.allowance:g}" if d.gated else "-",
                    "verdict": verdict,
                }
            )
        parts = [format_table(rows, title="repro compare")]
        if self.missing_in_candidate:
            parts.append(
                "cells missing in candidate: " + ", ".join(self.missing_in_candidate)
            )
        if self.new_in_candidate:
            parts.append("cells new in candidate: " + ", ".join(self.new_in_candidate))
        return "\n".join(parts)


def _cell_label(key: tuple[str, str, str, str]) -> str:
    """A compact human-readable name for one cell key."""
    algorithm, workload_json, query_json, system_json = key
    workload = json.loads(workload_json)
    query = json.loads(query_json)
    system = json.loads(system_json)
    workload_bits = [
        f"{name}={workload[name]}"
        for name in ("family", "scale", "nodes", "seed")
        if name in workload
    ]
    if "buffer_pages" in system:
        workload_bits.append(f"M={system['buffer_pages']}")
    query_bit = "full" if query.get("kind") == "full" else f"s={query.get('selectivity')}"
    return f"{algorithm}[{','.join(workload_bits) or 'custom'}|{query_bit}]"


def _cells(records: list[RunRecord]) -> dict[tuple[str, str, str, str], list[RunRecord]]:
    cells: dict[tuple[str, str, str, str], list[RunRecord]] = {}
    for record in records:
        cells.setdefault(record.cell_key(), []).append(record)
    return cells


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _std(values: list[float]) -> float:
    """Population standard deviation (0.0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def compare_runs(
    baseline: RecordSource,
    candidate: RecordSource,
    threshold: float = 0.05,
    cpu_threshold: float | None = None,
    *,
    gates: tuple[MetricGate, ...] | None = None,
    wall_threshold: float | None = None,
    wall_abs: float = 0.005,
    noise_sigma: float = 3.0,
) -> ComparisonReport:
    """Diff two sets of run records cell by cell.

    ``threshold`` is the relative growth of mean ``total_io`` a cell
    may show before it counts as a regression (0.0 = byte-exact, the
    CLI default; a baseline of 0 regresses on any growth at all).
    ``cpu_threshold`` does the same for mean ``cpu_seconds`` and is off
    (report-only) by default.  ``wall_threshold`` additionally gates
    mean ``wall_seconds`` with the noise-aware band ``max(rel x base,
    wall_abs, noise_sigma x stddev(baseline samples))``.  Pass
    ``gates`` to replace the whole policy with explicit
    :class:`MetricGate`\\ s.
    """
    base_cells = _cells(load_records(baseline))
    cand_cells = _cells(load_records(candidate))

    report = ComparisonReport()
    report.missing_in_candidate = [
        _cell_label(key) for key in base_cells if key not in cand_cells
    ]
    report.new_in_candidate = [
        _cell_label(key) for key in cand_cells if key not in base_cells
    ]

    if gates is None:
        gates = default_gates(
            threshold, cpu_threshold, wall_threshold, wall_abs, noise_sigma
        )
    for key, base_records in base_cells.items():
        cand_records = cand_cells.get(key)
        if cand_records is None:
            continue
        label = _cell_label(key)
        for gate in gates:
            base_values = [getattr(r, gate.metric) for r in base_records]
            base = _mean(base_values)
            cand = _mean([getattr(r, gate.metric) for r in cand_records])
            allowance = gate.allowance(base, _std(base_values))
            regressed = gate.gated and cand - base > allowance
            report.deltas.append(
                CellDelta(
                    label,
                    gate.metric,
                    base,
                    cand,
                    regressed,
                    allowance=allowance,
                    gated=gate.gated,
                )
            )
    return report
