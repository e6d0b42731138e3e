"""Crash-safe checkpoint journal for experiment sweeps.

A full ``run_all`` sweep is minutes of work, and a crash (OOM, timeout
storm, ctrl-C) used to lose every completed cell.  The
:class:`SweepJournal` fixes that: the experiment engine appends one
JSON line per *completed cell* -- keyed by the cell's deterministic
identity (algorithm, family, query shape, system config, scale
profile), which is also its seed tuple -- holding the averaged metrics
and every per-run :class:`~repro.obs.record.RunRecord` of the cell.

Crash safety: the journal is a :class:`~repro.obs.sink.RecordFile`, so
each line is written whole, flushed, and fsynced before the engine
moves on, and the journal never holds a half-cell; at worst the final
line is truncated mid-write, which loading tolerates (with a warning)
by discarding it.  Any other malformed line -- including a whole one,
last or not, of another :data:`JOURNAL_SCHEMA_VERSION` or with a
wrong-typed field -- raises :class:`~repro.errors.RecordFileError`
naming ``file:line``.

Resuming with the same journal replays each journaled cell -- the
records go back out to the engine's sink in their canonical order and
the metrics are returned without recomputation -- so a killed sweep
relaunched with ``--resume <journal>`` re-runs only the missing cells
and produces output *byte-identical* to an uninterrupted run (every
cell is a pure function of its key; see
:mod:`repro.experiments.parallel`).

Failed cells are deliberately **not** journaled: a resume retries them.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.record import NUMBER, RunRecord, check_type
from repro.obs.sink import RecordFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import AveragedMetrics

JOURNAL_SCHEMA_VERSION = 1
"""Version of the journal's lines; a line of any other version is refused.

Bump it when the line layout changes, *and* in any change that alters
a counter on purpose: a journaled cell holds the counters of the code
that computed it, so a resume must never mix old and new cells in one
figure.
"""


class SweepJournal:
    """Append-only JSONL journal of completed experiment cells.

    Opening a journal loads whatever a previous (possibly killed)
    sweep recorded; completed cells are then served from memory via
    :meth:`get` and new completions appended durably via :meth:`record`.
    Every appended cell is flushed *and fsynced* before :meth:`record`
    returns.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = RecordFile(self.path)
        self._cells: dict[str, tuple["AveragedMetrics", list[RunRecord]]] = {}
        self.appended = 0
        if self.path.exists():
            for key, metrics, records in self._file.read(
                _decode_cell, "journal",
                "corrupt checkpoint line (only the final line may be truncated)",
            ):
                self._cells[key] = (metrics, records)
        self.loaded = len(self._cells)

    # -- queries --------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, key: str) -> "tuple[AveragedMetrics, list[RunRecord]] | None":
        """The journaled completion for ``key``, if any."""
        return self._cells.get(key)

    # -- recording ------------------------------------------------------------

    def record(self, key: str, metrics: "AveragedMetrics",
               records: list[RunRecord]) -> None:
        """Durably journal one completed cell (idempotent per key)."""
        if key in self._cells:
            return
        self._cells[key] = (metrics, records)
        self._file.append({
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "key": key,
            "metrics": dataclasses.asdict(metrics),
            "records": [record.to_dict() for record in records],
        })
        self.appended += 1

    def close(self) -> None:
        """Release the journal's file handle."""
        self._file.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def describe(self) -> str:
        """One status line for sweep drivers to print."""
        return (f"checkpoint {self.path}: {self.loaded} cell(s) resumed, "
                f"{self.appended} appended")


def _decode_cell(data: Any) -> "tuple[str, AveragedMetrics, list[RunRecord]]":
    """One journal line's cell, every field checked for its JSON type."""
    from repro.experiments.runner import AveragedMetrics

    check_type("a journal line", data, dict)
    version = data.get("schema_version")
    if type(version) is not int or version != JOURNAL_SCHEMA_VERSION:
        raise ValueError(
            f"journal schema version {version!r} is not {JOURNAL_SCHEMA_VERSION}"
        )
    key, metrics, records = data.get("key"), data.get("metrics"), data.get("records")
    check_type("'key'", key, str)
    check_type("'metrics'", metrics, dict)
    check_type("'records'", records, list)
    values = {f.name: metrics.get(f.name) for f in dataclasses.fields(AveragedMetrics)}
    for name, value in values.items():
        check_type(f"metric {name!r}", value, {"algorithm": str, "runs": int}.get(name, NUMBER))
    return key, AveragedMetrics(**values), [RunRecord.from_dict(r) for r in records]


def cell_key(algorithm: str, family: str, selectivity: int | None,
             system: dict[str, Any], profile: dict[str, Any]) -> str:
    """Canonical JSON identity of one experiment cell.

    This is the cell's deterministic seed tuple: everything a run
    depends on (the graph seeds and source-sample seeds are derived
    from the profile's repetition counts), so equal keys mean
    bit-identical cell output in any process on any machine.
    """
    return json.dumps(
        {
            "algorithm": algorithm,
            "family": family,
            "selectivity": selectivity,
            "system": system,
            "profile": profile,
        },
        separators=(",", ":"),
        sort_keys=True,
    )
