"""Crash-safe checkpoint journal for experiment sweeps.

A full ``run_all`` sweep is minutes of work, and a crash (OOM, timeout
storm, ctrl-C) used to lose every completed cell.  The
:class:`SweepJournal` fixes that: the experiment engine appends one
JSON line per *completed cell* -- keyed by the cell's deterministic
identity (algorithm, family, query shape, system config, scale
profile), which is also its seed tuple -- holding the averaged metrics
and every per-run :class:`~repro.obs.record.RunRecord` of the cell.

Crash safety: each line is written whole, flushed, and fsynced before
the engine moves on, so the journal never holds a half-cell; at worst
the final line is truncated mid-write, which :meth:`SweepJournal.load`
tolerates (with a warning) by discarding it.  A malformed line anywhere
else raises :class:`~repro.errors.RecordFileError` naming ``file:line``.

Resuming with the same journal replays each journaled cell -- the
records go back out to the sinks in their canonical order and the
metrics are returned without recomputation -- so a killed sweep
relaunched with ``--resume <journal>`` re-runs only the missing cells
and produces output *byte-identical* to an uninterrupted run (every
cell is a pure function of its key; see
:mod:`repro.experiments.parallel`).

Failed cells are deliberately **not** journaled: a resume retries them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.errors import RecordFileError
from repro.obs.record import RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import AveragedMetrics

JOURNAL_SCHEMA_VERSION = 1
"""Bump when the journal line layout changes incompatibly."""


class SweepJournal:
    """Append-only JSONL journal of completed experiment cells.

    Opening a journal loads whatever a previous (possibly killed)
    sweep recorded; completed cells are then served from memory via
    :meth:`get` and new completions appended durably via :meth:`record`.

    By default every appended cell is flushed *and fsynced* before
    :meth:`record` returns.  ``flush_every=N`` opts into batched
    durability for very fine-grained sweeps: the flush+fsync pair runs
    once per ``N`` cells (and always on :meth:`close`), widening the
    crash window to at most ``N - 1`` acknowledged cells -- whole-line
    atomicity is unchanged, so a torn final record is still the only
    possible damage and :meth:`_load` still recovers every earlier one.
    """

    def __init__(self, path: str | Path, flush_every: int = 1) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.flush_every = flush_every
        self._cells: dict[str, tuple["AveragedMetrics", list[RunRecord]]] = {}
        self._handle: IO[str] | None = None
        self._pending = 0
        self.loaded = 0
        self.appended = 0
        if self.path.exists():
            self._load()

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
        line = json.dumps(
            {
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "key": key,
                "metrics": dataclasses.asdict(metrics),
                "records": [record.to_dict() for record in records],
            },
            separators=(",", ":"),
            sort_keys=True,
        )
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        # Whole line, then flush + fsync (immediately by default, per
        # batch under flush_every): a crash can truncate the final line
        # but never interleave or lose a *durable* cell.
        self._handle.write(line + "\n")
        self._pending += 1
        if self._pending >= self.flush_every:
            self._make_durable()
        self.appended += 1

    def _make_durable(self) -> None:
        """Flush and fsync the journal handle: the one durability point.

        Every buffered-write path ends here -- per cell by default, per
        batch under ``flush_every``, and unconditionally on
        :meth:`close` -- the same discipline RPL006 checks on the JSONL
        sink.
        """
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._pending = 0

    def close(self) -> None:
        """Make any batched tail durable and release the handle."""
        if self._handle is not None:
            self._make_durable()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        from repro.experiments.runner import AveragedMetrics

        known = {f.name for f in dataclasses.fields(AveragedMetrics)}
        with self.path.open() as handle:
            lines = handle.readlines()
        for number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                data = json.loads(stripped)
                if not isinstance(data, dict):
                    raise TypeError(f"expected a JSON object, got {type(data).__name__}")
                if not isinstance(data["metrics"], dict):
                    raise TypeError("'metrics' is not an object")
                if not (isinstance(data["records"], list)
                        and all(isinstance(r, dict) for r in data["records"])):
                    raise TypeError("'records' is not a list of record objects")
                metrics = AveragedMetrics(
                    **{k: v for k, v in data["metrics"].items() if k in known}
                )
                records = [RunRecord.from_dict(r) for r in data["records"]]
                key = data["key"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                if number == len(lines):
                    # The expected crash signature: a final line cut off
                    # mid-write.  Drop it; the cell simply re-runs.
                    print(
                        f"warning: {self.path}:{number}: discarding truncated "
                        f"final journal line ({type(exc).__name__})",
                        file=sys.stderr,
                    )
                    continue
                raise RecordFileError(
                    f"{self.path}:{number}: corrupt checkpoint line "
                    f"(only the final line may be truncated): {exc}"
                ) from exc
            self._cells[key] = (metrics, records)
        self.loaded = len(self._cells)

    def describe(self) -> str:
        """One status line for sweep drivers to print."""
        return (f"checkpoint {self.path}: {self.loaded} cell(s) resumed, "
                f"{self.appended} appended")


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
