"""Run-record sinks, and the one durable record file behind them.

The default everywhere is *no sink*: an
:class:`~repro.experiments.parallel.ExperimentEngine` is built with
``sink=None`` and the algorithms build no record at all, so a run's
records go nowhere unless asked for.  An engine given a sink emits
every record of every cell it runs to it, in canonical order; there is
no process-wide sink.  Two sinks are provided:

* :class:`JsonlSink` -- appends one JSON line per record to a
  :class:`RecordFile`;
* :class:`MemorySink` -- collects records in a list (tests, the
  benchmark session summary).

:class:`RecordFile` is the single durable JSONL file of the package:
the run-record file above and the sweep journal of
:class:`~repro.chaos.checkpoint.SweepJournal` both append through it,
and :func:`~repro.obs.compare.load_records` and the journal both read
through it.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import IO, Any, TypeVar

from repro.errors import RecordFileError
from repro.obs.record import RunRecord

T = TypeVar("T")


class RecordFile:
    """An append-only file of JSON lines, written durably, read by type.

    **Writing.**  The file is opened lazily on the first
    :meth:`append`, in append mode, so a baseline file can be
    accumulated over several invocations.  Each object is written as
    one compact, key-sorted JSON line, then flushed *and fsynced*
    before :meth:`append` returns: a crash -- even a power loss -- can
    at worst truncate the final line, never lose an acknowledged line
    or interleave two.  When this object's :meth:`read` discarded a cut
    final line, the first append drops it from the file, and a final
    line that parsed but has no newline gets one, so a new line never
    joins an old one.

    **Reading.**  :meth:`read` decodes each line on its own, from
    bytes, with the caller's ``decode`` function, which checks every
    field's type.  A line that is not UTF-8, not JSON (including JSON
    nested too deeply to parse) or refused by ``decode`` is malformed
    and raises :class:`~repro.errors.RecordFileError` naming
    ``file:line``, with one exception: a *final* line that does not
    parse is the signature of a crash mid-append and is discarded with
    a warning.  A whole line that parses is never taken for a cut one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None
        self._pid = os.getpid()
        self._cut_at: int | None = None  # where read() found a cut final line
        self._unended = False  # read() found a whole final line with no newline

    def append(self, obj: Any) -> None:
        """Write ``obj`` as one JSON line and make it durable."""
        if self._handle is not None and os.getpid() != self._pid:
            # Fork guard: a child that inherited an open handle must not
            # share the parent's file position.  Reopen in this process
            # (append mode keeps concurrent whole-line writes intact).
            self._handle = None
        if self._handle is None:
            self._pid = os.getpid()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._cut_at is not None:
                os.truncate(self.path, self._cut_at)
            self._handle = self.path.open("a")
            if self._unended:
                self._handle.write("\n")
            self._cut_at, self._unended = None, False
        line = json.dumps(obj, separators=(",", ":"), sort_keys=True, allow_nan=False)
        self._handle.write(line + "\n")
        self._make_durable(self._handle)

    @staticmethod
    def _make_durable(handle: IO[str]) -> None:
        """Flush and fsync ``handle``: the one durability point.

        Every line written to a record file or a sweep journal passes
        through here before :meth:`append` returns, which is the
        discipline the RPL006 lint rule checks.
        """
        handle.flush()
        os.fsync(handle.fileno())

    def close(self) -> None:
        """Release the handle (every appended line is already durable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def read(self, decode: Callable[[Any], T], kind: str, refusal: str) -> list[T]:
        """Decode every line of the file, in order.

        ``kind`` names the line in the truncation warning and
        ``refusal`` starts the :class:`~repro.errors.RecordFileError`
        message of a malformed line that is not the last.
        """
        data = self.path.read_bytes()
        lines = data.splitlines(keepends=True)
        self._unended = not data.endswith((b"\n", b"\r")) and bool(data.strip())
        decoded: list[T] = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                if number == len(lines):
                    print(
                        f"warning: {self.path}:{number}: discarding truncated "
                        f"final {kind} line ({type(exc).__name__})",
                        file=sys.stderr,
                    )
                    self._cut_at, self._unended = len(data) - len(line), False
                    continue
                raise RecordFileError(f"{self.path}:{number}: {refusal}: {exc}") from exc
            try:
                decoded.append(decode(obj))
            except (ValueError, TypeError) as exc:
                raise RecordFileError(f"{self.path}:{number}: {refusal}: {exc}") from exc
        return decoded


class RunSink:
    """Interface: something that accepts finished run records."""

    def emit(self, record: RunRecord) -> None:
        """Accept one record."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; emitting afterwards is an error."""

    def __enter__(self) -> "RunSink":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class MemorySink(RunSink):
    """Collects records in memory, in emission order."""

    def __init__(self) -> None:
        self.records: list[RunRecord] = []

    def emit(self, record: RunRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)


class JsonlSink(RunSink):
    """Appends records to a :class:`RecordFile`, one JSON line each.

    Each line equals :meth:`RunRecord.to_json` and is durable when
    :meth:`emit` returns; :func:`repro.obs.compare.load_records` reads
    the file back.
    """

    def __init__(self, path: str | Path) -> None:
        self._file = RecordFile(path)

    def emit(self, record: RunRecord) -> None:
        self._file.append(record.to_dict())

    def close(self) -> None:
        self._file.close()
