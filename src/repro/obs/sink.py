"""Run-record sinks: where :class:`~repro.obs.record.RunRecord`\\ s go.

The default everywhere is *no sink*: the experiment engine takes
``sink=None`` and the algorithms build no record at all, so a run's
records go nowhere unless asked for.  Three sinks are provided:

* :class:`JsonlSink` -- appends one JSON line per record to a file;
* :class:`MemorySink` -- collects records in a list (tests, the
  benchmark session summary);
* :class:`NullSink` -- explicit no-op, for code that wants to pass a
  sink object unconditionally.

:class:`JsonlSink` honours the ``REPRO_OBS`` environment variable:
setting it to ``0``/``false``/``off``/``no`` disables emission even
when a sink is constructed, so a pipeline can be silenced without
touching code.  The constructor's ``enabled`` argument overrides the
environment either way.

A process-wide *global sink* can also be installed with
:func:`set_global_sink`; the experiment engine's
:meth:`~repro.experiments.parallel.ExperimentEngine.run_cells` emits to
it in addition to any explicitly passed sink.  The benchmark
suite uses this to collect one record per run without threading a sink
through every table/figure function.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path
from typing import IO, Union

from repro.obs.record import RunRecord

ENV_TOGGLE = "REPRO_OBS"
"""Environment variable that force-disables sinks when falsy."""

_FALSY = {"0", "false", "off", "no"}


def obs_enabled(default: bool = True) -> bool:
    """Whether the environment allows record emission."""
    value = os.environ.get(ENV_TOGGLE)
    if value is None:
        return default
    return value.strip().lower() not in _FALSY


class RunSink:
    """Interface: something that accepts finished run records."""

    def emit(self, record: RunRecord) -> None:
        """Accept one record."""
        raise NotImplementedError

    def emit_many(self, records: Iterable[RunRecord]) -> None:
        """Accept several records, preserving their order.

        Multi-process runs merge through this path: worker processes
        hand their records back to the parent, which replays them here
        in the canonical (serial) order -- sinks therefore never need
        cross-process locking.
        """
        for record in records:
            self.emit(record)

    def close(self) -> None:
        """Release any resources; emitting afterwards is an error."""

    def __enter__(self) -> "RunSink":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class NullSink(RunSink):
    """A sink that discards everything."""

    def emit(self, record: RunRecord) -> None:
        pass


class MemorySink(RunSink):
    """Collects records in memory, in emission order."""

    def __init__(self) -> None:
        self.records: list[RunRecord] = []

    def emit(self, record: RunRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)


class JsonlSink(RunSink):
    """Appends records to a JSONL file, one compact JSON object per line.

    The file is opened lazily on the first emit (append mode, so a
    baseline file can be accumulated over several invocations).  By
    default every record is written as one whole line, flushed, *and
    fsynced*, so a crash -- even a power loss -- can at worst truncate
    the final line, never lose an acknowledged record or interleave two
    (:func:`repro.obs.compare.load_records` tolerates exactly that
    truncated-final-line signature).

    ``flush_every=N`` opts into *batched* durability for high-rate
    emission (bench sweeps with ``--reps``, trace-heavy sessions): the
    flush+fsync pair runs once per ``N`` records instead of per record,
    and always on :meth:`close`.  The crash window widens to at most
    ``N - 1`` acknowledged records; whole-line atomicity is unchanged.
    """

    def __init__(
        self,
        path: str | Path,
        enabled: bool | None = None,
        flush_every: int = 1,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.enabled = obs_enabled() if enabled is None else enabled
        self.flush_every = flush_every
        self._handle: IO[str] | None = None
        self._pending = 0
        self._pid = os.getpid()

    def emit(self, record: RunRecord) -> None:
        if not self.enabled:
            return
        if self._handle is not None and os.getpid() != self._pid:
            # Fork guard: a child that inherited an open handle must not
            # share the parent's file position.  Reopen in this process
            # (append mode keeps concurrent whole-line writes intact).
            self._handle = None
            self._pending = 0
        if self._handle is None:
            self._pid = os.getpid()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a")
        self._handle.write(record.to_json() + "\n")
        self._pending += 1
        if self._pending >= self.flush_every:
            self._make_durable()

    def _make_durable(self) -> None:
        """Flush and fsync the handle: the sink's one durability point.

        Every buffered-write path ends here (per record by default,
        per batch under ``flush_every``, and unconditionally on close),
        which is the discipline the RPL006 lint rule checks.
        """
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._pending = 0

    def close(self) -> None:
        if self._handle is not None:
            self._make_durable()
            self._handle.close()
            self._handle = None


# -- process-wide sink -------------------------------------------------------

_global_sink: RunSink | None = None


def set_global_sink(sink: RunSink | None) -> RunSink | None:
    """Install (or clear, with ``None``) the process-wide sink.

    Returns the previously installed sink so callers can restore it.
    """
    global _global_sink
    previous = _global_sink
    _global_sink = sink
    return previous


def get_global_sink() -> RunSink | None:
    """The currently installed process-wide sink, if any."""
    return _global_sink


def reset_worker_sinks() -> None:
    """Detach inherited sinks inside a forked worker process.

    The parallel experiment engine merges run records in the *parent*
    (in canonical order); a forked worker that kept the inherited
    global sink would emit every record a second time -- into a
    :class:`MemorySink` nobody reads, or worse, into the parent's JSONL
    file out of order.  Worker initialisers call this first.
    """
    set_global_sink(None)
