"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this package derive from :class:`ReproError`, so
callers can catch the package's failures with a single ``except`` clause
while still distinguishing specific conditions when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class CyclicGraphError(ReproError):
    """A DAG-only operation was applied to a graph containing a cycle.

    The paper studies acyclic graphs, relying on condensation to reduce
    cyclic inputs (see :mod:`repro.graphs.condensation`).  Entry points
    that require acyclic input raise this error instead of silently
    producing wrong answers.
    """


class InvalidNodeError(ReproError):
    """A node identifier is outside the graph's ``0..n-1`` node range."""


class IngestError(ReproError, ValueError):
    """A real-graph edge-list file could not be ingested.

    Raised by :mod:`repro.graphs.ingest` for malformed input (an edge
    line with fewer than two fields, an unreadable payload) with the
    offending line number in the message.  Also a :class:`ValueError`,
    matching :class:`ConfigurationError`'s convention for bad input
    data.
    """


class RecordFileError(ReproError, ValueError):
    """A JSONL run-record file or a sweep journal has a malformed line.

    Raised by :meth:`repro.obs.sink.RecordFile.read` -- behind
    :func:`repro.obs.compare.load_records` and
    :class:`repro.chaos.checkpoint.SweepJournal` -- with ``file:line``
    in the message, for any malformed line but a final one that does
    not parse (the crash-truncation signature, discarded with a
    warning).  A line is malformed when it is not UTF-8, not JSON, or a
    field has the wrong JSON type or schema version, or is a non-finite
    number.  Also a :class:`ValueError`, like :class:`IngestError`.
    """


class BufferPoolError(ReproError):
    """Base class for buffer-manager failures."""


class BufferPoolExhaustedError(BufferPoolError):
    """A page fault occurred while every frame in the pool was pinned.

    The Hybrid algorithm catches this condition to trigger *dynamic
    reblocking* (shrinking its pinned diagonal block, Section 3.2 of the
    paper); any other occurrence indicates a configuration error.
    """


class PageNotPinnedError(BufferPoolError):
    """An unpin was requested for a page that is not currently pinned."""


class StorageError(ReproError):
    """Inconsistent use of the simulated storage layer."""


class UnknownAlgorithmError(ReproError):
    """An algorithm name was not found in the registry."""


class ConfigurationError(ReproError, ValueError):
    """An experiment or system configuration value is invalid.

    Also a :class:`ValueError`, so callers validating workload
    parameters (graph generator inputs, chaos specs, profile names) can
    catch it with the standard library idiom.
    """


class EngineCapabilityError(ConfigurationError):
    """A storage engine was asked for a capability it does not provide.

    Raised eagerly -- at engine construction or attachment time -- so an
    unsupported combination (for example chaos fault injection on the
    in-memory fast engine) fails loudly instead of silently measuring
    nothing.  See :mod:`repro.storage.engine`.
    """


class InvariantViolation(ReproError):
    """An internal accounting invariant of the simulator was broken.

    Raised by the invariant auditor (:mod:`repro.chaos.audit`).  Each
    violation is structured: ``invariant`` names the check that failed
    (e.g. ``pool.residency``, ``store.block-capacity``), ``detail`` is
    the human-readable explanation, and ``context`` carries the
    offending values so failures can be triaged from a log line alone.
    """

    def __init__(self, invariant: str, detail: str, **context: object) -> None:
        self.invariant = invariant
        self.detail = detail
        self.context = context
        suffix = ""
        if context:
            pairs = ", ".join(f"{key}={value!r}" for key, value in sorted(context.items()))
            suffix = f" [{pairs}]"
        super().__init__(f"invariant {invariant!r} violated: {detail}{suffix}")


class InjectedFaultError(ReproError):
    """Base class for failures injected by the chaos fault plane.

    These are deliberate, seeded faults (:mod:`repro.chaos.faults`);
    they signal that the system *detected* the injury, which is the
    behaviour the chaos harness verifies.  They never occur unless a
    fault plan is armed.
    """


class CorruptPageReadError(InjectedFaultError, BufferPoolError):
    """An injected checksum failure on a physical page read."""


class TornWriteError(InjectedFaultError, StorageError):
    """An injected partial (torn) successor-block write."""


class InjectedCrashError(InjectedFaultError):
    """An injected crash at an experiment-unit boundary."""


class InjectedRebuildError(InjectedFaultError):
    """An injected crash inside one attempt of the serve layer's index build.

    Drives the start-up build's retry loop in chaos tests: a transient
    crash must be retried, and a build that keeps crashing must leave
    the service ``unready`` (queries get a structured 503), never
    surface to clients as a wrong answer or a traceback.
    """
