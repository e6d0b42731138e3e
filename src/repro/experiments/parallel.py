"""The experiment engine: every closure run is a deterministic work unit.

The paper's evaluation is a grid of *cells* -- one (algorithm, graph
family, query shape, system configuration) combination per data point
-- and every cell is itself a small grid of *work units*: one run per
(graph seed, source sample), the paper's repetition protocol (Section
5.2).  Every closure run of the harness -- a table or figure cell, a
benchmark cell, each algorithm of ``repro run`` -- is a
:class:`WorkUnit` executed by :func:`execute_unit`, in this process at
``jobs=1`` and across ``jobs`` worker processes otherwise.  The two
produce **bit-identical** aggregates:

* **Seeding contract.**  Nothing in a unit depends on process-global
  random state.  The graph is fully determined by its
  :class:`GraphSpec` (family/custom parameters + seed, hashed through
  the families' ``crc32`` mix), and the source sample is fully
  determined by ``(selectivity, sample_index)`` (or an explicit
  ``source_seed``).  A unit therefore produces the same simulator
  counters no matter which process -- or machine -- executes it.
* **Canonical ordering.**  Units hand their
  :class:`~repro.core.result.ClosureResult` and
  :class:`~repro.obs.record.RunRecord` list back to the engine, which
  emits the records to its one ``sink`` in cell order, then graph seed,
  then sample index, and averages one result per unit with
  :meth:`AveragedMetrics.from_results`.  Worker processes never emit:
  a sink belongs to the engine object in the parent, and only
  :meth:`ExperimentEngine.run_cells` writes to it.
* **Repetitions.**  ``ExperimentEngine(reps=N)`` runs each unit's
  algorithm N times and yields one record per repetition; the
  simulated counters are deterministic, so this only multiplies the
  timing samples.  The aggregate still takes one result per unit.
* **Storage engines.**  A unit's :class:`SystemConfig` carries the
  *resolved* engine name (``paged``/``fast``) by value, so pickled
  units run the driver's engine in every worker with no extra
  environment plumbing (unlike chaos, which re-arms per process from
  ``REPRO_CHAOS`` in :func:`_worker_init`).

Robustness, at every ``jobs``: each run of a unit is bounded by an
optional wall-clock ``timeout`` (SIGALRM where available so pure-Python
hangs are interrupted, a soft post-run deadline check elsewhere), a
failed unit is retried with a jittered exponential backoff, and -- if
it still fails -- yields a structured :class:`UnitError` on
``engine.failures`` while the rest of the grid completes.  A failed
cell renders as ``nan`` in tables/figures and the drivers exit
non-zero.  When a :class:`~repro.chaos.faults.FaultPlan` is armed
(``--chaos``/``REPRO_CHAOS``) each unit is also a crash opportunity,
and any injected fault surfaces as a ``UnitError`` of kind ``"fault"``.

Checkpoint/resume: attach a :class:`~repro.chaos.checkpoint.SweepJournal`
and every completed cell is durably journaled under its deterministic
key; on the next run journaled cells replay their records through the
same emission path and return the stored averages, so a killed sweep
resumed with ``--resume`` produces byte-identical output.

Because the cells of a sweep frequently repeat (Figures 8-12 share one
cell grid and only plot different metrics), the engine also memoises
finished cells by identity: a repeated cell replays its records and
returns the identical :class:`AveragedMetrics` without recomputation.
The memo and the in-process graph cache belong to the engine and are
dropped when it closes.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import os
import signal
import threading
import time
import traceback
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any

from repro.chaos.audit import ENV_AUDIT, audit_mode
from repro.chaos.checkpoint import SweepJournal, cell_key
from repro.chaos.faults import (
    ENV_CHAOS,
    FaultKind,
    FaultPlan,
    active_plan,
    arm_from_env,
    set_fault_plan,
)
from repro.core.base import TwoPhaseAlgorithm
from repro.core.query import SystemConfig
from repro.core.result import ClosureResult
from repro.errors import InjectedCrashError, InjectedFaultError
from repro.experiments.config import ScaleProfile
from repro.experiments.queries import QuerySpec
from repro.experiments.runner import AveragedMetrics
from repro.graphs.datasets import PAPER_NUM_NODES, build_graph
from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag
from repro.obs.record import RunRecord, system_config_dict
from repro.obs.sink import RunSink
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceCollector, TraceEventRecord
from repro.serve.retry import DEFAULT_BACKOFF_BASE, BackoffPolicy
from repro.storage.engine import ENV_ENGINE, default_engine

DEFAULT_RETRIES = 1
"""How many times a failed or timed-out unit is resubmitted."""

DEFAULT_BACKOFF = DEFAULT_BACKOFF_BASE
"""Base delay (seconds) of the jittered exponential retry backoff
(the shared :mod:`repro.serve.retry` default)."""


# ---------------------------------------------------------------------------
# Work descriptions (all frozen, picklable, and -- for GraphSpec -- hashable).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """A deterministic recipe for one input graph.

    Either a paper family at a scale (``family`` set) or a custom
    random DAG (``family`` None).  Equal specs generate equal graphs in
    any process, which is what makes the per-worker graph cache and the
    bit-identical guarantee sound.
    """

    seed: int = 0
    family: str | None = None
    num_nodes: int = PAPER_NUM_NODES
    scale: int = 1
    out_degree: float = 5.0
    locality: int = 100

    @classmethod
    def for_profile(cls, family: str, profile: ScaleProfile, seed: int) -> "GraphSpec":
        """The graph a profile cell (or table row) builds, at ``seed``."""
        return cls(seed=seed, family=family, num_nodes=PAPER_NUM_NODES, scale=profile.scale)

    @classmethod
    def custom(cls, num_nodes: int, out_degree: float, locality: int, seed: int) -> "GraphSpec":
        """A custom random DAG (the CLI's ``--nodes`` workload)."""
        return cls(seed=seed, family=None, num_nodes=num_nodes,
                   out_degree=out_degree, locality=locality)

    def build(self) -> Digraph:
        """Generate the graph (deterministic in ``self`` alone)."""
        if self.family is not None:
            return build_graph(self.family, seed=self.seed,
                               num_nodes=self.num_nodes, scale=self.scale)
        return generate_dag(self.num_nodes, self.out_degree, self.locality, seed=self.seed)


@dataclass(frozen=True)
class Cell:
    """One experimental cell: a data point of a table or figure."""

    algorithm: str
    family: str
    query: QuerySpec
    system: SystemConfig


class Instrument(enum.Enum):
    """The telemetry a unit's runs carry."""

    NONE = "none"
    SPANS = "spans"
    """Span timers on every repetition."""
    TRACE = "trace"
    """Span timers on every repetition, plus the page-event collector on
    the first (the counters are deterministic across repetitions, so one
    event stream describes them all)."""


@dataclass(frozen=True)
class WorkUnit:
    """One run: a cell crossed with one graph seed and source sample."""

    cell_index: int
    algorithm: str
    graph: GraphSpec
    query: QuerySpec
    system: SystemConfig
    graph_seed: int = 0
    sample_index: int = 0
    source_seed: int | None = None
    workload: tuple[tuple[str, Any], ...] = ()
    instrument: Instrument = Instrument.NONE
    """Algorithms that cannot be instrumented (the baselines without
    ``accepts_instrumentation``) run bare whatever this says."""

    def describe(self) -> dict[str, Any]:
        """A JSON-safe identity for error records."""
        return {
            "algorithm": self.algorithm,
            "graph": {f.name: getattr(self.graph, f.name) for f in fields(self.graph)},
            "selectivity": self.query.selectivity,
            "graph_seed": self.graph_seed,
            "sample_index": self.sample_index,
        }


@dataclass(frozen=True)
class UnitError:
    """Structured record of a unit that failed after all retries."""

    kind: str  # "exception" | "timeout" | "fault" | "lost"
    message: str
    attempts: int
    unit: dict[str, Any]

    def render(self) -> str:
        u = self.unit
        where = u.get("graph", {}).get("family") or f"n={u.get('graph', {}).get('num_nodes')}"
        return (f"{u.get('algorithm')}@{where} seed={u.get('graph_seed')} "
                f"sample={u.get('sample_index')}: {self.kind} after "
                f"{self.attempts} attempt(s): {self.message}")


@dataclass
class UnitOutcome:
    """What a unit hands back: a result and its records, or an error."""

    cell_index: int
    graph_seed: int
    sample_index: int
    result: ClosureResult | None = None
    """The last repetition's result (counters are equal across reps)."""
    records: list[RunRecord] = field(default_factory=list)
    """One record per repetition, in repetition order."""
    error: UnitError | None = None
    trace: tuple[TraceEventRecord, ...] | None = None
    """The first repetition's trace events (:attr:`Instrument.TRACE`
    units only); the records are plain tuples, so they cross the
    process boundary intact."""

    @property
    def ok(self) -> bool:
        return self.error is None


def failed_metrics(algorithm: str) -> AveragedMetrics:
    """The nan-filled sentinel a failed cell contributes to a series."""
    values = {
        f.name: math.nan
        for f in fields(AveragedMetrics)
        if f.name not in ("algorithm", "runs")
    }
    return AveragedMetrics(algorithm=algorithm, runs=0, **values)


# ---------------------------------------------------------------------------
# Unit execution (in a worker, or in-process at jobs=1).
# ---------------------------------------------------------------------------

_GRAPH_CACHE: dict[GraphSpec, Digraph] = {}
"""Per-worker graph cache: one generated DAG per spec, shared by every
unit of every cell that names it (algorithms never mutate the input).
In-process units use their engine's own cache instead."""


class UnitTimeout(Exception):
    """Raised inside a unit when a run exceeds its wall-clock budget."""


def _worker_init() -> None:
    """Initialise a worker process.

    The chaos plane re-arms from ``REPRO_CHAOS`` (the drivers export
    the spec before building the pool), so fault opportunities are
    counted per process -- documented behaviour: an ``after=N`` clause
    means "the N-th opportunity *in that worker*".
    """
    _GRAPH_CACHE.clear()
    arm_from_env()


@contextmanager
def arm_planes(chaos: str | None = None, audit: str | None = None,
               engine: str | None = None) -> Iterator[FaultPlan | None]:
    """Export the plane flags, check and arm every ``REPRO_*`` switch.

    Each environment variable is its plane's one switch, read the same
    way by this process and by every pool worker (:func:`_worker_init`);
    ``--chaos``, ``--audit`` and ``run_all --engine`` only export it.  A
    misspelt value raises :class:`~repro.errors.ConfigurationError`
    on entry, before any unit runs.  Yields the armed plan.

    A command holds the scope for its whole run, so a pool started
    inside it inherits the flags.  On exit each variable it set gets
    its old value back (or is unset again), and the plan armed before
    is re-armed: :func:`arm_from_env` does not disarm when the variable
    is unset, so restoring the variable alone would leave this
    command's plan armed in the next one.
    """
    previous_plan = active_plan()
    saved: dict[str, str | None] = {}
    try:
        for value, variable in ((chaos, ENV_CHAOS), (audit, ENV_AUDIT), (engine, ENV_ENGINE)):
            if value:
                saved[variable] = os.environ.get(variable)
                os.environ[variable] = value
        default_engine()
        audit_mode()
        yield arm_from_env()
    finally:
        for variable, old in saved.items():
            if old is None:
                os.environ.pop(variable, None)
            else:
                os.environ[variable] = old
        set_fault_plan(previous_plan)


def _cached_graph(spec: GraphSpec, cache: dict[GraphSpec, Digraph]) -> Digraph:
    graph = cache.get(spec)
    if graph is None:
        graph = cache[spec] = spec.build()
    return graph


_HAS_SIGALRM = hasattr(signal, "SIGALRM")


@contextmanager
def _unit_guard(timeout: float | None) -> Iterator[Callable[[], None]]:
    """Bound a run's wall clock, portably.

    Where SIGALRM exists and we are on the main thread of the process
    (always true for pool workers and for in-process units driven from
    the main thread), pure-Python hangs are interrupted mid-flight.
    Elsewhere (Windows, exotic embedding threads) the guard degrades to
    a *soft deadline*: the yielded check callable raises
    :class:`UnitTimeout` after the fact, so an over-budget run is still
    reported -- it just is not preempted.  Callers must invoke the check
    once the guarded work returns.
    """
    if not timeout or timeout <= 0:
        yield lambda: None
        return

    if _HAS_SIGALRM and threading.current_thread() is threading.main_thread():
        def _on_alarm(signum: int, frame: object) -> None:
            raise UnitTimeout(f"unit exceeded {timeout:g}s")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            yield lambda: None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return

    deadline = time.monotonic() + timeout

    def _check() -> None:
        if time.monotonic() > deadline:
            raise UnitTimeout(f"unit exceeded {timeout:g}s (soft deadline)")

    yield _check


def _make_runner(name: str):
    """Resolve an algorithm or baseline by name (workers import lazily
    so a spawn-started pool works too)."""
    from repro.baselines import BASELINE_NAMES, make_baseline
    from repro.core.registry import make_algorithm

    if name.lower() in BASELINE_NAMES:
        return make_baseline(name)
    return make_algorithm(name)


def execute_unit(unit: WorkUnit, timeout: float | None, reps: int = 1,
                 attempt: int = 1, delay: float = 0.0,
                 graphs: dict[GraphSpec, Digraph] | None = None) -> UnitOutcome:
    """Run one unit's algorithm ``reps`` times; never raises (errors are data).

    Each repetition yields one record and is bounded by ``timeout``.
    ``delay`` is the retry backoff, slept *here* (in the worker for a
    pooled retry) so the parent's scheduling loop never blocks.
    ``graphs`` is the graph cache to build into: the engine's for an
    in-process unit, this worker's :data:`_GRAPH_CACHE` by default.
    """
    if delay > 0:
        time.sleep(delay)
    outcome = UnitOutcome(unit.cell_index, unit.graph_seed, unit.sample_index)
    plan = active_plan()
    if plan is not None:
        plan.drain_events()  # events of a previous unit are not ours
    records: list[RunRecord] = []
    trace = None
    try:
        if plan is not None:
            event = plan.fire(FaultKind.CRASH_UNIT)
            if event is not None:
                raise InjectedCrashError(
                    f"injected crash at the start of unit "
                    f"(chaos opportunity {event.opportunity})"
                )
        graph = _cached_graph(unit.graph, _GRAPH_CACHE if graphs is None else graphs)
        query = unit.query.materialise(graph, unit.sample_index, seed=unit.source_seed)
        algorithm = _make_runner(unit.algorithm)
        # Baselines opt into the seam-level instrumentation (spans,
        # trace events) with `accepts_instrumentation`.
        instrumented = unit.instrument is not Instrument.NONE and (
            isinstance(algorithm, TwoPhaseAlgorithm)
            or getattr(algorithm, "accepts_instrumentation", False)
        )
        workload = dict(unit.workload) or {"nodes": graph.num_nodes, "arcs": graph.num_arcs}
        for rep in range(reps):
            recorder = collector = None
            if instrumented:
                if unit.instrument is Instrument.TRACE and rep == 0:
                    collector = TraceCollector()
                recorder = SpanRecorder(collector=collector)
            with _unit_guard(timeout) as check_deadline:
                start = time.perf_counter()
                if recorder is not None:
                    result = algorithm.run(graph, query, unit.system,
                                           recorder=recorder, collector=collector)
                else:
                    result = algorithm.run(graph, query, unit.system)
                wall_seconds = time.perf_counter() - start
                check_deadline()
            record = RunRecord.from_result(result, workload=workload, recorder=recorder,
                                           collector=collector, wall_seconds=wall_seconds)
            if plan is not None:
                # Non-fatal faults (slow-io, evict-storm) that fired during
                # the run travel with its record, so chaos runs are auditable.
                record.faults = [event.as_dict() for event in plan.drain_events()]
            records.append(record)
            if collector is not None:
                trace = tuple(collector.events)
    except UnitTimeout as exc:
        message = f"{type(exc).__name__}: {exc}"
        outcome.error = UnitError("timeout", message, attempt, unit.describe())
        return outcome
    except InjectedFaultError as exc:
        message = f"{type(exc).__name__}: {exc}"
        outcome.error = UnitError("fault", message, attempt, unit.describe())
        return outcome
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        described = {**unit.describe(), "traceback": traceback.format_exc(limit=5)}
        outcome.error = UnitError("exception", message, attempt, described)
        return outcome
    outcome.result, outcome.records, outcome.trace = result, records, trace
    return outcome


# ---------------------------------------------------------------------------
# Parent side: the engine.
# ---------------------------------------------------------------------------


class ExperimentEngine:
    """Runs work units and experiment cells, in-process or across a pool.

    ``jobs=1`` executes every unit in this process; ``jobs=N`` owns one
    worker pool for the engine's whole lifetime, so the per-worker graph
    caches persist across every table and figure of a ``run_all``
    sweep.  ``reps`` is how many times each unit's algorithm runs.
    ``sink`` receives every record of every cell :meth:`run_cells`
    returns, memo replays included; with ``None`` the records go
    nowhere.  Close (or use as a context manager) to release the
    workers, the cell memo and the in-process graph cache; the sink is
    the caller's to close.
    """

    def __init__(self, jobs: int = 1, timeout: float | None = None,
                 retries: int = DEFAULT_RETRIES, backoff: float = DEFAULT_BACKOFF,
                 checkpoint: SweepJournal | None = None, reps: int = 1,
                 sink: RunSink | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint = checkpoint
        self.reps = reps
        self.sink = sink
        self.failures: list[UnitError] = []
        self._pool: ProcessPoolExecutor | None = None
        self._graphs: dict[GraphSpec, Digraph] = {}
        self._cell_memo: dict[str, tuple[AveragedMetrics, list[RunRecord]]] = {}
        # Fixed-seed jitter: retry delays are deterministic for a given
        # submission order, like everything else about the engine.  The
        # policy is shared with the serve layer's rebuild retries.
        self._backoff_policy = BackoffPolicy(base=backoff)

    def _retry_delay(self, attempt: int) -> float:
        """Jittered exponential backoff before retry ``attempt`` (>= 2)."""
        return self._backoff_policy.delay(attempt)

    # -- lifecycle -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init
            )
        return self._pool

    def close(self) -> None:
        self._graphs.clear()
        self._cell_memo.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- unit-level API (the CLI's runs, Table 3) ----------------------------

    def graph(self, spec: GraphSpec) -> Digraph:
        """``spec``'s graph, from the cache this engine's in-process units
        read (so a caller that needs the graph too builds it only once)."""
        return _cached_graph(spec, self._graphs)

    def map_units(self, units: Sequence[WorkUnit]) -> list[UnitOutcome]:
        """Execute units and return their outcomes in submission order.

        Units run in this process when ``jobs == 1`` and in the pool
        otherwise.  Failed units are retried ``retries`` times;
        permanent failures are returned as outcomes with ``.error`` set
        *and* appended to :attr:`failures`.  Nothing is emitted to
        :attr:`sink`: the caller reads the records off the outcomes.
        """
        if not units:
            return []
        if self.parallel:
            outcomes = self._map_units_pool(units)
        else:
            outcomes = [self._run_in_process(unit) for unit in units]
        for outcome in outcomes:
            if outcome.error is not None:
                self.failures.append(outcome.error)
        return outcomes

    def _run_in_process(self, unit: WorkUnit) -> UnitOutcome:
        outcome = execute_unit(unit, self.timeout, self.reps, graphs=self._graphs)
        attempt = 1
        while outcome.error is not None and attempt <= self.retries:
            attempt += 1
            outcome = execute_unit(unit, self.timeout, self.reps, attempt,
                                   self._retry_delay(attempt), graphs=self._graphs)
        return outcome

    def _map_units_pool(self, units: Sequence[WorkUnit]) -> list[UnitOutcome]:
        pool = self._ensure_pool()
        outcomes: dict[int, UnitOutcome] = {}
        pending = {pool.submit(execute_unit, unit, self.timeout, self.reps): (index, unit, 1)
                   for index, unit in enumerate(units)}
        # The in-worker SIGALRM is the real timeout; the parent-side
        # wait() deadline is a backstop for a worker wedged outside
        # Python bytecode (it cannot reclaim the worker, only report).
        backstop = None
        if self.timeout:
            backstop = (self.timeout * self.reps * (self.retries + 1) + 30.0) * len(units)
        deadline = time.monotonic() + backstop if backstop else None
        while pending:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            done, _ = wait(pending, timeout=remaining, return_when=FIRST_COMPLETED)
            if not done:  # backstop expired: report every outstanding unit
                for index, unit, attempt in pending.values():
                    outcomes[index] = UnitOutcome(
                        unit.cell_index, unit.graph_seed, unit.sample_index,
                        error=UnitError("lost", "worker did not respond before the "
                                        "parent-side deadline", attempt, unit.describe()),
                    )
                break
            for future in done:
                index, unit, attempt = pending.pop(future)
                try:
                    outcome = future.result()
                except Exception as exc:  # BrokenProcessPool and friends
                    outcome = UnitOutcome(
                        unit.cell_index, unit.graph_seed, unit.sample_index,
                        error=UnitError("lost", f"{type(exc).__name__}: {exc}",
                                        attempt, unit.describe()),
                    )
                if outcome.error is not None and attempt <= self.retries:
                    retry = pool.submit(execute_unit, unit, self.timeout, self.reps,
                                        attempt + 1, self._retry_delay(attempt + 1))
                    pending[retry] = (index, unit, attempt + 1)
                    continue
                outcomes[index] = outcome
        return [outcomes[index] for index in range(len(units))]

    # -- cell-level API (tables and figures) ---------------------------------

    def run_cells(self, cells: Sequence[Cell], profile: ScaleProfile) -> list[AveragedMetrics]:
        """Execute one cell grid and return one average per cell, in order.

        Cells already in the memo or the :attr:`checkpoint` journal
        replay; the units of all other cells (each distinct cell once)
        go through :meth:`map_units` together.  Every cell's records are
        then emitted to :attr:`sink` in cell order.  A cell with a
        permanently failed unit yields :func:`failed_metrics` (its
        errors are on :attr:`failures`) and is neither memoised nor
        journaled, so a resume retries it; every other fresh cell is
        memoised and durably appended to the journal.
        """
        keys = [self._cell_key(cell, profile) for cell in cells]
        fresh: dict[str, int] = {}
        units: list[WorkUnit] = []
        for cell_index, (cell, key) in enumerate(zip(cells, keys)):
            if key not in fresh and self._lookup_cell(key) is None:
                fresh[key] = cell_index
                units.extend(self._cell_units(cell_index, cell, profile))

        # map_units keeps submission order, which is canonical order.
        by_cell: dict[int, list[UnitOutcome]] = {index: [] for index in fresh.values()}
        for outcome in self.map_units(units):
            by_cell[outcome.cell_index].append(outcome)
        for key, cell_index in fresh.items():
            outcomes = by_cell[cell_index]
            if all(outcome.ok for outcome in outcomes):
                metrics = AveragedMetrics.from_results(
                    cells[cell_index].algorithm, [outcome.result for outcome in outcomes]
                )
                records = [record for outcome in outcomes for record in outcome.records]
                self._store_cell(key, metrics, records)

        results: list[AveragedMetrics] = []
        for cell, key in zip(cells, keys):
            memo = self._cell_memo.get(key)
            if memo is None:
                results.append(failed_metrics(cell.algorithm))
                continue
            metrics, records = memo
            if self.sink is not None:
                for record in records:
                    self.sink.emit(record)
            results.append(metrics)
        return results

    def _lookup_cell(
        self, key: str
    ) -> tuple[AveragedMetrics, list[RunRecord]] | None:
        memo = self._cell_memo.get(key)
        if memo is None and self.checkpoint is not None:
            memo = self.checkpoint.get(key)
            if memo is not None:
                self._cell_memo[key] = memo
        return memo

    def _store_cell(self, key: str, metrics: AveragedMetrics,
                    records: list[RunRecord]) -> None:
        self._cell_memo[key] = (metrics, records)
        if self.checkpoint is not None:
            self.checkpoint.record(key, metrics, records)

    def _cell_units(self, cell_index: int, cell: Cell,
                    profile: ScaleProfile) -> Iterator[WorkUnit]:
        """The paper's repetition protocol, as independent units: one run
        per (graph seed, source sample), at the profile's counts."""
        workload = (
            ("family", cell.family),
            ("profile", profile.name),
            ("nodes", profile.num_nodes),
        )
        samples = 1 if cell.query.selectivity is None else profile.source_samples
        for graph_seed in range(profile.graphs_per_family):
            for sample_index in range(samples):
                yield WorkUnit(
                    cell_index=cell_index,
                    algorithm=cell.algorithm,
                    graph=GraphSpec.for_profile(cell.family, profile, graph_seed),
                    query=cell.query,
                    system=cell.system,
                    graph_seed=graph_seed,
                    sample_index=sample_index,
                    workload=workload,
                )

    @staticmethod
    def _cell_key(cell: Cell, profile: ScaleProfile) -> str:
        """The cell's canonical identity string (also the journal key)."""
        return cell_key(
            cell.algorithm,
            cell.family,
            cell.query.selectivity,
            system_config_dict(cell.system),
            dataclasses.asdict(profile),
        )
