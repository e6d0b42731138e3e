"""Process-pool experiment engine with deterministic seeding.

The paper's evaluation is a grid of *cells* -- one (algorithm, graph
family, query shape, system configuration) combination per data point
-- and every cell is itself a small grid of *work units*: one run per
(graph seed, source sample).  All of those units are independent, so
this module fans them out across ``--jobs N`` worker processes while
guaranteeing that the aggregated output is **bit-identical** to the
serial execution:

* **Seeding contract.**  Nothing in a unit depends on process-global
  random state.  The graph is fully determined by its
  :class:`GraphSpec` (family/custom parameters + seed, hashed through
  the same ``crc32`` mix as the serial path), and the source sample is
  fully determined by ``(selectivity, sample_index)`` (or an explicit
  ``source_seed``).  A unit therefore produces the same simulator
  counters no matter which process -- or machine -- executes it.
* **Canonical ordering.**  Workers return their
  :class:`~repro.core.result.ClosureResult` and
  :class:`~repro.obs.record.RunRecord` to the parent, which emits the
  records to *its* sinks in the serial order (cell order, then graph
  seed, then sample index) and averages the results with the very same
  :meth:`AveragedMetrics.from_results` call the serial path uses.
  Worker processes never emit to a sink themselves (a forked worker
  inherits the parent's global sink; :func:`_worker_init` detaches it).
* **Storage engines.**  A unit's :class:`SystemConfig` carries the
  *resolved* engine name (``paged``/``fast``) by value, so pickled
  units run the driver's engine in every worker with no extra
  environment plumbing (unlike chaos, which re-arms per process from
  ``REPRO_CHAOS`` in :func:`_worker_init`).
* **Serial fallback.**  ``jobs=1`` -- the default everywhere -- does
  not touch ``multiprocessing`` at all: cells are executed through the
  exact pre-existing :func:`~repro.experiments.runner.average_runs`
  code path.

Robustness: every unit runs under an optional wall-clock ``timeout``
(SIGALRM where available so pure-Python hangs are interrupted, a soft
post-run deadline check elsewhere), is retried with a jittered
exponential backoff, and -- if it still fails -- yields a structured
:class:`UnitError` on ``engine.failures`` while the rest of the grid
completes.  A failed cell renders as ``nan`` in tables/figures and the
drivers exit non-zero.  When a :class:`~repro.chaos.faults.FaultPlan`
is armed (``--chaos``/``REPRO_CHAOS``) each unit is also a crash
opportunity, and any injected fault surfaces as a ``UnitError`` of
kind ``"fault"``.

Checkpoint/resume: attach a :class:`~repro.chaos.checkpoint.SweepJournal`
and every completed cell is durably journaled under its deterministic
key; on the next run journaled cells replay their records through the
same emission path and return the stored averages, so a killed sweep
resumed with ``--resume`` produces byte-identical output.

Because the cells of a sweep frequently repeat (Figures 8-12 share one
cell grid and only plot different metrics), the engine also memoises
finished cells by identity: a repeated cell replays its records and
returns the identical :class:`AveragedMetrics` without recomputation.
The serial path intentionally has no memo -- it is the reference
execution.
"""

from __future__ import annotations

import dataclasses
import math
import signal
import threading
import time
import traceback
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any

from repro.chaos.checkpoint import SweepJournal, cell_key
from repro.chaos.faults import FaultKind, active_plan, arm_from_env
from repro.core.query import SystemConfig
from repro.core.result import ClosureResult
from repro.errors import InjectedCrashError, InjectedFaultError
from repro.experiments.config import ScaleProfile
from repro.experiments.queries import QuerySpec
from repro.experiments.runner import AveragedMetrics, average_runs
from repro.graphs.datasets import PAPER_NUM_NODES, build_graph
from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag
from repro.obs.record import RunRecord, system_config_dict
from repro.obs.sink import RunSink, get_global_sink, reset_worker_sinks
from repro.obs.tracing import TraceCollector, TraceEventRecord
from repro.serve.retry import DEFAULT_BACKOFF_BASE, BackoffPolicy

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
        """The graph a profile cell builds (same as ``profile.build``)."""
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
    collect_trace: bool = False
    """Instrument the run (spans + event collector) exactly like the
    serial ``--trace-out`` path, and ship the trace events back on
    :attr:`UnitOutcome.trace`."""

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
    """What a worker hands back for one unit: a result or an error."""

    cell_index: int
    graph_seed: int
    sample_index: int
    result: ClosureResult | None = None
    record: RunRecord | None = None
    error: UnitError | None = None
    trace: tuple[TraceEventRecord, ...] | None = None
    """The unit's trace events (``collect_trace`` units only); the
    records are plain tuples, so they cross the process boundary intact."""

    @property
    def ok(self) -> bool:
        return self.error is None

    def order_key(self) -> tuple[int, int]:
        return (self.graph_seed, self.sample_index)


def failed_metrics(algorithm: str) -> AveragedMetrics:
    """The nan-filled sentinel a failed cell contributes to a series."""
    values = {
        f.name: math.nan
        for f in fields(AveragedMetrics)
        if f.name not in ("algorithm", "runs")
    }
    return AveragedMetrics(algorithm=algorithm, runs=0, **values)


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------

_GRAPH_CACHE: dict[GraphSpec, Digraph] = {}
"""Per-process graph cache: one generated DAG per spec, shared by every
unit of every cell that names it (algorithms never mutate the input)."""


class UnitTimeout(Exception):
    """Raised inside a worker when a unit exceeds its wall-clock budget."""


def _worker_init() -> None:
    """Initialise a worker process.

    Forked workers inherit the parent's process-wide sink (the
    benchmark suite installs a :class:`MemorySink`, ``run_all`` may
    install a :class:`JsonlSink`); records are merged by the parent in
    canonical order, so emitting in the worker would double-count.

    The chaos plane re-arms from ``REPRO_CHAOS`` (the drivers export
    the spec before building the pool), so fault opportunities are
    counted per process -- documented behaviour: an ``after=N`` clause
    means "the N-th opportunity *in that worker*".
    """
    reset_worker_sinks()
    _GRAPH_CACHE.clear()
    arm_from_env()


def _cached_graph(spec: GraphSpec) -> Digraph:
    graph = _GRAPH_CACHE.get(spec)
    if graph is None:
        graph = _GRAPH_CACHE[spec] = spec.build()
    return graph


_HAS_SIGALRM = hasattr(signal, "SIGALRM")


@contextmanager
def _unit_guard(timeout: float | None) -> Iterator[Callable[[], None]]:
    """Bound a unit's wall clock, portably.

    Where SIGALRM exists and we are on the main thread of the process
    (always true for pool workers and the serial path), pure-Python
    hangs are interrupted mid-flight.  Elsewhere (Windows, exotic
    embedding threads) the guard degrades to a *soft deadline*: the
    yielded check callable raises :class:`UnitTimeout` after the fact,
    so an over-budget unit is still reported -- it just is not
    preempted.  Callers must invoke the check once the guarded work
    returns.
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


def execute_unit(unit: WorkUnit, timeout: float | None, attempt: int = 1,
                 delay: float = 0.0) -> UnitOutcome:
    """Run one unit to completion; never raises (errors are data).

    ``delay`` is the retry backoff, slept *here* (in the worker for a
    pooled retry) so the parent's scheduling loop never blocks.
    """
    if delay > 0:
        time.sleep(delay)
    outcome = UnitOutcome(unit.cell_index, unit.graph_seed, unit.sample_index)
    plan = active_plan()
    if plan is not None:
        plan.drain_events()  # events of a previous unit are not ours
    try:
        if plan is not None:
            event = plan.fire(FaultKind.CRASH_UNIT)
            if event is not None:
                raise InjectedCrashError(
                    f"injected crash at the start of unit "
                    f"(chaos opportunity {event.opportunity})"
                )
        graph = _cached_graph(unit.graph)
        query = unit.query.materialise(graph, unit.sample_index, seed=unit.source_seed)
        algorithm = _make_runner(unit.algorithm)
        recorder = collector = None
        if unit.collect_trace:
            # Mirror the serial --trace-out instrumentation exactly, so
            # a --jobs N trace merges to the same event stream.
            from repro.core.base import TwoPhaseAlgorithm
            from repro.obs.spans import SpanRecorder

            instrumentable = isinstance(algorithm, TwoPhaseAlgorithm) or getattr(
                algorithm, "accepts_instrumentation", False
            )
            if instrumentable:
                collector = TraceCollector(label=unit.algorithm)
                recorder = SpanRecorder(collector=collector)
        with _unit_guard(timeout) as check_deadline:
            start = time.perf_counter()
            if collector is not None:
                result = algorithm.run(graph, query, unit.system,
                                       recorder=recorder, collector=collector)
            else:
                result = algorithm.run(graph, query, unit.system)
            wall_seconds = time.perf_counter() - start
            check_deadline()
    except UnitTimeout as exc:
        outcome.error = UnitError("timeout", str(exc), attempt, unit.describe())
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
    workload = dict(unit.workload) or {"nodes": graph.num_nodes, "arcs": graph.num_arcs}
    outcome.result = result
    outcome.record = RunRecord.from_result(result, workload=workload, recorder=recorder,
                                           collector=collector, wall_seconds=wall_seconds)
    if collector is not None:
        outcome.trace = tuple(collector.events)
    if plan is not None:
        # Non-fatal faults (slow-io, evict-storm) that fired during the
        # run travel with the record, so chaos runs are auditable.
        outcome.record.faults = [event.as_dict() for event in plan.drain_events()]
    return outcome


# ---------------------------------------------------------------------------
# Parent side: the engine.
# ---------------------------------------------------------------------------


class ExperimentEngine:
    """Runs experiment cells, serially or across a process pool.

    One engine owns one worker pool for its whole lifetime, so the
    per-worker graph caches persist across every table and figure of a
    ``run_all`` sweep.  Close (or use as a context manager) to release
    the workers.
    """

    def __init__(self, jobs: int = 1, timeout: float | None = None,
                 retries: int = DEFAULT_RETRIES, backoff: float = DEFAULT_BACKOFF,
                 checkpoint: SweepJournal | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint = checkpoint
        self.failures: list[UnitError] = []
        self._pool: ProcessPoolExecutor | None = None
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
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- unit-level API (the CLI's fan-out) ----------------------------------

    def map_units(self, units: Sequence[WorkUnit]) -> list[UnitOutcome]:
        """Execute units (in parallel when ``jobs > 1``) and return their
        outcomes in submission order.  Failed units are retried
        ``retries`` times; permanent failures are returned as outcomes
        with ``.error`` set *and* appended to :attr:`failures`.
        """
        if not units:
            return []
        if not self.parallel:
            outcomes = [self._run_with_retry_serial(unit) for unit in units]
        else:
            outcomes = self._map_units_pool(units)
        for outcome in outcomes:
            if outcome.error is not None:
                self.failures.append(outcome.error)
        return outcomes

    def _run_with_retry_serial(self, unit: WorkUnit) -> UnitOutcome:
        outcome = execute_unit(unit, self.timeout)
        attempt = 1
        while outcome.error is not None and attempt <= self.retries:
            attempt += 1
            outcome = execute_unit(unit, self.timeout, attempt=attempt,
                                   delay=self._retry_delay(attempt))
        return outcome

    def _map_units_pool(self, units: Sequence[WorkUnit]) -> list[UnitOutcome]:
        pool = self._ensure_pool()
        outcomes: dict[int, UnitOutcome] = {}
        pending = {pool.submit(execute_unit, unit, self.timeout): (index, unit, 1)
                   for index, unit in enumerate(units)}
        # The in-worker SIGALRM is the real timeout; the parent-side
        # wait() deadline is a backstop for a worker wedged outside
        # Python bytecode (it cannot reclaim the worker, only report).
        backstop = None
        if self.timeout:
            backstop = (self.timeout * (self.retries + 1) + 30.0) * len(units)
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
                    retry = pool.submit(execute_unit, unit, self.timeout,
                                        attempt + 1, self._retry_delay(attempt + 1))
                    pending[retry] = (index, unit, attempt + 1)
                    continue
                outcomes[index] = outcome
        return [outcomes[index] for index in range(len(units))]

    # -- cell-level API (tables and figures) ---------------------------------

    def run_cells(
        self,
        cells: Sequence[Cell],
        profile: ScaleProfile,
        sink: RunSink | None = None,
    ) -> list[AveragedMetrics]:
        """Execute one cell grid and return one average per cell, in order.

        ``jobs == 1`` delegates each cell to the unchanged serial
        :func:`~repro.experiments.runner.average_runs`.  Otherwise all
        units of all (unmemoised) cells are fanned out at once and the
        aggregation replays the serial order exactly.  A cell with a
        permanently failed unit yields :func:`failed_metrics` (its
        errors are on :attr:`failures`).

        With a :attr:`checkpoint` journal attached, cells already in
        the journal replay instead of re-running, and every freshly
        completed cell is durably appended; failed cells are never
        journaled, so a resume retries them.
        """
        if not self.parallel:
            if self.checkpoint is None:
                return [
                    average_runs(cell.algorithm, cell.family, cell.query, profile,
                                 cell.system, sink=sink)
                    for cell in cells
                ]
            return [self._run_cell_serial_journaled(cell, profile, sink)
                    for cell in cells]
        results: list[AveragedMetrics | None] = [None] * len(cells)
        units: list[WorkUnit] = []
        fresh: dict[int, Cell] = {}
        for cell_index, cell in enumerate(cells):
            memo = self._lookup_cell(self._cell_key(cell, profile))
            if memo is not None:
                metrics, records = memo
                self._emit(records, sink)
                results[cell_index] = metrics
                continue
            fresh[cell_index] = cell
            units.extend(self._cell_units(cell_index, cell, profile))

        by_cell: dict[int, list[UnitOutcome]] = {index: [] for index in fresh}
        for outcome in self.map_units(units):
            by_cell[outcome.cell_index].append(outcome)

        for cell_index, cell in fresh.items():
            outcomes = sorted(by_cell[cell_index], key=UnitOutcome.order_key)
            if any(not outcome.ok for outcome in outcomes):
                results[cell_index] = failed_metrics(cell.algorithm)
                continue
            records = [outcome.record for outcome in outcomes]
            self._emit(records, sink)
            metrics = AveragedMetrics.from_results(
                cell.algorithm, [outcome.result for outcome in outcomes]
            )
            self._store_cell(self._cell_key(cell, profile), metrics, records)
            results[cell_index] = metrics
        return results  # type: ignore[return-value]

    def _run_cell_serial_journaled(
        self, cell: Cell, profile: ScaleProfile, sink: RunSink | None
    ) -> AveragedMetrics:
        """One serial cell with checkpoint replay/append.

        A journaled cell replays its records through :meth:`_emit`
        (sink plus global sink -- the same two destinations
        ``run_single`` writes), so a resumed sweep's output is
        byte-identical to an uninterrupted one.  Fresh cells run
        through the unchanged serial path with a tee sink capturing
        the records for the journal.
        """
        key = self._cell_key(cell, profile)
        cached = self.checkpoint.get(key) if self.checkpoint is not None else None
        if cached is not None:
            metrics, records = cached
            self._emit(records, sink)
            return metrics
        # run_single also emits to the process-wide sink; when that is
        # the very sink we were given, forwarding from the tee would
        # double-emit, so the tee only captures.
        forward = sink if sink is not get_global_sink() else None
        capture = _CaptureSink(forward)
        metrics = average_runs(cell.algorithm, cell.family, cell.query, profile,
                               cell.system, sink=capture)
        if self.checkpoint is not None and metrics.runs > 0:
            self.checkpoint.record(key, metrics, capture.records)
        return metrics

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
        """The serial repetition protocol, as independent units."""
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

    @staticmethod
    def _emit(records: Sequence[RunRecord], sink: RunSink | None) -> None:
        """Mirror ``run_single``'s double emission in the parent."""
        global_sink = get_global_sink()
        for record in records:
            if sink is not None:
                sink.emit(record)
            if global_sink is not None and global_sink is not sink:
                global_sink.emit(record)


class _CaptureSink:
    """Tee sink: forwards to the real sink while keeping the records.

    Used by the journaled serial path, which needs the records of a
    cell to persist them -- while the downstream sink still sees every
    record exactly when and where it otherwise would.
    """

    def __init__(self, forward: RunSink | None) -> None:
        self.forward = forward
        self.records: list[RunRecord] = []

    def emit(self, record: RunRecord) -> None:
        self.records.append(record)
        if self.forward is not None:
            self.forward.emit(record)


# ---------------------------------------------------------------------------
# The process-wide active engine (what tables/figures route through).
# ---------------------------------------------------------------------------

_SERIAL = ExperimentEngine(jobs=1)
_active: ExperimentEngine | None = None


def get_engine() -> ExperimentEngine:
    """The active engine; a serial (jobs=1) engine when none is set."""
    return _active if _active is not None else _SERIAL


def set_engine(engine: ExperimentEngine | None) -> ExperimentEngine | None:
    """Install (or clear) the process-wide engine; returns the previous."""
    global _active
    previous = _active
    _active = engine
    return previous


@contextmanager
def use_engine(engine: ExperimentEngine) -> Iterator[ExperimentEngine]:
    """Scope an engine as the process-wide active one."""
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)


def run_cells(
    cells: Sequence[Cell],
    profile: ScaleProfile,
    sink: RunSink | None = None,
) -> list[AveragedMetrics]:
    """Run a cell grid through the active engine (serial by default)."""
    return get_engine().run_cells(cells, profile, sink=sink)
