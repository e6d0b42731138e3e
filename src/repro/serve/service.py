"""The resilient reachability query service.

:class:`ReachabilityService` owns one frozen
:class:`~repro.core.chains.ChainIndex` built (through any registered
storage engine) from a graph at startup, and answers
``reachable(u, v)`` / ``successors(u)`` / batch queries from it.  The
robustness layer is the point:

* **Deadlines.**  Every request runs under a deadline (default
  :attr:`ServeConfig.deadline_ms`, per-request override) with
  cooperative cancellation: batch handlers re-check the deadline
  between items, and an expired deadline yields a structured timeout,
  never a half-answer.
* **Bounded admission + load shedding.**  At most
  :attr:`ServeConfig.max_concurrency` requests execute concurrently;
  waiters queue up to :attr:`ServeConfig.max_queue` deep.  Beyond that
  -- or once the estimated wait (queue depth x observed mean latency)
  exceeds :attr:`ServeConfig.max_wait_ms` -- requests are shed
  *immediately* with :class:`OverloadedError` carrying a
  ``Retry-After`` hint, so overload degrades into fast, honest 503s
  instead of collapse.
* **One retried start-up build.**  The index is built once, in a
  worker thread, and a failed attempt is retried with the shared
  deterministic :class:`~repro.serve.retry.BackoffPolicy`.  The graph
  is frozen, so there is nothing to rebuild afterwards: until a build
  succeeds the service is ``unready`` and refuses queries with a
  structured error, and from then on it is ``ready``.

Answers are not memoised: an O(k) lookup in the frozen index costs
less than checking and filling a result cache would, so every query
is answered from the index itself.

Telemetry (latency, queue depth, shed/timeout/build counters) is kept
per-service and exports both as a ``/stats`` snapshot and as a
:class:`~repro.obs.record.RunRecord` for the existing obs pipeline.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from collections.abc import AsyncIterator
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Any

from repro.chaos.faults import FaultKind, active_plan
from repro.core.chains import ChainIndex, build_chain_index
from repro.core.query import SystemConfig
from repro.errors import InjectedRebuildError, ReproError
from repro.graphs.digraph import Digraph
from repro.obs.record import RunRecord, system_config_dict
from repro.serve.retry import BackoffPolicy
from repro.serve.validate import parse_node_id


class OverloadedError(ReproError):
    """The admission queue is full (or too slow): request shed.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    returns; the HTTP layer maps this to ``503`` + ``Retry-After``.
    """

    def __init__(self, detail: str, retry_after: float) -> None:
        super().__init__(detail)
        self.retry_after = retry_after


class IndexUnavailableError(ReproError):
    """No index has ever been built: the service cannot answer yet."""


class InvalidRequestError(ReproError):
    """A request is syntactically or semantically malformed (HTTP 400)."""


class DeadlineExceededError(ReproError):
    """The request's deadline expired before an answer was produced."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the serving robustness layer (all have safe defaults)."""

    deadline_ms: float = 1000.0
    """Default per-request deadline; requests may lower (or raise) it."""

    max_concurrency: int = 8
    """Requests executing concurrently; the rest wait in the queue."""

    max_queue: int = 64
    """Waiting requests beyond which new arrivals are shed outright."""

    max_wait_ms: float = 250.0
    """Shed when queue depth x observed mean latency exceeds this."""

    build_retries: int = 2
    """Retried attempts of the start-up build (on top of the first try)."""

    backoff_base_s: float = 0.05
    """Base of the shared jittered exponential build backoff."""

    backoff_max_s: float = 2.0
    """Cap on any single build backoff sleep."""

    def __post_init__(self) -> None:
        # A "<= 0" check lets NaN through (NaN fails every comparison)
        # and infinity passes any lower bound; either switches its
        # bound off, so both are refused.
        if not (math.isfinite(self.deadline_ms) and self.deadline_ms > 0):
            raise ValueError(
                f"deadline_ms must be finite and > 0, got {self.deadline_ms}"
            )
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if not (math.isfinite(self.max_wait_ms) and self.max_wait_ms >= 0):
            raise ValueError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}"
            )
        if self.build_retries < 0:
            raise ValueError(f"build_retries must be >= 0, got {self.build_retries}")


class ServeTelemetry:
    """Per-service counters and a bounded latency reservoir."""

    COUNTERS = (
        "requests",
        "answered",
        "shed",
        "deadline_timeouts",
        "cancelled",
        "invalid_requests",
        "unavailable",
        "errors",
        "rebuilds",
        "rebuild_failures",
        "rebuild_retries",
    )

    def __init__(self, latency_window: int = 65536) -> None:
        self._counts: dict[str, int] = dict.fromkeys(self.COUNTERS, 0)
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._latency_sum = 0.0
        self.queue_depth_peak = 0

    def bump(self, name: str, n: int = 1) -> None:
        """Increment one named counter (must be pre-declared)."""
        self._counts[name] += n

    def count(self, name: str) -> int:
        """Current value of one named counter."""
        return self._counts[name]

    def observe_latency(self, seconds: float) -> None:
        """Record one served request's latency."""
        window = self._latencies
        if len(window) == window.maxlen:
            self._latency_sum -= window[0]  # the sample append() evicts
        window.append(seconds)
        self._latency_sum += seconds

    def observe_queue_depth(self, depth: int) -> None:
        """Track the high-water mark of the admission queue."""
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def mean_latency(self) -> float:
        """Mean latency over the window in seconds (0.0 before any sample).

        O(1): admission asks for it on every request, so it reads a
        running sum instead of summing the window.
        """
        if not self._latencies:
            return 0.0
        return self._latency_sum / len(self._latencies)

    def latency_percentile(self, pct: float) -> float:
        """The ``pct``-th latency percentile (nearest-rank, seconds)."""
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        rank = max(0, min(len(ordered) - 1, round(pct / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe counters plus latency percentiles (milliseconds)."""
        return {
            **self._counts,
            "latency_samples": len(self._latencies),
            "latency_mean_ms": round(self.mean_latency() * 1e3, 4),
            "latency_p50_ms": round(self.latency_percentile(50) * 1e3, 4),
            "latency_p99_ms": round(self.latency_percentile(99) * 1e3, 4),
            "queue_depth_peak": self.queue_depth_peak,
        }


class ReachabilityService:
    """Queries over a frozen index built once."""

    def __init__(
        self,
        graph: Digraph,
        sources: list[int] | None = None,
        system: SystemConfig | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self.graph = graph
        self.sources = list(sources) if sources is not None else None
        self.system = system if system is not None else SystemConfig()
        self.config = config if config is not None else ServeConfig()
        self.telemetry = ServeTelemetry()
        self.backoff = BackoffPolicy(
            base=self.config.backoff_base_s, max_delay=self.config.backoff_max_s
        )
        self.last_build_error: str | None = None
        self._index: ChainIndex | None = None
        self._build_lock = asyncio.Lock()
        self._semaphore = asyncio.Semaphore(self.config.max_concurrency)
        self._waiting = 0

    # -- index lifecycle ------------------------------------------------------

    @property
    def index(self) -> ChainIndex | None:
        """The frozen index, or ``None`` until a build succeeds."""
        return self._index

    def _build_index_sync(self) -> ChainIndex:
        """One build attempt (runs in a worker thread).

        This is the ``index-rebuild-crash`` chaos site: an armed plan
        can crash any attempt, which is what drives the retry loop in
        the chaos suite.
        """
        plan = active_plan()
        if plan is not None:
            event = plan.fire(FaultKind.REBUILD_CRASH)
            if event is not None:
                raise InjectedRebuildError(
                    f"injected index-rebuild crash "
                    f"(chaos opportunity {event.opportunity})"
                )
        return build_chain_index(self.graph, self.sources, self.system)

    async def build(self) -> bool:
        """One retried build of the index; ``True`` on success.

        Each attempt runs in a worker thread, so the event loop is not
        blocked while the index is built.  Never raises: a failure is
        recorded in :attr:`last_build_error` and leaves the service as
        it was.
        """
        async with self._build_lock:
            loop = asyncio.get_running_loop()
            attempt = 1
            while True:
                try:
                    index = await loop.run_in_executor(None, self._build_index_sync)
                except Exception as exc:
                    self.telemetry.bump("rebuild_failures")
                    self.last_build_error = f"{type(exc).__name__}: {exc}"
                    if attempt > self.config.build_retries:
                        return False
                    attempt += 1
                    self.telemetry.bump("rebuild_retries")
                    await asyncio.sleep(self.backoff.delay(attempt))
                else:
                    self._index = index
                    self.telemetry.bump("rebuilds")
                    self.last_build_error = None
                    return True

    # -- health ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """``ready`` once an index is built, ``unready`` before (``/readyz``)."""
        return "unready" if self._index is None else "ready"

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for an execution slot."""
        return self._waiting

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` body: liveness plus component state."""
        return {
            "status": "ok",
            "state": self.state,
            "index": None
            if self._index is None
            else {
                "k": self._index.k,
                "nodes": len(self._index.vectors),
                "num_nodes": self._index.num_nodes,
                "condensed": self._index.condensed,
            },
            "last_build_error": self.last_build_error,
            "queue_depth": self.queue_depth,
        }

    # -- admission ------------------------------------------------------------

    @asynccontextmanager
    async def admitted(self) -> AsyncIterator[None]:
        """Bounded admission: queue, or shed with a retry hint.

        Shedding is decided *before* waiting -- a doomed request gets
        its 503 in microseconds, which is the whole point of
        backpressure -- using two budgets: absolute queue depth, and
        estimated wait derived from the observed mean latency.
        """
        depth = self._waiting
        self.telemetry.observe_queue_depth(depth)
        would_wait = self._semaphore.locked()
        estimated_wait = (depth + 1) * self.telemetry.mean_latency()
        if would_wait and depth >= self.config.max_queue:
            self.telemetry.bump("shed")
            raise OverloadedError(
                f"admission queue full ({depth} waiting)",
                retry_after=max(0.05, estimated_wait),
            )
        if would_wait and estimated_wait > self.config.max_wait_ms / 1e3:
            self.telemetry.bump("shed")
            raise OverloadedError(
                f"estimated wait {estimated_wait * 1e3:.0f}ms exceeds "
                f"budget {self.config.max_wait_ms:g}ms",
                retry_after=estimated_wait,
            )
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        try:
            yield
        finally:
            self._semaphore.release()

    # -- the query handlers ---------------------------------------------------

    async def _handler_faults(self) -> None:
        """The serve-site chaos faults that hit every request handler."""
        plan = active_plan()
        if plan is None:
            return
        event = plan.fire(FaultKind.SLOW_HANDLER)
        if event is not None:
            await asyncio.sleep(event.params.get("ms", 1.0) / 1e3)
        event = plan.fire(FaultKind.CANCEL_REQUEST)
        if event is not None:
            raise asyncio.CancelledError(
                f"injected request cancellation "
                f"(chaos opportunity {event.opportunity})"
            )

    def _require_index(self) -> ChainIndex:
        index = self._index
        if index is None:
            self.telemetry.bump("unavailable")
            raise IndexUnavailableError(
                "no reachability index is available yet"
                + (f" (last build error: {self.last_build_error})"
                   if self.last_build_error else "")
            )
        return index

    async def reachable(self, u: object, v: object) -> dict[str, Any]:
        """One ``reachable(u, v)`` answer."""
        index = self._require_index()
        src = parse_node_id(u, index.num_nodes, name="u")
        dst = parse_node_id(v, index.num_nodes, name="v")
        await self._handler_faults()
        return {"reachable": bool(index.reachable(src, dst))}

    async def successors(self, u: object) -> dict[str, Any]:
        """All nodes reachable from ``u``."""
        index = self._require_index()
        src = parse_node_id(u, index.num_nodes, name="u")
        await self._handler_faults()
        return {"successors": list(index.successors(src))}

    async def batch(
        self, queries: list[dict[str, Any]], deadline_at: float | None = None
    ) -> dict[str, Any]:
        """Answer a list of queries under one (cooperative) deadline.

        The deadline is re-checked between items, so an over-budget
        batch fails fast with a structured timeout instead of holding
        its execution slot to the bitter end.
        """
        if not isinstance(queries, list):
            raise InvalidRequestError("batch body must carry a 'queries' list")
        results: list[dict[str, Any]] = []
        for position, query in enumerate(queries):
            if deadline_at is not None and time.monotonic() > deadline_at:
                raise DeadlineExceededError(
                    f"deadline expired after {position} of {len(queries)} "
                    f"batch items"
                )
            if position % 64 == 0:
                await asyncio.sleep(0)  # cooperative: let cancellation land
            if not isinstance(query, dict):
                raise InvalidRequestError(
                    f"batch item {position} must be an object, got {query!r}"
                )
            op = query.get("op", "reachable")
            if op == "reachable":
                answer = await self.reachable(query.get("u"), query.get("v"))
                results.append({"reachable": answer["reachable"]})
            elif op == "successors":
                answer = await self.successors(query.get("u"))
                results.append({"successors": answer["successors"]})
            else:
                raise InvalidRequestError(
                    f"batch item {position}: unknown op {op!r} "
                    f"(valid ops: reachable, successors)"
                )
        return {"results": results}

    # -- telemetry export -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` body: telemetry + queue + state."""
        return {
            **self.telemetry.snapshot(),
            "queue_depth": self.queue_depth,
            # No result cache: zeroed counters keep the snapshot's shape
            # for its readers (perfbench/serve_zipf.py --trace 1).
            "cache": {"hits": 0, "misses": 0, "evictions": 0},
            "state": self.state,
        }

    def to_run_record(self, workload: dict[str, Any] | None = None) -> RunRecord:
        """Fold the serve telemetry into the obs RunRecord pipeline.

        The record rides the existing JSONL sinks and compare tooling:
        ``algorithm`` is ``"serve"``, the metrics dict carries the serve
        counters and latency percentiles, and the build cost of the
        current index (when one exists) contributes ``total_io`` so
        engine choice shows up in the trajectory.
        """
        metrics: dict[str, Any] = dict(self.stats())
        index = self._index
        metrics["total_io"] = index.metrics.total_io if index is not None else 0
        if index is not None:
            metrics["index_k"] = index.k
            metrics["index_nodes"] = len(index.vectors)
        return RunRecord(
            algorithm="serve",
            workload=dict(workload or {}),
            query={"kind": "serve", "selectivity": None
                   if self.sources is None else len(self.sources)},
            system=system_config_dict(self.system),
            metrics=metrics,
        )
