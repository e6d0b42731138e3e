"""Chaos tests for the serve layer: no fault plan may corrupt an answer.

Every test arms a *seeded* fault plan (deterministic firing points) and
checks the serving contract from the acceptance criteria: under any
injected fault the server returns either a correct answer, or a
structured 503/504, or drops the connection -- never a wrong value.
Every 200 response is checked against the direct-search oracle.
"""

import asyncio
import os
import random

import pytest

from repro.chaos.faults import (
    SERVE_FAULT_KINDS,
    STORAGE_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    set_fault_plan,
)
from repro.core.query import SystemConfig
from repro.graphs.generator import generate_dag
from repro.graphs.toposort import reachable_from
from repro.serve.http import ServeClient, ServeServer
from repro.serve.service import ReachabilityService, ServeConfig


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    set_fault_plan(None)
    yield
    os.environ.pop("REPRO_CHAOS", None)
    set_fault_plan(None)


@pytest.fixture
def graph():
    return generate_dag(120, 2.0, 15, seed=5)


def arm(spec):
    plan = FaultPlan.parse(spec)
    set_fault_plan(plan)
    return plan


def oracle(graph, u, v):
    return v != u and v in reachable_from(graph, [u])


def make_service(graph, engine="fast", **overrides):
    return ReachabilityService(
        graph,
        system=SystemConfig(engine=engine),
        config=ServeConfig(**overrides),
    )


async def run_seeded_queries(graph, client, count, seed=0, deadline_ms=None):
    """Fire seeded queries; classify every outcome; fail on a wrong answer.

    Returns ``(answered, structured, aborted)`` counts.  A wrong 200
    answer asserts immediately -- that is the one forbidden outcome.
    """
    rng = random.Random(seed)
    answered = structured = aborted = 0
    for _ in range(count):
        u = rng.randrange(graph.num_nodes)
        v = rng.randrange(graph.num_nodes)
        try:
            status, payload = await client.reachable(u, v, deadline_ms=deadline_ms)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            aborted += 1  # injected cancellation dropped the connection
            await client.close()
            continue
        if status == 200:
            assert payload["reachable"] == oracle(graph, u, v), (
                f"WRONG ANSWER reachable({u}, {v}) under chaos"
            )
            answered += 1
        else:
            assert status in (503, 504)
            assert "error" in payload  # structured, never a traceback
            structured += 1
    return answered, structured, aborted


# -- engine seam: serve-site faults live above the storage boundary ----------


class TestEngineSeam:
    def test_fault_kind_classification_is_total(self):
        assert SERVE_FAULT_KINDS | STORAGE_FAULT_KINDS == frozenset(FaultKind)
        assert not SERVE_FAULT_KINDS & STORAGE_FAULT_KINDS

    def test_fast_engine_accepts_serve_only_plans(self, graph):
        arm("slow-handler,p=1.0,ms=1")

        async def run():
            service = make_service(graph)
            assert await service.build()

        asyncio.run(run())

    def test_fast_engine_still_refuses_storage_faults(self, graph):
        arm("slow-handler,p=0.5;corrupt-read,p=0.1")

        async def run():
            service = make_service(graph)
            assert not await service.build()
            assert "EngineCapabilityError" in (service.last_build_error or "")

        asyncio.run(run())


# -- no plan produces a wrong answer -----------------------------------------


PLANS = [
    "seed=1;slow-handler,p=0.3,ms=2",
    "seed=2;cancelled-request,p=0.2",
    "seed=5;slow-handler,p=0.2,ms=1;cancelled-request,p=0.1",
]


class TestNoWrongAnswers:
    @pytest.mark.parametrize("spec", PLANS)
    def test_every_200_matches_the_oracle(self, graph, spec, tmp_path):
        arm(spec)

        async def run():
            service = make_service(graph)
            assert await service.build()
            uds = str(tmp_path / "chaos.sock")
            server = ServeServer(service, uds=uds)
            await server.start()
            client = ServeClient(uds=uds)
            try:
                answered, structured, aborted = await run_seeded_queries(
                    graph, client, 120, seed=11
                )
            finally:
                await client.close()
                await server.close()
            assert answered > 0  # the service kept working under chaos
            assert answered + structured + aborted == 120

        asyncio.run(run())

    def test_tight_deadlines_under_slow_handlers_yield_504s(self, graph):
        arm("seed=7;slow-handler,p=0.5,ms=50")

        async def run():
            service = make_service(graph)
            assert await service.build()
            server = ServeServer(service)
            await server.start()
            client = ServeClient(port=server.port)
            try:
                answered, structured, aborted = await run_seeded_queries(
                    graph, client, 40, seed=3, deadline_ms=10
                )
            finally:
                await client.close()
                await server.close()
            # Slowed handlers blow the 10ms deadline: structured 504s,
            # correct answers otherwise, nothing else.
            assert structured > 0
            assert aborted == 0
            assert service.telemetry.count("deadline_timeouts") == structured

        asyncio.run(run())


# -- the individual serve fault sites ----------------------------------------


class TestCancelledRequests:
    def test_server_survives_injected_cancellation(self, graph):
        arm("cancelled-request,after=1,times=1")

        async def run():
            service = make_service(graph)
            assert await service.build()
            server = ServeServer(service)
            await server.start()
            client = ServeClient(port=server.port)
            try:
                # First request is cancelled mid-flight; the client's
                # single reconnect lands after the rule is exhausted.
                status, payload = await client.reachable(0, 90)
                assert status == 200
                assert payload["reachable"] == oracle(graph, 0, 90)
                assert service.telemetry.count("cancelled") == 1
                # The server keeps answering on fresh connections.
                status, _ = await client.get("/healthz")
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())


class TestRebuildCrash:
    def test_initial_build_retries_through_transient_crashes(self, graph):
        # Crashes at opportunities 1 and 2; the second *retry* (attempt
        # 3) succeeds -- the shared backoff policy drives the loop.
        arm("index-rebuild-crash,after=1,times=2")

        async def run():
            service = make_service(
                graph, build_retries=2, backoff_base_s=0.0
            )
            assert await service.build()
            assert service.telemetry.count("rebuild_failures") == 2
            assert service.telemetry.count("rebuild_retries") == 2
            assert service.state == "ready"
            answer = await service.reachable(0, 90)
            assert answer["reachable"] == oracle(graph, 0, 90)

        asyncio.run(run())


class TestStorageFaultsViaPagedEngine:
    def test_corrupt_read_during_build_is_retried(self, graph):
        arm("corrupt-read,after=1,times=1")

        async def run():
            service = ReachabilityService(
                graph,
                system=SystemConfig(engine="paged"),
                config=ServeConfig(build_retries=1, backoff_base_s=0.0),
            )
            assert await service.build()
            assert service.telemetry.count("rebuild_failures") == 1
            assert service.last_build_error is None  # cleared by the retry
            answer = await service.reachable(0, 90)
            assert answer["reachable"] == oracle(graph, 0, 90)

        asyncio.run(run())


# -- determinism --------------------------------------------------------------


class TestDeterminism:
    def test_same_plan_same_seed_same_outcome_sequence(self, graph):
        async def one_run():
            set_fault_plan(FaultPlan.parse("seed=9;cancelled-request,p=0.15"))
            service = make_service(graph)
            assert await service.build()
            outcomes = []
            rng = random.Random(21)
            for _ in range(60):
                u = rng.randrange(graph.num_nodes)
                v = rng.randrange(graph.num_nodes)
                try:
                    answer = await service.reachable(u, v)
                except asyncio.CancelledError:
                    outcomes.append("cancelled")
                else:
                    assert answer["reachable"] == oracle(graph, u, v)
                    outcomes.append("ok")
            return outcomes

        first = asyncio.run(one_run())
        second = asyncio.run(one_run())
        assert first == second
        assert "cancelled" in first and "ok" in first

    def test_slow_handler_firing_points_are_seeded(self, graph):
        def firing_pattern():
            plan = FaultPlan.parse("seed=4;slow-handler,p=0.25,ms=1")
            set_fault_plan(plan)

            async def run():
                service = make_service(graph)
                assert await service.build()
                for _ in range(30):
                    await service.reachable(0, 90)
                return plan._rules[FaultKind.SLOW_HANDLER].fired

            return asyncio.run(run())

        assert firing_pattern() == firing_pattern() > 0
