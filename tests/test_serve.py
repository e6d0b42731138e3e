"""Tests for the resilient serve layer (no chaos; see test_serve_chaos).

Covers the shared backoff policy (including behaviour-identity with the
experiment engine's old inline implementation), the circuit breaker,
request validation, the latency window behind admission, the service's
admission/deadline/degradation behaviour, and the HTTP front end over
both TCP and UNIX-domain sockets, including malformed raw requests.
"""

import asyncio
import json
import random

import pytest

from repro.core.query import SystemConfig
from repro.errors import InvalidNodeError
from repro.experiments.parallel import DEFAULT_BACKOFF, ExperimentEngine
from repro.graphs.generator import generate_dag
from repro.graphs.toposort import reachable_from
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.http import MAX_HEADER_LINES, MAX_REQUEST_BYTES, ServeClient, ServeServer
from repro.serve.retry import (
    DEFAULT_BACKOFF_SEED,
    BackoffPolicy,
    retry_call,
)
from repro.serve.service import (
    IndexUnavailableError,
    InvalidRequestError,
    OverloadedError,
    ReachabilityService,
    ServeConfig,
    ServeTelemetry,
)
from repro.serve.validate import parse_node_id, parse_probe


@pytest.fixture
def graph():
    return generate_dag(120, 2.0, 15, seed=5)


def make_service(graph, **overrides):
    config = ServeConfig(**overrides) if overrides else ServeConfig()
    return ReachabilityService(
        graph, system=SystemConfig(engine="fast"), config=config
    )


async def built_service(graph, **overrides):
    service = make_service(graph, **overrides)
    assert await service.build()
    return service


# -- retry policy -------------------------------------------------------------


class TestBackoffPolicy:
    def test_matches_the_historical_inline_formula(self):
        """The extracted policy reproduces parallel.py's old delays exactly."""
        policy = BackoffPolicy(base=0.05)
        rng = random.Random(DEFAULT_BACKOFF_SEED)
        for attempt in range(2, 12):
            expected = 0.05 * (2 ** (attempt - 2)) * (0.5 + rng.random())
            assert policy.delay(attempt) == pytest.approx(expected)

    def test_experiment_engine_uses_the_shared_policy(self):
        engine = ExperimentEngine(backoff=DEFAULT_BACKOFF)
        reference = BackoffPolicy(base=DEFAULT_BACKOFF)
        got = [engine._retry_delay(a) for a in (2, 3, 4)]
        want = [reference.delay(a) for a in (2, 3, 4)]
        assert got == want

    def test_zero_base_sleeps_nothing_and_draws_nothing(self):
        policy = BackoffPolicy(base=0.0)
        assert policy.delay(2) == 0.0
        # The jitter stream must be untouched: a later re-seed check.
        assert policy._rng.random() == random.Random(DEFAULT_BACKOFF_SEED).random()

    def test_delays_grow_exponentially_and_respect_the_cap(self):
        policy = BackoffPolicy(base=1.0, max_delay=3.0)
        delays = [policy.delay(a) for a in range(2, 9)]
        assert all(d <= 3.0 for d in delays)
        uncapped = BackoffPolicy(base=1.0)
        raw = [uncapped.delay(a) for a in range(2, 9)]
        assert raw[-1] > raw[0]  # exponential growth before the cap

    def test_deterministic_across_instances(self):
        a = BackoffPolicy(base=0.1)
        b = BackoffPolicy(base=0.1)
        assert [a.delay(i) for i in (2, 3, 4)] == [b.delay(i) for i in (2, 3, 4)]

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(max_delay=-1.0)


class TestRetryCall:
    def test_returns_after_transient_failures(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        result = retry_call(
            flaky, retries=3, policy=BackoffPolicy(base=0.01),
            sleep=slept.append,
        )
        assert result == "done"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_exhausted_retries_propagate_the_real_error(self):
        def doomed():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            retry_call(doomed, retries=2, policy=BackoffPolicy(base=0),
                       sleep=lambda _s: None)

    def test_retry_on_filters_exception_types(self):
        def wrong_kind():
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            retry_call(wrong_kind, retries=5, policy=BackoffPolicy(base=0),
                       retry_on=OSError, sleep=lambda _s: None)

    def test_on_retry_observes_each_attempt(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise OSError("again")
            return 42

        retry_call(flaky, retries=5, policy=BackoffPolicy(base=0),
                   sleep=lambda _s: None,
                   on_retry=lambda attempt, exc: seen.append(attempt))
        assert seen == [2, 3]


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, reset_after=10.0, clock=lambda: 0.0)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_half_opens_and_probe_outcome_decides(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_after=5.0, clock=lambda: now[0])
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        now[0] = 5.0
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()
        # Failed probe re-opens immediately and restarts the cool-down.
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        now[0] = 10.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_snapshot_is_json_safe(self):
        breaker = CircuitBreaker()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["failures"] == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after=-1.0)


# -- validation ---------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("raw,expected", [(0, 0), (7, 7), ("7", 7), (" 7", 7)])
    def test_accepts_ints_and_int_strings(self, raw, expected):
        assert parse_node_id(raw, 10) == expected

    @pytest.mark.parametrize("raw", ["abc", "1.5", 1.5, None, True, [], -1, 10, "10"])
    def test_rejects_malformed_and_out_of_range(self, raw):
        with pytest.raises(InvalidNodeError):
            parse_node_id(raw, 10)

    def test_error_names_the_parameter_and_range(self):
        with pytest.raises(InvalidNodeError, match=r"v=99 .* 0\.\.9"):
            parse_node_id(99, 10, name="v")

    def test_parse_probe(self):
        assert parse_probe("3:4", 10) == (3, 4)
        with pytest.raises(InvalidNodeError, match="malformed"):
            parse_probe("34", 10)
        with pytest.raises(InvalidNodeError):
            parse_probe("3:99", 10)


# -- telemetry ----------------------------------------------------------------


class TestServeTelemetry:
    def test_mean_latency_is_the_mean_of_the_window(self):
        telemetry = ServeTelemetry(latency_window=4)
        assert telemetry.mean_latency() == 0.0
        samples = [0.001 * (i + 1) ** 1.5 for i in range(10)]
        for sample in samples:
            telemetry.observe_latency(sample)
        assert telemetry.mean_latency() == pytest.approx(
            sum(samples[-4:]) / 4, rel=0, abs=1e-12
        )


# -- the service --------------------------------------------------------------


class TestReachabilityService:
    def test_answers_match_the_oracle(self, graph):
        async def run():
            service = await built_service(graph)
            rng = random.Random(0)
            for _ in range(100):
                u = rng.randrange(graph.num_nodes)
                v = rng.randrange(graph.num_nodes)
                answer = await service.reachable(u, v)
                expected = v != u and v in reachable_from(graph, [u])
                assert answer["reachable"] == expected
                assert answer["degraded"] is False
            successors = await service.successors(5)
            assert sorted(successors["successors"]) == sorted(
                n for n in reachable_from(graph, [5]) if n != 5
            )

        asyncio.run(run())

    def test_engine_parity(self, graph):
        async def run():
            fast = await built_service(graph)
            paged = ReachabilityService(graph, system=SystemConfig(engine="paged"))
            assert await paged.build()
            for u, v in [(0, 50), (3, 80), (10, 11), (100, 5)]:
                assert (await fast.reachable(u, v)) == (await paged.reachable(u, v))

        asyncio.run(run())

    def test_unbuilt_service_reports_unavailable(self, graph):
        async def run():
            service = make_service(graph)
            assert service.state == "unready"
            with pytest.raises(IndexUnavailableError):
                await service.reachable(0, 1)

        asyncio.run(run())

    def test_invalid_node_ids_raise_structured_errors(self, graph):
        async def run():
            service = await built_service(graph)
            with pytest.raises(InvalidNodeError, match="u must be an integer"):
                await service.reachable("abc", 1)
            with pytest.raises(InvalidNodeError, match="outside the graph's range"):
                await service.successors(10_000)

        asyncio.run(run())

    def test_batch_answers_and_validates(self, graph):
        async def run():
            service = await built_service(graph)
            payload = await service.batch(
                [
                    {"op": "reachable", "u": 0, "v": 90},
                    {"op": "successors", "u": 4},
                ]
            )
            expected = 90 in reachable_from(graph, [0])
            assert payload["results"][0] == {"reachable": expected}
            assert set(payload["results"][1]) == {"successors"}
            with pytest.raises(InvalidRequestError, match="unknown op"):
                await service.batch([{"op": "teleport", "u": 0}])

        asyncio.run(run())

    def test_admission_sheds_when_the_queue_is_full(self, graph):
        async def run():
            service = await built_service(graph, max_concurrency=1, max_queue=0)
            async with service.admitted():
                with pytest.raises(OverloadedError) as info:
                    async with service.admitted():
                        pass  # pragma: no cover
            assert info.value.retry_after >= 0.05
            assert service.telemetry.count("shed") == 1

        asyncio.run(run())

    def test_repeated_queries_leave_the_cache_counters_at_zero(self, graph):
        """No result cache: /stats keeps its zeroed ``cache`` counters."""

        async def run():
            service = await built_service(graph)
            await service.reachable(0, 90)
            await service.reachable(0, 90)
            assert service.stats()["cache"] == {"hits": 0, "misses": 0, "evictions": 0}

        asyncio.run(run())

    def test_breaker_trip_degrades_then_recovery_restores(self, graph):
        """ready -> degraded (breaker open, last-good index) -> ready."""
        now = [0.0]
        config = ServeConfig(
            breaker_threshold=2, breaker_reset_s=5.0, build_retries=0,
            backoff_base_s=0.0,
        )
        service = ReachabilityService(
            graph, system=SystemConfig(engine="fast"), config=config,
            clock=lambda: now[0],
        )

        async def run():
            assert await service.build()
            assert service.state == "ready"
            baseline = await service.reachable(0, 90)

            # Break the build path: refreshes fail, the breaker trips.
            original = service._build_index_sync
            service._build_index_sync = lambda: (_ for _ in ()).throw(
                RuntimeError("storage down")
            )
            assert not await service.build()
            assert not await service.build()
            assert service.breaker.state is BreakerState.OPEN
            assert service.state == "degraded"

            # Stale-while-revalidate: the last-good index still answers,
            # flagged degraded, and the value is unchanged.
            answer = await service.reachable(0, 90)
            assert answer["reachable"] == baseline["reachable"]
            assert answer["degraded"] is True

            # While open, rebuild attempts are refused without storage work.
            assert not await service.build()
            assert service.telemetry.count("breaker_refusals") == 1

            # Cool-down elapses; the healed build path closes the breaker.
            service._build_index_sync = original
            now[0] = 5.0
            assert service.breaker.state is BreakerState.HALF_OPEN
            assert await service.build()
            assert service.state == "ready"
            assert (await service.reachable(0, 90))["degraded"] is False

        asyncio.run(run())

    def test_build_retries_use_the_backoff_policy(self, graph):
        async def run():
            attempts = []
            service = await_none = None
            service = make_service(
                graph, build_retries=2, backoff_base_s=0.0, breaker_threshold=10
            )
            original = service._build_index_sync

            def flaky():
                attempts.append(1)
                if len(attempts) < 3:
                    raise RuntimeError("transient storage fault")
                return original()

            service._build_index_sync = flaky
            assert await service.build()
            assert len(attempts) == 3
            assert service.telemetry.count("rebuild_retries") == 2
            assert service.telemetry.count("rebuild_failures") == 2
            assert service.state == "ready"
            assert await_none is None

        asyncio.run(run())

    def test_run_record_export(self, graph):
        async def run():
            service = await built_service(graph)
            await service.reachable(0, 1)
            record = service.to_run_record({"nodes": graph.num_nodes})
            assert record.algorithm == "serve"
            assert record.metrics["index_k"] == service.index.k
            assert "latency_p99_ms" in record.metrics
            assert record.workload == {"nodes": graph.num_nodes}

        asyncio.run(run())


# -- the HTTP front end -------------------------------------------------------


async def start_server(graph, uds=None, **overrides):
    service = await built_service(graph, **overrides)
    server = ServeServer(service, uds=uds) if uds else ServeServer(service)
    await server.start()
    client = ServeClient(uds=uds) if uds else ServeClient(port=server.port)
    return service, server, client


class TestHTTPServer:
    def test_tcp_round_trip_matches_oracle(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                rng = random.Random(1)
                for _ in range(25):
                    u = rng.randrange(graph.num_nodes)
                    v = rng.randrange(graph.num_nodes)
                    status, payload = await client.reachable(u, v)
                    assert status == 200
                    expected = v != u and v in reachable_from(graph, [u])
                    assert payload["reachable"] == expected
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_uds_round_trip_and_health(self, graph, tmp_path):
        async def run():
            uds = str(tmp_path / "serve.sock")
            service, server, client = await start_server(graph, uds=uds)
            try:
                status, payload = await client.successors(3)
                assert status == 200
                assert sorted(payload["successors"]) == sorted(
                    n for n in reachable_from(graph, [3]) if n != 3
                )
                status, health = await client.get("/healthz")
                assert status == 200 and health["status"] == "ok"
                assert health["index"]["num_nodes"] == graph.num_nodes
                status, ready = await client.get("/readyz")
                assert status == 200 and ready["state"] == "ready"
                status, stats = await client.get("/stats")
                assert status == 200 and stats["answered"] >= 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_bad_requests_get_structured_400s(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                status, _, payload = await client.request(
                    "GET", "/reachable?u=abc&v=1"
                )
                assert status == 400 and "integer node id" in payload["error"]
                status, _, payload = await client.request(
                    "GET", f"/reachable?u=0&v={graph.num_nodes}"
                )
                assert status == 400 and "range" in payload["error"]
                status, _, payload = await client.request("GET", "/nope")
                assert status == 404
                status, _, payload = await client.request("POST", "/reachable?u=0&v=1")
                assert status == 405
                status, payload = await client.batch([{"op": "warp", "u": 0}])
                assert status == 400 and "unknown op" in payload["error"]
                assert service.telemetry.count("invalid_requests") >= 3
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_deadline_expiry_is_a_structured_504(self, graph, monkeypatch):
        async def run():
            service, server, client = await start_server(graph)

            async def slow_faults():
                await asyncio.sleep(0.2)

            monkeypatch.setattr(service, "_handler_faults", slow_faults)
            try:
                status, payload = await client.reachable(0, 1, deadline_ms=20)
                assert status == 504
                assert payload["deadline_ms"] == 20
                assert service.telemetry.count("deadline_timeouts") == 1
                # The server survives and answers the next request.
                monkeypatch.undo()
                status, _ = await client.reachable(0, 1)
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_consecutive_deadline_expiries_keep_the_connection(self, graph, monkeypatch):
        """Two 504s in a row, then a 200, all on one keep-alive connection."""

        async def run():
            service, server, client = await start_server(graph)

            async def slow_faults():
                await asyncio.sleep(0.2)

            monkeypatch.setattr(service, "_handler_faults", slow_faults)
            try:
                status, _ = await client.reachable(0, 1, deadline_ms=20)
                assert status == 504
                connection = client._writer
                status, _ = await client.reachable(0, 1, deadline_ms=20)
                assert status == 504
                monkeypatch.undo()
                status, payload = await client.reachable(0, 90)
                assert status == 200
                assert payload["reachable"] == (90 in reachable_from(graph, [0]))
                assert client._writer is connection
                assert service.telemetry.count("deadline_timeouts") == 2
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_overload_sheds_with_retry_after(self, graph, monkeypatch):
        async def run():
            service, server, client = await start_server(
                graph, max_concurrency=1, max_queue=1
            )

            async def slow_faults():
                await asyncio.sleep(0.3)

            monkeypatch.setattr(service, "_handler_faults", slow_faults)
            try:
                tasks = [
                    asyncio.create_task(
                        ServeClient(port=server.port).request(
                            "GET", "/reachable?u=0&v=1"
                        )
                    )
                    for _ in range(6)
                ]
                responses = await asyncio.gather(*tasks)
                statuses = sorted(status for status, _h, _p in responses)
                assert 503 in statuses  # some requests shed...
                assert 200 in statuses  # ...while admitted ones answer
                shed = [r for r in responses if r[0] == 503]
                assert all("retry-after" in r[1] for r in shed)
                assert all(r[2].get("shed") for r in shed)
                assert service.telemetry.count("shed") >= 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_refresh_endpoint_rebuilds(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                status, payload = await client.refresh()
                assert status == 200
                assert payload == {"rebuilt": True, "state": "ready"}
                assert service.telemetry.count("rebuilds") == 2
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_readyz_reports_degraded_over_http(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                service._build_index_sync = lambda: (_ for _ in ()).throw(
                    RuntimeError("storage down")
                )
                for _ in range(service.config.breaker_threshold):
                    await client.refresh()
                status, ready = await client.get("/readyz")
                assert status == 503 and ready["state"] == "degraded"
                # Still answering, flagged degraded.
                status, payload = await client.reachable(0, 90)
                assert status == 200 and payload["degraded"] is True
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())


async def raw_exchange(port, data):
    """Send ``data`` then end the stream; the reply's status, headers, body.

    ``(None, {}, None)`` when the server closes without replying.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        writer.write_eof()
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            return None, {}, None
        headers = {}
        while (line := await reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers["content-length"]))
        return int(status_line.split()[1]), headers, json.loads(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


MALFORMED_REQUESTS = [
    pytest.param(
        b"POST /batch HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400,
        id="non-numeric-content-length",
    ),
    pytest.param(
        b"POST /batch HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400,
        id="negative-content-length",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nX-Filler: " + b"a" * (1 << 16) + b"\r\n\r\n", 400,
        id="header-line-over-the-reader-limit",
    ),
    pytest.param(
        b"POST /batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_REQUEST_BYTES + 1),
        413,
        id="body-over-max-request-bytes",
    ),
    pytest.param(
        b"POST /batch HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", None,
        id="body-cut-short-by-the-client",
    ),
    pytest.param(b"GET\r\n\r\n", 400, id="request-line-without-a-target"),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-Filler-%d: a\r\n" % i for i in range(20_000))
        + b"\r\n",
        431,
        id="header-lines-over-the-cap",
    ),
]


class TestMalformedRequests:
    @pytest.mark.parametrize("raw,expected", MALFORMED_REQUESTS)
    def test_structured_rejection_and_no_unhandled_exception(self, graph, raw, expected):
        async def run():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            service, server, client = await start_server(graph)
            try:
                status, headers, payload = await raw_exchange(server.port, raw)
                # The connection is closed; let its task finish.
                await asyncio.sleep(0.05)
                assert status == expected
                if expected is not None:
                    assert headers["connection"] == "close"
                    assert "error" in payload
                rejected = service.telemetry.count("invalid_requests")
                assert rejected == (0 if expected is None else 1)
                # The server keeps answering on a fresh connection.
                assert (await client.reachable(0, 1))[0] == 200
            finally:
                await client.close()
                await server.close()
            assert unhandled == []

        asyncio.run(run())

    def test_header_lines_up_to_the_cap_are_accepted(self, graph):
        async def run():
            service, server, client = await start_server(graph)
            try:
                raw = (
                    b"GET /healthz HTTP/1.1\r\n"
                    + b"".join(b"X-Filler-%d: a\r\n" % i for i in range(MAX_HEADER_LINES))
                    + b"\r\n"
                )
                status, _, _ = await raw_exchange(server.port, raw)
                assert status == 200
            finally:
                await client.close()
                await server.close()

        asyncio.run(run())

    def test_an_internal_error_is_a_structured_500(self, graph, capsys):
        async def run():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            service, server, client = await start_server(graph)

            def broken_stats():
                raise RuntimeError("stats exploded")

            service.stats = broken_stats
            try:
                status, headers, payload = await raw_exchange(
                    server.port, b"GET /stats HTTP/1.1\r\n\r\n"
                )
                await asyncio.sleep(0.05)
                assert status == 500
                assert headers["connection"] == "close"
                assert payload == {"error": "internal server error (RuntimeError)"}
                assert service.telemetry.count("errors") == 1
                # The server keeps answering on a fresh connection.
                assert (await client.reachable(0, 1))[0] == 200
            finally:
                await client.close()
                await server.close()
            assert unhandled == []

        asyncio.run(run())
        assert "stats exploded" in capsys.readouterr().err
