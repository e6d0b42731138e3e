"""Benchmark: serve-layer latency and throughput on both engines.

Measures the resilient query service end to end and writes
``BENCH_serve.json`` at the repository root (same sorted-keys /
trailing-newline discipline as ``BENCH_summary.json``):

* **direct** -- ``ReachabilityService`` coroutine calls on a live event
  loop: per-query p50/p99 latency and queries/second.  This is the
  serving ceiling -- validation and the index lookup, no socket.
* **http** -- the same queries as individual ``GET /reachable``
  round-trips over a UNIX-domain socket (keep-alive), plus batched
  ``POST /batch`` throughput.

The fast engine's direct path is the headline number (the acceptance
target is 10k+ qps single-process); the paged engine shows that engine
choice only changes the *build* cost -- the frozen index serves at the
same speed once built.

Run standalone (``python benchmarks/bench_serve.py``) or under the
bench suite (``pytest benchmarks/bench_serve.py``).
"""

import asyncio
import random
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.query import SystemConfig
from repro.graphs.generator import generate_dag
from repro.obs.bench import write_bench_summary
from repro.serve.http import ServeClient, ServeServer
from repro.serve.service import ReachabilityService, ServeConfig

NUM_NODES = 400
DIRECT_QUERIES = 20_000
HTTP_QUERIES = 2_000
BATCHES = 20
BATCH_SIZE = 200


def _percentile(samples, pct):
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(pct / 100 * (len(ordered) - 1))))
    return ordered[rank]


def _probes(graph, count, seed):
    rng = random.Random(seed)
    return [
        (rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes))
        for _ in range(count)
    ]


async def _bench_engine(graph, engine):
    service = ReachabilityService(
        graph,
        system=SystemConfig(engine=engine),
        config=ServeConfig(),
    )
    build_start = time.perf_counter()
    assert await service.build()
    build_seconds = time.perf_counter() - build_start

    # Direct path: the service coroutine API, no socket.
    latencies = []
    direct_start = time.perf_counter()
    for u, v in _probes(graph, DIRECT_QUERIES, seed=1):
        t0 = time.perf_counter()
        await service.reachable(u, v)
        latencies.append(time.perf_counter() - t0)
    direct_elapsed = time.perf_counter() - direct_start

    # HTTP path over a UNIX-domain socket, keep-alive connection.  The
    # socket lives in a fresh private directory, so its name cannot be
    # taken by anyone else between choosing it and binding it.
    sock_dir = tempfile.mkdtemp(prefix="repro-bench-")
    uds = str(Path(sock_dir) / "serve.sock")
    server = ServeServer(service, uds=uds)
    client = ServeClient(uds=uds)
    try:
        await server.start()
        http_latencies = []
        http_start = time.perf_counter()
        for u, v in _probes(graph, HTTP_QUERIES, seed=2):
            t0 = time.perf_counter()
            status, payload = await client.reachable(u, v)
            http_latencies.append(time.perf_counter() - t0)
            assert status == 200
        http_elapsed = time.perf_counter() - http_start

        batch_queries = [
            [
                {"op": "reachable", "u": u, "v": v}
                for u, v in _probes(graph, BATCH_SIZE, seed=10 + i)
            ]
            for i in range(BATCHES)
        ]
        batch_start = time.perf_counter()
        for queries in batch_queries:
            status, payload = await client.batch(queries)
            assert status == 200 and len(payload["results"]) == BATCH_SIZE
        batch_elapsed = time.perf_counter() - batch_start
    finally:
        await client.close()
        await server.close()
        shutil.rmtree(sock_dir, ignore_errors=True)

    return {
        "build_seconds": round(build_seconds, 4),
        "build_io": service.index.metrics.total_io,
        "index_k": service.index.k,
        "direct": {
            "queries": DIRECT_QUERIES,
            "qps": round(DIRECT_QUERIES / direct_elapsed),
            "p50_us": round(_percentile(latencies, 50) * 1e6, 2),
            "p99_us": round(_percentile(latencies, 99) * 1e6, 2),
        },
        "http": {
            "queries": HTTP_QUERIES,
            "qps": round(HTTP_QUERIES / http_elapsed),
            "p50_us": round(_percentile(http_latencies, 50) * 1e6, 2),
            "p99_us": round(_percentile(http_latencies, 99) * 1e6, 2),
            "batch_qps": round(BATCHES * BATCH_SIZE / batch_elapsed),
        },
    }


def run_suite():
    graph = generate_dag(NUM_NODES, 3.0, 60, seed=0)

    async def run():
        return {
            "workload": {
                "nodes": graph.num_nodes,
                "arcs": graph.num_arcs,
                "seed": 0,
            },
            "engines": {
                engine: await _bench_engine(graph, engine)
                for engine in ("fast", "paged")
            },
        }

    return asyncio.run(run())


def test_serve_latency_and_throughput(benchmark):
    out = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    write_bench_summary(out, Path(__file__).resolve().parents[1] / "BENCH_serve.json")
    for engine, result in out["engines"].items():
        print(
            f"\n{engine}: build={result['build_seconds']}s "
            f"(io={result['build_io']}), direct {result['direct']['qps']} qps "
            f"p50={result['direct']['p50_us']}us p99={result['direct']['p99_us']}us, "
            f"http {result['http']['qps']} qps "
            f"(batch {result['http']['batch_qps']} qps)"
        )

    fast, paged = out["engines"]["fast"], out["engines"]["paged"]
    # The acceptance target: 10k+ qps single-process on the fast engine's
    # direct path (an in-memory O(k) vector probe plus request validation).
    assert fast["direct"]["qps"] >= 10_000
    # Engine choice prices the *build*, not the serving: the frozen
    # index answers at the same order of magnitude on both engines.
    assert paged["direct"]["qps"] >= fast["direct"]["qps"] / 4
    assert paged["build_io"] > fast["build_io"] == 0
    # Batching amortises HTTP framing: it must beat one-GET-per-query.
    assert fast["http"]["batch_qps"] > fast["http"]["qps"]


if __name__ == "__main__":
    summary = run_suite()
    write_bench_summary(
        summary, Path(__file__).resolve().parents[1] / "BENCH_serve.json"
    )
    for engine, result in summary["engines"].items():
        print(engine, result["direct"], result["http"])
