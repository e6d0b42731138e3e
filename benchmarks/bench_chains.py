"""Benchmark: the chain-decomposition index against the paper's suite.

A comparison the 1994 study could not draw: the ``chains`` family
(Kritikakis & Tollis) against BTC and Hybrid on the paper's own grid
and cost model.  Three quantities are reported:

* **Closure emission** -- total page I/O for the full materialised
  closure across buffer sizes (the ``figure_chains`` grid, so the
  cells land in ``BENCH_summary.json`` like every other figure);
* **Index build** -- page I/O for constructing just the k-vector
  index (no closure emission), the price of a query-ready structure;
* **Per-query latency** -- wall-clock cost of ``reachable(u, v)``
  probes against the frozen index, which must not touch a single
  page (the counters are asserted flat).
"""

import random
import time

from repro.core.chains import build_chain_index
from repro.core.query import SystemConfig
from repro.graphs.datasets import graph_family

QUERY_PROBES = 5_000


def run_suite(profile, engine):
    from repro.experiments.figures import figure_chains

    data = figure_chains(profile, engine)

    graph = graph_family("G9").generate(seed=0, scale=profile.scale)
    index = build_chain_index(graph, system=SystemConfig(buffer_pages=20))
    build_io = index.metrics.total_io

    rng = random.Random(0)
    nodes = list(graph.nodes())
    probes = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(QUERY_PROBES)]
    start = time.perf_counter()
    hits = sum(1 for src, dst in probes if index.reachable(src, dst))
    elapsed = time.perf_counter() - start

    return {
        "figure": data,
        "k": index.k,
        "num_nodes": index.num_nodes,
        "build_io": build_io,
        "query_io_delta": index.metrics.total_io - build_io,
        "query_hits": hits,
        "query_micros": elapsed / QUERY_PROBES * 1e6,
    }


def test_chains_vs_paper_suite(benchmark, profile, engine):
    out = benchmark.pedantic(run_suite, args=(profile, engine), rounds=1, iterations=1)
    data = out["figure"]
    print("\n" + data.render())
    print(
        f"index: k={out['k']} over n={out['num_nodes']}, "
        f"build_io={out['build_io']}, "
        f"{out['query_hits']}/{QUERY_PROBES} probes reachable at "
        f"{out['query_micros']:.2f} us/query"
    )

    chains = data.series["CHAINS"]
    # Everyone improves as the buffer pool grows.
    for label, series in data.series.items():
        assert series[-1] <= series[0], label
    # Under buffer pressure the chain index's one-vector-per-node
    # emission undercuts Hybrid's blocked successor lists.
    assert chains[0] < data.series["HYB-0.2"][0]
    # The index alone is cheaper than the full materialised closure at
    # the same buffer size: emission pays for the output pages the
    # build-only path skips.
    assert out["build_io"] < chains[1]
    # A useful decomposition: well below one chain per node.
    assert 0 < out["k"] < out["num_nodes"]
    # The acceptance criterion of the index: probes never touch the
    # storage substrate, so the page-I/O bill stays flat during queries.
    assert out["query_io_delta"] == 0
    assert 0 < out["query_hits"] < QUERY_PROBES
