"""Ablation: page and list replacement policies (Section 5.1).

The paper states: "By and large, the choice of page and list
replacement policies had a secondary effect."  This ablation sweeps
both policy dimensions for BTC and checks that the spread between the
best and worst combination stays small relative to the spread between
*algorithms* (which is multiples, per Figures 6-8).
"""

from repro.core.btc import BtcAlgorithm
from repro.core.query import Query, SystemConfig
from repro.experiments.parallel import GraphSpec
from repro.metrics.report import format_table
from repro.storage.successor_store import ListPlacementPolicy

PAGE_POLICIES = ("lru", "mru", "fifo", "clock", "random")


def run_sweep(profile):
    graph = GraphSpec.for_profile("G6", profile, 0).build()
    rows = []
    for page_policy in PAGE_POLICIES:
        for list_policy in ListPlacementPolicy:
            system = SystemConfig(
                buffer_pages=10, page_policy=page_policy, list_policy=list_policy
            )
            result = BtcAlgorithm().run(graph, Query.full(), system)
            rows.append(
                {
                    "page_policy": page_policy,
                    "list_policy": list_policy.value,
                    "total_io": result.metrics.total_io,
                    "answer": result.num_tuples,
                }
            )
    return rows


def test_policy_ablation(benchmark, profile):
    rows = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)
    rows = sorted(rows, key=lambda row: row["total_io"])
    print("\n" + format_table(rows, title="Ablation: replacement policies (BTC, G6, M=10)"))

    # Correctness is policy-independent.
    answers = {row["answer"] for row in rows}
    assert len(answers) == 1

    # Secondary effect among the reasonable policies: best-to-worst
    # spread stays small.  MRU is excluded -- it is adversarial for
    # the reverse-topological scan (it evicts exactly the lists about
    # to be unioned) and the paper did not consider it reasonable.
    reasonable = [row for row in rows if row["page_policy"] != "mru"]
    best, worst = reasonable[0]["total_io"], reasonable[-1]["total_io"]
    assert worst <= 3 * best

    # The default configuration (LRU) is at or near the best.
    lru_best = min(row["total_io"] for row in rows if row["page_policy"] == "lru")
    assert lru_best <= 1.5 * best
