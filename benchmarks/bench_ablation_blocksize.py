"""Ablation: successor-list block granularity (Section 5.1 geometry).

The paper fixes the page layout at 30 blocks of 15 successors.  This
ablation re-runs BTC with coarser and finer block granularities (page
capacity held at 450 successors) to show what the choice buys: fine
blocks waste little space but fragment lists across pages; coarse
blocks keep lists contiguous but strand free space inside blocks, so
fewer lists fit per page and splits come earlier.
"""

from repro.core.btc import BtcAlgorithm
from repro.core.query import Query, SystemConfig
from repro.experiments.parallel import GraphSpec
from repro.metrics.report import format_table

GEOMETRIES = (
    (90, 5),    # fine: 90 blocks of 5
    (30, 15),   # the paper's layout
    (10, 45),   # coarse
    (2, 225),   # very coarse: two half-page blocks
)


def run_ablation(profile):
    graph = GraphSpec.for_profile("G6", profile, 0).build()
    rows = []
    for blocks_per_page, block_capacity in GEOMETRIES:
        system = SystemConfig(
            buffer_pages=10,
            blocks_per_page=blocks_per_page,
            block_capacity=block_capacity,
        )
        result = BtcAlgorithm().run(graph, Query.full(), system)
        rows.append(
            {
                "blocks/page": blocks_per_page,
                "block_cap": block_capacity,
                "total_io": result.metrics.total_io,
                "answer": result.num_tuples,
            }
        )
    return rows


def test_blocksize_ablation(benchmark, profile):
    rows = benchmark.pedantic(run_ablation, args=(profile,), rounds=1, iterations=1)
    print("\n" + format_table(rows, title="Ablation: block granularity (BTC, G6, M=10)"))

    # Correctness is geometry-independent.
    assert len({row["answer"] for row in rows}) == 1

    # The layout choice is a real but bounded effect: within one order
    # of magnitude across a 45x granularity range.
    ios = [row["total_io"] for row in rows]
    assert max(ios) <= 10 * min(ios)
