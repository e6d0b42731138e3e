"""Ablation: the marking optimisation (Section 3.1 / 5.3).

The paper argues the marking optimisation matters twice over: it
removes successor-list unions altogether, and the unions it removes
are disproportionately the *expensive* ones (redundant arcs have much
higher locality values -- Table 2's ``avg_irred_loc`` column).  This
ablation runs BTC with marking disabled and measures both effects.
"""

from repro.core.btc import BtcAlgorithm
from repro.core.context import ExecutionContext
from repro.core.query import Query, SystemConfig
from repro.experiments.parallel import GraphSpec
from repro.metrics.report import format_table


class UnmarkedBtc(BtcAlgorithm):
    """BTC with the marking optimisation disabled (every arc unions)."""

    name = "btc-nomark"

    def compute(self, ctx: ExecutionContext) -> None:
        position = ctx.position
        for node in reversed(ctx.topo_order):
            children = sorted(ctx.adjacency[node], key=position.__getitem__)
            for child in children:
                ctx.metrics.arcs_considered += 1
                ctx.metrics.unmarked_locality_total += ctx.arc_locality(node, child)
                ctx.union_list(node, child)


def run_ablation(profile):
    rows = []
    for family in ("G5", "G9"):
        graph = GraphSpec.for_profile(family, profile, 0).build()
        system = SystemConfig(buffer_pages=10)
        for algorithm in (BtcAlgorithm(), UnmarkedBtc()):
            result = algorithm.run(graph, Query.full(), system)
            metrics = result.metrics
            rows.append(
                {
                    "graph": family,
                    "algorithm": algorithm.name,
                    "total_io": metrics.total_io,
                    "unions": metrics.list_unions,
                    "tuples_generated": metrics.tuples_generated,
                    "avg_arc_locality": round(metrics.avg_unmarked_locality, 1),
                    "answer": result.num_tuples,
                }
            )
    return rows


def test_marking_ablation(benchmark, profile):
    rows = benchmark.pedantic(run_ablation, args=(profile,), rounds=1, iterations=1)
    print("\n" + format_table(rows, title="Ablation: marking optimisation"))

    by_key = {(row["graph"], row["algorithm"]): row for row in rows}
    for family in ("G5", "G9"):
        marked = by_key[(family, "btc")]
        unmarked = by_key[(family, "btc-nomark")]
        # Same answers either way.
        assert marked["answer"] == unmarked["answer"]
        # Marking removes unions and I/O...
        assert marked["unions"] <= unmarked["unions"]
        assert marked["total_io"] <= unmarked["total_io"]
        # ...and the arcs it removes are the long (expensive) ones, so
        # the processed-arc locality is better (smaller) with marking.
        assert marked["avg_arc_locality"] <= unmarked["avg_arc_locality"]
