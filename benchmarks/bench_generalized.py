"""Ablation: what path aggregation costs relative to reachability.

The boolean study's marking optimisation is sound only because
reachability's "plus" ignores alternative paths.  The generalized
closure (semiring path aggregation, from the thesis [7] behind the
paper's framework) must process every arc and stores double-width
(successor, value) entries, so the same workload costs strictly more
page I/O -- this bench quantifies the premium per semiring.
"""

from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.experiments.parallel import GraphSpec
from repro.metrics.report import format_table
from repro.paths import (
    WeightedDigraph,
    critical_path_lengths,
    path_counts,
    shortest_distances,
)


def run_comparison(profile):
    graph = GraphSpec.for_profile("G5", profile, 0).build()
    weighted = WeightedDigraph.uniform(graph, label=1)
    system = SystemConfig(buffer_pages=10)
    rows = []

    boolean = make_algorithm("btc").run(graph, Query.full(), system)
    rows.append(
        {
            "closure": "boolean (btc)",
            "total_io": boolean.metrics.total_io,
            "unions": boolean.metrics.list_unions,
            "marked_arcs": boolean.metrics.arcs_marked,
            "tuples": boolean.num_tuples,
        }
    )
    for label, runner in (
        ("min-plus (distances)", shortest_distances),
        ("max-plus (critical)", critical_path_lengths),
        ("count (paths)", path_counts),
    ):
        closure = runner(weighted, system=system)
        rows.append(
            {
                "closure": label,
                "total_io": closure.metrics.total_io,
                "unions": closure.metrics.list_unions,
                "marked_arcs": closure.metrics.arcs_marked,
                "tuples": closure.num_tuples,
            }
        )
    return rows


def test_generalized_closure(benchmark, profile):
    rows = benchmark.pedantic(run_comparison, args=(profile,), rounds=1, iterations=1)
    print("\n" + format_table(rows, title="Generalized vs boolean closure (G5, M=10)"))

    boolean = rows[0]
    assert boolean["marked_arcs"] > 0
    for row in rows[1:]:
        # Same reachable pairs...
        assert row["tuples"] == boolean["tuples"], row["closure"]
        # ...but no marking (every arc unions) and wider entries.
        assert row["marked_arcs"] == 0
        assert row["unions"] > boolean["unions"]
        assert row["total_io"] > boolean["total_io"]
