"""Benchmark: regenerate Table 2 (graph characteristics of G1..G12)."""

from repro.metrics.report import format_table


def test_table2(benchmark, profile, engine):
    from repro.experiments.tables import table2

    rows = benchmark.pedantic(table2, args=(profile, engine), rounds=1, iterations=1)
    print("\n" + format_table(rows, title="Table 2. Graph parameters"))

    by_name = {row["graph"]: row for row in rows}
    assert len(rows) == 12

    # Paper trend: increasing F or decreasing l deepens the graph
    # (higher H and maximum level) -- compare the extremes.
    assert by_name["G10"]["H"] > by_name["G3"]["H"]
    assert by_name["G10"]["max_level"] > by_name["G3"]["max_level"]

    # Paper observation (Section 5.3): the average locality of the
    # irredundant arcs is much lower than that of all arcs.
    for row in rows:
        assert row["avg_irred_loc"] <= row["avg_loc"]

    # Denser families close more pairs.
    assert by_name["G12"]["closure"] > by_name["G3"]["closure"]
