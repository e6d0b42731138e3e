"""Benchmark: regenerate Table 4 (JKB2 vs BTC by graph width)."""

from repro.metrics.report import format_table


def test_table4(benchmark, profile, engine):
    from repro.experiments.tables import table4

    rows = benchmark.pedantic(
        table4, args=(profile, engine), kwargs={"selectivities": (5, 10)}, rounds=1, iterations=1
    )
    print("\n" + format_table(rows, title="Table 4. JKB2 vs BTC for PTC queries (by width)"))

    widths = [row["W"] for row in rows]
    assert widths == sorted(widths)

    # Paper observation (Section 6.3.4): JKB performs well when the
    # width is low and badly when it is high.  Compare the average
    # ratio over the three narrowest vs the three widest graphs.
    for column in ("jkb2/btc@s=5", "jkb2/btc@s=10"):
        narrow = sum(row[column] for row in rows[:3]) / 3
        wide = sum(row[column] for row in rows[-3:]) / 3
        assert narrow < wide, (column, narrow, wide)
