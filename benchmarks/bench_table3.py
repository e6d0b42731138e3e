"""Benchmark: regenerate Table 3 (I/O and CPU cost breakdown of BTC)."""

from repro.metrics.report import format_table


def test_table3(benchmark, profile, engine):
    from repro.experiments.tables import table3

    rows = benchmark.pedantic(table3, args=(profile, engine), rounds=1, iterations=1)
    print("\n" + format_table(rows, title="Table 3. I/O and CPU cost of BTC (G6, CTC)"))

    assert [row["M"] for row in rows] == [10, 20, 50]
    # Paper conclusion (Section 6.1): the closure computation is
    # clearly I/O bound for all three buffer pool sizes.
    for row in rows:
        assert row["io_bound"], row
    # Page I/O falls as the buffer pool grows.
    assert rows[0]["page_io"] >= rows[1]["page_io"] >= rows[2]["page_io"]
