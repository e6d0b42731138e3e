"""Benchmark: regenerate Figure 9 (high selectivity: tuples generated)."""


def test_figure9(benchmark, profile, engine):
    from repro.experiments.figures import figure9

    panels = benchmark.pedantic(figure9, args=(profile, engine), rounds=1, iterations=1)
    for panel in panels.values():
        print("\n" + panel.render())

    # JKB2's advantage scales with the graph: at the paper's scale it
    # generates under 1% of BTC's tuples (Section 6.3.2); at reduced
    # scales the gap narrows, so the asserted factor adapts.
    factor = 5 if profile.scale <= 2 else 1.0
    for panel in panels.values():
        for index in range(len(panel.xs)):
            btc = panel.series["BTC"][index]
            assert panel.series["JKB2"][index] < btc / factor
            # SRCH achieves optimal selection efficiency, so it also
            # generates far fewer tuples than BTC.
            assert panel.series["SRCH"][index] <= btc
            # BJ generates no more than BTC (single-parent reduction).
            assert panel.series["BJ"][index] <= btc * 1.1
