"""Benchmark: regenerate Figure 10 (high selectivity: list unions)."""


def test_figure10(benchmark, profile, engine):
    from repro.experiments.figures import figure10

    panels = benchmark.pedantic(figure10, args=(profile, engine), rounds=1, iterations=1)
    for panel in panels.values():
        print("\n" + panel.render())

    for panel in panels.values():
        # SRCH performs its searches independently per source, so its
        # union count rises (weakly) with the source count...
        srch = panel.series["SRCH"]
        assert srch[-1] >= srch[0]

        for index in range(len(panel.xs)):
            # ...and JKB2's poor marking utilisation makes it perform
            # at least as many unions as BTC (Section 6.3.3).
            assert panel.series["JKB2"][index] >= panel.series["BTC"][index] * 0.9
            # BJ skips the single-parent nodes' unions.
            assert panel.series["BJ"][index] <= panel.series["BTC"][index]
