"""Benchmark: regenerate Figure 11 (high selectivity: marking %)."""


def test_figure11(benchmark, profile, engine):
    from repro.experiments.figures import figure11

    panels = benchmark.pedantic(figure11, args=(profile, engine), rounds=1, iterations=1)
    for panel in panels.values():
        print("\n" + panel.render())

    for panel in panels.values():
        for index in range(len(panel.xs)):
            # SRCH never marks (it has no marking optimisation).
            assert panel.series["SRCH"][index] == 0.0
            # JKB2 misses almost every marking opportunity: its
            # percentage is near zero and far below BTC's.
            assert panel.series["JKB2"][index] <= 0.2
            assert panel.series["JKB2"][index] <= panel.series["BTC"][index]
