"""Benchmark: regenerate Figure 12 (avg locality of unmarked arcs)."""


def test_figure12(benchmark, profile, engine):
    from repro.experiments.figures import figure12

    panels = benchmark.pedantic(figure12, args=(profile, engine), rounds=1, iterations=1)
    for panel in panels.values():
        print("\n" + panel.render())

    for panel in panels.values():
        for index in range(len(panel.xs)):
            # The locality of the arcs JKB2 actually processes is worse
            # (larger) than BTC's: marking removes exactly the long
            # arcs for BTC, and JKB2 barely marks (Section 6.3.3).
            assert panel.series["JKB2"][index] >= panel.series["BTC"][index]
