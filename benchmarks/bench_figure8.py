"""Benchmark: regenerate Figure 8 (high-selectivity PTC: total I/O)."""


def test_figure8(benchmark, profile, engine):
    from repro.experiments.figures import figure8

    panels = benchmark.pedantic(figure8, args=(profile, engine), rounds=1, iterations=1)
    for panel in panels.values():
        print("\n" + panel.render())

    for panel in panels.values():
        # SRCH is the best algorithm at the smallest source count
        # (Section 6.3, conclusion 4).  BJ's reduction can tie it on a
        # near-trivial magic graph, so allow a 10% margin.
        smallest = {name: series[0] for name, series in panel.series.items()}
        assert smallest["SRCH"] <= 1.1 * min(smallest.values())

        # BJ never exceeds BTC by more than noise: its reduction can
        # only remove work (Section 6.3, conclusion 2).
        for bj_io, btc_io in zip(panel.series["BJ"], panel.series["BTC"]):
            assert bj_io <= btc_io * 1.1
