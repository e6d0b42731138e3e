"""Benchmark: regenerate Figure 14 (low-selectivity trends on G9)."""


def test_figure14(benchmark, profile, engine):
    from repro.experiments.figures import figure14

    panels = benchmark.pedantic(figure14, args=(profile, engine), rounds=1, iterations=1)
    for panel in panels.values():
        print("\n" + panel.render())

    io_panel, tuples_panel = panels["a"], panels["b"]
    marking_panel, unions_panel = panels["c"], panels["d"]

    # BJ performs almost the same as BTC in this range: few non-source
    # single-parent nodes remain when most nodes are sources.
    for bj_io, btc_io in zip(io_panel.series["BJ"], io_panel.series["BTC"]):
        assert abs(bj_io - btc_io) <= max(20.0, 0.2 * btc_io)

    # At s = n the BTC and BJ curves converge exactly, and every
    # algorithm answers the full closure.
    assert io_panel.series["BTC"][-1] == io_panel.series["BJ"][-1]

    # JKB2's distinctive gaps diminish as s grows (Section 6.3.6):
    # tuples generated stay below BTC, unions stay above, and the
    # marking percentage climbs toward BTC's.
    assert tuples_panel.series["JKB2"][0] < tuples_panel.series["BTC"][0]
    assert unions_panel.series["JKB2"][0] >= unions_panel.series["BTC"][0] * 0.9
    assert marking_panel.series["JKB2"][-1] >= marking_panel.series["JKB2"][0]
