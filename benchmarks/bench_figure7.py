"""Benchmark: regenerate Figure 7 (successor tree algorithms vs BTC)."""


def test_figure7(benchmark, profile, engine):
    from repro.experiments.figures import figure7

    panels = benchmark.pedantic(figure7, args=(profile, engine), rounds=1, iterations=1)
    print("\n" + panels["a"].render())
    print("\n" + panels["b"].render())

    panel_a, panel_b = panels["a"], panels["b"]

    # Paper finding: BTC performs better than the successor tree
    # algorithms on page I/O at every out-degree...
    for index in range(len(panel_a.xs)):
        assert panel_a.series["BTC"][index] <= panel_a.series["SPN"][index]
        assert panel_a.series["BTC"][index] <= panel_a.series["JKB"][index]
        assert panel_a.series["BTC"][index] <= panel_a.series["JKB2"][index]

    # ...even though the tree algorithms generate far fewer duplicates
    # (panel b) -- the paper's Section 7 point that tuple-level metrics
    # invert the page-I/O ranking.
    for index in range(len(panel_b.xs)):
        assert panel_b.series["SPN"][index] <= panel_b.series["BTC"][index]

    # JKB (no inverse relation) pays an exploding preprocessing cost as
    # the out-degree grows: by F = 50 it is far above BTC.
    assert panel_a.series["JKB"][-1] > 2 * panel_a.series["BTC"][-1]
