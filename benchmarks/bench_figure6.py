"""Benchmark: regenerate Figure 6 (Hybrid vs BTC, effect of blocking)."""


def test_figure6(benchmark, profile, engine):
    from repro.experiments.figures import figure6

    data = benchmark.pedantic(figure6, args=(profile, engine), rounds=1, iterations=1)
    print("\n" + data.render())

    # HYB with ILIMIT = 0 is identical to BTC (the HYB-0 curve).
    assert data.series["HYB-0"] == data.series["BTC"]

    # Paper finding: blocking is detrimental -- the algorithm performs
    # best when no blocking is used.  Check at the smallest pool, where
    # the reserved diagonal block bites hardest.
    btc_io = data.series["BTC"][0]
    for label in ("HYB-0.1", "HYB-0.2", "HYB-0.3"):
        assert data.series[label][0] >= btc_io, label

    # Everyone improves as the buffer pool grows.
    for label, series in data.series.items():
        assert series[-1] <= series[0], label
