"""Benchmark: regenerate Figure 13 (effect of the buffer pool size)."""


def test_figure13(benchmark, profile, engine):
    from repro.experiments.figures import figure13

    panels = benchmark.pedantic(figure13, args=(profile, engine), rounds=1, iterations=1)
    for panel in panels.values():
        print("\n" + panel.render())

    for letter in ("a", "b"):
        io_panel = panels[letter]
        for name, series in io_panel.series.items():
            # Performance improves as the buffer pool grows.
            assert series[-1] <= series[0], (letter, name)

    for letter in ("c", "d"):
        hit_panel = panels[letter]
        for name, series in hit_panel.series.items():
            if name == "SRCH":
                continue  # SRCH does its work in preprocessing
            # The computation-phase hit ratio rises with the pool size.
            assert series[-1] >= series[0] - 1e-9, (letter, name)

    # JKB2 is the most sensitive: with the largest pool its small
    # special-node trees become memory resident and its hit ratio
    # approaches 1 (Section 6.3.5).
    for letter in ("c", "d"):
        assert panels[letter].series["JKB2"][-1] > 0.9
