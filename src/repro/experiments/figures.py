"""Regeneration of the paper's Figures 6 through 14.

Each ``figureN`` function returns a :class:`FigureData` (or a dict of
panel name to :class:`FigureData`): the x axis, one series per curve,
and a title matching the paper's caption.  ``render()`` prints the
series as an aligned text table -- the same rows the paper plots.

Every ``figureN(profile, engine)`` declares its grid as a flat list of
:class:`~repro.experiments.parallel.Cell` descriptions and hands it to
``engine.run_cells``, so the whole grid runs as that engine's work
units -- in-process, or fanned out across worker processes under
``run_all --jobs N`` -- and a cell another figure already ran replays
from the engine's memo.  A cell with a permanently failed unit
contributes ``nan`` to its series, visibly marking the hole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import SystemConfig
from repro.experiments.config import ScaleProfile
from repro.experiments.parallel import Cell, ExperimentEngine
from repro.experiments.queries import QuerySpec
from repro.experiments.runner import AveragedMetrics
from repro.graphs.datasets import graph_family
from repro.metrics.report import format_series

HIGH_SELECTIVITIES = (2, 5, 10, 20)
"""Source-node counts for the high-selectivity experiments (Figures 8-12)."""

LOW_SELECTIVITIES = (200, 500, 1000, 2000)
"""Source-node counts for the low-selectivity experiments (Figure 14)."""

BUFFER_SIZES = (10, 20, 30, 40, 50)
"""Buffer-pool sweep for Figure 13 (the paper plots 10..50)."""


@dataclass
class FigureData:
    """One panel of a figure: an x axis plus one series per curve."""

    title: str
    x_label: str
    xs: list[object]
    series: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        """The panel as an aligned text table."""
        return format_series(self.title, self.xs, self.series, x_label=self.x_label)


def _metric_series(
    cells: dict[str, list[AveragedMetrics]], metric: str
) -> dict[str, list[float]]:
    return {
        label: [round(getattr(m, metric), 4) for m in values]
        for label, values in cells.items()
    }


# ---------------------------------------------------------------------------
# Figure 6 -- Hybrid vs. BTC, effect of blocking, full closure (G9).
# ---------------------------------------------------------------------------

def figure6(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    family: str = "G9",
    ilimits: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    buffer_sizes: tuple[int, ...] = (10, 20, 50),
) -> FigureData:
    """Total I/O of BTC and HYB (several ILIMIT values) vs. buffer size.

    The paper's finding: blocking *hurts* the Hybrid algorithm -- cost
    increases with ILIMIT, and HYB at ILIMIT=0 equals BTC.
    """
    spec = QuerySpec.full()
    data = FigureData(
        title=f"Figure 6. Hybrid vs BTC, full closure ({family})",
        x_label="M",
        xs=list(buffer_sizes),
    )
    curves: dict[str, list[float]] = {"BTC": []}
    for ilimit in ilimits:
        curves[f"HYB-{ilimit:g}"] = []
    cells = []
    for buffer_pages in buffer_sizes:
        cells.append(Cell("btc", family, spec, SystemConfig(buffer_pages=buffer_pages)))
        for ilimit in ilimits:
            cells.append(
                Cell("hyb", family, spec,
                     SystemConfig(buffer_pages=buffer_pages, ilimit=ilimit))
            )
    results = iter(engine.run_cells(cells, profile))
    for _buffer_pages in buffer_sizes:
        curves["BTC"].append(next(results).total_io)
        for ilimit in ilimits:
            curves[f"HYB-{ilimit:g}"].append(next(results).total_io)
    data.series = curves
    return data


# ---------------------------------------------------------------------------
# Figure 7 -- the successor tree algorithms vs. BTC, full closure.
# ---------------------------------------------------------------------------

def figure7(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    families: tuple[str, ...] = ("G2", "G5", "G8", "G11"),
    buffer_pages: int = 20,
) -> dict[str, FigureData]:
    """(a) total I/O and (b) duplicates vs. average out-degree.

    The locality-200 graph families G2/G5/G8/G11 span F = 2..50.  The
    paper's findings: BTC beats the tree algorithms on page I/O even
    though they fetch fewer tuples; SPN closes the gap as the degree
    grows; JKB's preprocessing explodes with the degree; the tree
    algorithms generate far fewer duplicates (panel b).
    """
    spec = QuerySpec.full()
    system = SystemConfig(buffer_pages=buffer_pages)
    names = ("btc", "spn", "jkb", "jkb2")
    degrees = [graph_family(family_name).avg_out_degree for family_name in families]
    results = iter(engine.run_cells(
        [Cell(name, family_name, spec, system)
         for family_name in families for name in names],
        profile,
    ))
    cells: dict[str, list[AveragedMetrics]] = {name: [] for name in names}
    for _family_name in families:
        for name in names:
            cells[name].append(next(results))

    panel_a = FigureData(
        title="Figure 7(a). Successor tree algorithms vs BTC, full closure: total I/O",
        x_label="F",
        xs=degrees,
        series={
            "BTC": [m.total_io for m in cells["btc"]],
            "SPN": [m.total_io for m in cells["spn"]],
            "JKB": [m.total_io for m in cells["jkb"]],
            "JKB2": [m.total_io for m in cells["jkb2"]],
        },
    )
    panel_b = FigureData(
        title="Figure 7(b). Duplicates generated",
        x_label="F",
        xs=degrees,
        series={
            "BTC": [m.duplicates for m in cells["btc"]],
            "SPN": [m.duplicates for m in cells["spn"]],
        },
    )
    return {"a": panel_a, "b": panel_b}


# ---------------------------------------------------------------------------
# Figures 8-12 -- high-selectivity PTC on G4 and G11.
# ---------------------------------------------------------------------------

_HIGH_SEL_ALGOS = ("btc", "bj", "jkb2", "srch")


def _high_selectivity_cells(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    family: str,
    selectivities: tuple[int, ...],
    buffer_pages: int,
) -> tuple[list[int], dict[str, list[AveragedMetrics]]]:
    system = SystemConfig(buffer_pages=buffer_pages)
    xs = [profile.scaled_selectivity(s) for s in selectivities]
    results = iter(engine.run_cells(
        [Cell(name, family, QuerySpec.selection(profile.scaled_selectivity(s)), system)
         for s in selectivities for name in _HIGH_SEL_ALGOS],
        profile,
    ))
    cells: dict[str, list[AveragedMetrics]] = {name: [] for name in _HIGH_SEL_ALGOS}
    for _s in selectivities:
        for name in cells:
            cells[name].append(next(results))
    return xs, cells


def _high_selectivity_figure(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    metric: str,
    figure_title: str,
    families: tuple[str, ...],
    selectivities: tuple[int, ...],
    buffer_pages: int,
    algorithms: tuple[str, ...] = _HIGH_SEL_ALGOS,
) -> dict[str, FigureData]:
    panels: dict[str, FigureData] = {}
    for panel, family in zip("ab", families):
        xs, cells = _high_selectivity_cells(profile, engine, family, selectivities,
                                            buffer_pages)
        cells = {name: cells[name] for name in algorithms}
        panels[panel] = FigureData(
            title=f"{figure_title} ({family})",
            x_label="s",
            xs=xs,
            series={name.upper(): values for name, values in _metric_series(cells, metric).items()},
        )
    return panels


def figure8(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    families: tuple[str, ...] = ("G4", "G11"),
    selectivities: tuple[int, ...] = HIGH_SELECTIVITIES,
    buffer_pages: int = 10,
) -> dict[str, FigureData]:
    """Total I/O for high-selectivity PTC (the paper's two extremes:
    JKB2 at ~1/3 of BTC's I/O on G4, and 2-3x BTC's I/O on G11)."""
    return _high_selectivity_figure(
        profile, engine, "total_io", "Figure 8. High selectivity: total I/O",
        families, selectivities, buffer_pages,
    )


def figure9(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    families: tuple[str, ...] = ("G4", "G11"),
    selectivities: tuple[int, ...] = HIGH_SELECTIVITIES,
    buffer_pages: int = 10,
) -> dict[str, FigureData]:
    """Tuples generated (the selection-efficiency numerator's inverse):
    JKB2 generates under 1% of BTC/BJ's tuples; SRCH is optimal."""
    return _high_selectivity_figure(
        profile, engine, "tuples_generated", "Figure 9. High selectivity: tuples generated",
        families, selectivities, buffer_pages,
    )


def figure10(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    families: tuple[str, ...] = ("G4", "G11"),
    selectivities: tuple[int, ...] = HIGH_SELECTIVITIES,
    buffer_pages: int = 10,
) -> dict[str, FigureData]:
    """Successor-list unions: SRCH's count grows rapidly with s; JKB2
    performs many more unions than BTC/BJ (poor marking utilisation)."""
    return _high_selectivity_figure(
        profile, engine, "list_unions", "Figure 10. High selectivity: successor list unions",
        families, selectivities, buffer_pages,
    )


def figure11(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    families: tuple[str, ...] = ("G4", "G11"),
    selectivities: tuple[int, ...] = HIGH_SELECTIVITIES,
    buffer_pages: int = 10,
) -> dict[str, FigureData]:
    """Marking percentage: near zero for JKB2, zero for SRCH."""
    return _high_selectivity_figure(
        profile, engine, "marking_percentage", "Figure 11. High selectivity: marking percentage",
        families, selectivities, buffer_pages,
    )


def figure12(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    families: tuple[str, ...] = ("G4", "G11"),
    selectivities: tuple[int, ...] = HIGH_SELECTIVITIES,
    buffer_pages: int = 10,
) -> dict[str, FigureData]:
    """Average locality of unmarked (processed) arcs: much worse for
    JKB2, predicting its extra I/O per union."""
    return _high_selectivity_figure(
        profile, engine, "avg_unmarked_locality",
        "Figure 12. High selectivity: avg unmarked-arc locality",
        families, selectivities, buffer_pages,
    )


# ---------------------------------------------------------------------------
# Figure 13 -- effect of the buffer pool size.
# ---------------------------------------------------------------------------

def figure13(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    families: tuple[str, ...] = ("G4", "G11"),
    selectivity: int = 10,
    buffer_sizes: tuple[int, ...] = BUFFER_SIZES,
) -> dict[str, FigureData]:
    """Total I/O (panels a, b) and buffer hit ratio (panels c, d) as the
    buffer pool grows, for a 10-source PTC query.

    The paper's finding: all algorithms improve with M; JKB2 is the most
    sensitive -- its small special-node trees become memory-resident and
    its computation-phase I/O almost vanishes.
    """
    algorithms = ("btc", "jkb2", "srch")
    spec = QuerySpec.selection(profile.scaled_selectivity(selectivity))
    panels: dict[str, FigureData] = {}
    for io_panel, hit_panel, family in zip("ab", "cd", families):
        results = iter(engine.run_cells(
            [Cell(name, family, spec, SystemConfig(buffer_pages=buffer_pages))
             for buffer_pages in buffer_sizes for name in algorithms],
            profile,
        ))
        cells: dict[str, list[AveragedMetrics]] = {name: [] for name in algorithms}
        for _buffer_pages in buffer_sizes:
            for name in algorithms:
                cells[name].append(next(results))
        panels[io_panel] = FigureData(
            title=f"Figure 13({io_panel}). Total I/O vs buffer size ({family})",
            x_label="M",
            xs=list(buffer_sizes),
            series={n.upper(): v for n, v in _metric_series(cells, "total_io").items()},
        )
        panels[hit_panel] = FigureData(
            title=f"Figure 13({hit_panel}). Buffer hit ratio ({family})",
            x_label="M",
            xs=list(buffer_sizes),
            series={n.upper(): v for n, v in _metric_series(cells, "hit_ratio").items()},
        )
    return panels


# ---------------------------------------------------------------------------
# Figure 14 -- low-selectivity trends on G9.
# ---------------------------------------------------------------------------

def figure14(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    family: str = "G9",
    selectivities: tuple[int, ...] = LOW_SELECTIVITIES,
    buffer_pages: int = 20,
) -> dict[str, FigureData]:
    """Low-selectivity PTC: I/O, tuples generated, marking percentage
    and unions for BTC, BJ and JKB2 as s approaches n (where the three
    converge to the full closure)."""
    algorithms = ("btc", "bj", "jkb2")
    system = SystemConfig(buffer_pages=buffer_pages)
    xs = [profile.scaled_selectivity(s) for s in selectivities]
    results = iter(engine.run_cells(
        [Cell(name, family,
              QuerySpec.selection(profile.scaled_selectivity(s)), system)
         for s in selectivities for name in algorithms],
        profile,
    ))
    cells: dict[str, list[AveragedMetrics]] = {name: [] for name in algorithms}
    for _s in selectivities:
        for name in algorithms:
            cells[name].append(next(results))

    def panel(letter: str, metric: str, label: str) -> FigureData:
        return FigureData(
            title=f"Figure 14({letter}). Low selectivity: {label} ({family})",
            x_label="s",
            xs=xs,
            series={n.upper(): v for n, v in _metric_series(cells, metric).items()},
        )

    return {
        "a": panel("a", "total_io", "total I/O"),
        "b": panel("b", "tuples_generated", "tuples generated"),
        "c": panel("c", "marking_percentage", "marking percentage"),
        "d": panel("d", "list_unions", "successor list unions"),
    }


# ---------------------------------------------------------------------------
# Chains figure -- the modern chain-decomposition family vs BTC/HYB.
# ---------------------------------------------------------------------------

def figure_chains(
    profile: ScaleProfile,
    engine: ExperimentEngine,
    family: str = "G9",
    buffer_sizes: tuple[int, ...] = (10, 20, 50),
    ilimit: float = 0.2,
) -> FigureData:
    """Total I/O of the chain-decomposition family vs BTC and Hybrid.

    A comparison the 1994 study could never draw: the ``chains`` family
    (Kritikakis & Tollis) builds k-vector reachability summaries on
    dedicated pages and emits each closure from one vector read, never
    re-reading another node's expanded list.  Run under the same cost
    model, the figure shows where the modern index's page bill --
    vector construction plus suffix emission -- undercuts the paper's
    repeated successor-list unions, and how each side responds to
    buffer pressure.
    """
    spec = QuerySpec.full()
    data = FigureData(
        title=f"Figure C1. Chain-decomposition index vs BTC/HYB, "
        f"full closure ({family})",
        x_label="M",
        xs=list(buffer_sizes),
    )
    names = ("btc", "hyb", "chains")
    labels = {"btc": "BTC", "hyb": f"HYB-{ilimit:g}", "chains": "CHAINS"}
    results = iter(engine.run_cells(
        [Cell(name, family, spec,
              SystemConfig(buffer_pages=buffer_pages, ilimit=ilimit))
         for buffer_pages in buffer_sizes for name in names],
        profile,
    ))
    curves: dict[str, list[float]] = {labels[name]: [] for name in names}
    for _buffer_pages in buffer_sizes:
        for name in names:
            curves[labels[name]].append(next(results).total_io)
    data.series = curves
    return data


ALL_FIGURES = {
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "figure_chains": figure_chains,
}
"""Every figure entry point, keyed by name (used by ``run_all``)."""
