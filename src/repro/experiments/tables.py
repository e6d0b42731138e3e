"""Regeneration of the paper's Tables 2, 3 and 4.

(Table 1 is the query parameter grid; it is data, not an experiment --
see :mod:`repro.graphs.datasets`.)
"""

from __future__ import annotations

import time

from repro.core.query import SystemConfig
from repro.core.registry import make_algorithm
from repro.experiments.config import ScaleProfile, get_profile
from repro.experiments.parallel import Cell, run_cells
from repro.experiments.queries import QuerySpec
from repro.graphs.analysis import profile_graph
from repro.graphs.datasets import GRAPH_FAMILIES


def table2(profile: ScaleProfile | str = "default") -> list[dict[str, object]]:
    """Table 2: characteristics of the G1..G12 graphs.

    Columns mirror the paper: generation parameters (F, l), number of
    arcs, maximum node level, rectangle-model height and width, average
    locality of all arcs and of the irredundant arcs, and the size of
    the transitive closure.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    rows = []
    for family in GRAPH_FAMILIES:
        graph = profile.build(family, seed=0)
        stats = profile_graph(graph)
        rows.append(
            {
                "graph": family.name,
                "F": family.avg_out_degree,
                "l": max(1, family.locality // profile.scale),
                "arcs": stats.num_arcs,
                "max_level": stats.max_level,
                "H": round(stats.height),
                "W": round(stats.width),
                "avg_loc": round(stats.avg_arc_locality),
                "avg_irred_loc": round(stats.avg_irredundant_locality),
                "closure": stats.closure_size,
            }
        )
    return rows


def table3(profile: ScaleProfile | str = "default") -> list[dict[str, object]]:
    """Table 3: I/O and CPU cost breakdown of BTC (G6, CTC, M=10..50).

    The paper reports real/user/system time measured with Unix ``time``
    plus the simulated page I/O count and the estimated I/O time at
    20 ms per I/O.  Here real time is wall-clock time, user time is
    process CPU time, and the I/O columns come from the same simulated
    buffer manager.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    graph = profile.build("G6", seed=0)
    rows = []
    for buffer_pages in (10, 20, 50):
        algorithm = make_algorithm("btc")
        start = time.perf_counter()
        result = algorithm.run(graph, system=SystemConfig(buffer_pages=buffer_pages))
        wall = time.perf_counter() - start
        metrics = result.metrics
        rows.append(
            {
                "M": buffer_pages,
                "real_s": round(wall, 3),
                "user_s": round(metrics.cpu_seconds, 3),
                "restructure_cpu_s": round(metrics.restructure_cpu_seconds, 3),
                "page_io": metrics.total_io,
                "est_io_s": round(metrics.estimated_io_seconds(), 2),
                "io_bound": metrics.estimated_io_seconds() > metrics.cpu_seconds,
            }
        )
    return rows


def table4(
    profile: ScaleProfile | str = "default",
    selectivities: tuple[int, ...] = (5, 10),
) -> list[dict[str, object]]:
    """Table 4: JKB2 I/O relative to BTC, against graph width.

    Graphs are sorted by increasing rectangle-model width; each cell is
    JKB2's total I/O divided by BTC's for the same PTC queries (s = 5
    and s = 10 source nodes, M = 10 buffer pages).  The paper's
    observation: the ratio grows with the width -- JKB2 wins on narrow
    graphs and loses on wide ones -- and is far less sensitive to the
    height.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    system = SystemConfig(buffer_pages=10)
    results = iter(run_cells(
        [Cell(name, family.name,
              QuerySpec.selection(profile.scaled_selectivity(s)), system)
         for family in GRAPH_FAMILIES for s in selectivities
         for name in ("btc", "jkb2")],
        profile,
    ))
    rows = []
    for family in GRAPH_FAMILIES:
        graph = profile.build(family, seed=0)
        stats = profile_graph(graph, include_closure_size=False)
        row: dict[str, object] = {
            "graph": family.name,
            "W": round(stats.width),
            "H": round(stats.height),
        }
        for s in selectivities:
            btc = next(results)
            jkb2 = next(results)
            ratio = jkb2.total_io / btc.total_io if btc.total_io else 0.0
            row[f"jkb2/btc@s={s}"] = round(ratio, 2)
        rows.append(row)
    rows.sort(key=lambda row: row["W"])
    return rows
