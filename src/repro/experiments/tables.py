"""Regeneration of the paper's Tables 2, 3 and 4.

Each ``tableN(profile, engine)`` returns one dictionary per row.  Every
algorithm run is a work unit of ``engine``, and the rows' seed-0 graphs
come from its graph cache, so a graph its units built is not rebuilt.

(Table 1 is the query parameter grid; it is data, not an experiment --
see :mod:`repro.graphs.datasets`.)
"""

from __future__ import annotations

import math

from repro.core.query import SystemConfig
from repro.experiments.config import ScaleProfile
from repro.experiments.parallel import Cell, ExperimentEngine, GraphSpec, WorkUnit
from repro.experiments.queries import QuerySpec
from repro.graphs.analysis import profile_graph
from repro.graphs.datasets import GRAPH_FAMILIES


def table2(profile: ScaleProfile, engine: ExperimentEngine) -> list[dict[str, object]]:
    """Table 2: characteristics of the G1..G12 graphs.

    Columns mirror the paper: generation parameters (F, l), number of
    arcs, maximum node level, rectangle-model height and width, average
    locality of all arcs and of the irredundant arcs, and the size of
    the transitive closure.
    """
    rows = []
    for family in GRAPH_FAMILIES:
        graph = engine.graph(GraphSpec.for_profile(family.name, profile, 0))
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


def table3(profile: ScaleProfile, engine: ExperimentEngine) -> list[dict[str, object]]:
    """Table 3: I/O and CPU cost breakdown of BTC (G6, CTC, M=10..50).

    The paper reports real/user/system time measured with Unix ``time``
    plus the simulated page I/O count and the estimated I/O time at
    20 ms per I/O.  Here each M is one work unit of ``engine``: real
    time is the wall time of the run whose result the row reports, user
    time is its process CPU time, and the I/O columns come from the
    same simulated buffer manager.  A unit that fails for good (its
    error is on ``engine.failures``) leaves a row of ``nan``.
    """
    buffer_sizes = (10, 20, 50)
    graph = GraphSpec.for_profile("G6", profile, 0)
    outcomes = engine.map_units([
        WorkUnit(cell_index=index, algorithm="btc", graph=graph,
                 query=QuerySpec.full(), system=SystemConfig(buffer_pages=buffer_pages))
        for index, buffer_pages in enumerate(buffer_sizes)
    ])
    rows: list[dict[str, object]] = []
    for buffer_pages, outcome in zip(buffer_sizes, outcomes):
        if outcome.result is None:
            columns = ("real_s", "user_s", "restructure_cpu_s", "page_io", "est_io_s", "io_bound")
            rows.append({"M": buffer_pages, **dict.fromkeys(columns, math.nan)})
            continue
        metrics = outcome.result.metrics
        rows.append(
            {
                "M": buffer_pages,
                "real_s": round(outcome.records[-1].wall_seconds, 3),
                "user_s": round(metrics.cpu_seconds, 3),
                "restructure_cpu_s": round(metrics.restructure_cpu_seconds, 3),
                "page_io": metrics.total_io,
                "est_io_s": round(metrics.estimated_io_seconds(), 2),
                "io_bound": metrics.estimated_io_seconds() > metrics.cpu_seconds,
            }
        )
    return rows


def table4(
    profile: ScaleProfile,
    engine: ExperimentEngine,
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
    system = SystemConfig(buffer_pages=10)
    results = iter(engine.run_cells(
        [Cell(name, family.name,
              QuerySpec.selection(profile.scaled_selectivity(s)), system)
         for family in GRAPH_FAMILIES for s in selectivities
         for name in ("btc", "jkb2")],
        profile,
    ))
    rows = []
    for family in GRAPH_FAMILIES:
        graph = engine.graph(GraphSpec.for_profile(family.name, profile, 0))
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
