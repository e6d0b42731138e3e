"""Reproduction harness for the paper's evaluation section.

One entry point per table and figure:

* :func:`repro.experiments.tables.table2` -- graph characteristics.
* :func:`repro.experiments.tables.table3` -- BTC cost breakdown.
* :func:`repro.experiments.tables.table4` -- JKB2/BTC ratio vs. width.
* :func:`repro.experiments.figures.figure6` .. ``figure14`` -- the
  figure data series.

Everything is parameterised by a :class:`ScaleProfile` so the full
suite can run at the paper's scale (``paper``), at a faster reduced
scale (``default``) or as a quick smoke test (``smoke``).

Run everything from the command line::

    python -m repro.experiments.run_all --profile default
"""

from repro.experiments.config import PROFILES, ScaleProfile, get_profile
from repro.experiments.parallel import (
    Cell,
    ExperimentEngine,
    GraphSpec,
    WorkUnit,
    run_cells,
    use_engine,
)
from repro.experiments.queries import QuerySpec

__all__ = [
    "PROFILES",
    "Cell",
    "ExperimentEngine",
    "GraphSpec",
    "QuerySpec",
    "ScaleProfile",
    "WorkUnit",
    "get_profile",
    "run_cells",
    "use_engine",
]
