"""Reproduction harness for the paper's evaluation section.

One entry point per table and figure:

* :func:`repro.experiments.tables.table2` -- graph characteristics.
* :func:`repro.experiments.tables.table3` -- BTC cost breakdown.
* :func:`repro.experiments.tables.table4` -- JKB2/BTC ratio vs. width.
* :func:`repro.experiments.figures.figure6` .. ``figure14`` -- the
  figure data series.

Each takes a :class:`ScaleProfile` -- the paper's scale (``paper``), a
faster reduced scale (``default``) or a quick smoke test (``smoke``) --
and the :class:`ExperimentEngine` that runs its closure runs and emits
their records to its ``sink``.  Run everything, as text and CSV::

    python -m repro.experiments.run_all --profile default --csv results/
"""

from repro.experiments.config import PROFILES, ScaleProfile, get_profile
from repro.experiments.parallel import Cell, ExperimentEngine, GraphSpec, WorkUnit
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
]
