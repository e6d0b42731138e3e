"""Scale profiles for the experiment suite.

The paper's workloads use 2000-node graphs, five random graphs per
family and five source-node samples per selection experiment.  A pure
Python reproduction can run that grid, but not in seconds; the profiles
below trade repetitions and graph size for wall-clock time while
preserving each family's shape (the scale factor divides the node count
and the generation locality together, so relative density and locality
are unchanged).

========  =====  ============  ==============  =========================
profile   scale  graphs/family  source samples  intended use
========  =====  ============  ==============  =========================
paper     1      3             3               full reproduction runs
default   2      2             2               `run_all`, EXPERIMENTS.md
smoke     8      1             1               tests and benchmarks
========  =====  ============  ==============  =========================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.graphs.datasets import PAPER_NUM_NODES


@dataclass(frozen=True)
class ScaleProfile:
    """How big and how repeated the experiment runs are."""

    name: str
    scale: int
    graphs_per_family: int
    source_samples: int

    def scaled_selectivity(self, s: int) -> int:
        """Scale a paper selectivity value to this profile's graph size.

        Keeping ``s`` proportional to ``n`` preserves the high/low
        selectivity regimes of Section 6.3.
        """
        return max(1, s // self.scale)

    @property
    def num_nodes(self) -> int:
        """Nodes per generated graph under this profile."""
        return max(2, PAPER_NUM_NODES // self.scale)


PROFILES: dict[str, ScaleProfile] = {
    "paper": ScaleProfile("paper", scale=1, graphs_per_family=3, source_samples=3),
    "default": ScaleProfile("default", scale=2, graphs_per_family=2, source_samples=2),
    "smoke": ScaleProfile("smoke", scale=8, graphs_per_family=1, source_samples=1),
}


def get_profile(name: str) -> ScaleProfile:
    """Look up a profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        valid = ", ".join(PROFILES)
        raise ConfigurationError(
            f"unknown scale profile {name!r}; valid profiles: {valid}"
        ) from None
