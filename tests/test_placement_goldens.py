"""List-placement goldens: full closures under every list placement policy.

The policy goldens vary the page replacement policy only, and every
other golden runs ``MOVE_SELF``.  These pin the page-level counters of
BTC, Hybrid, JKB2 and SPN (full closure) on G2, G6, G9 and G12 at scale
8 under each of the three list placement policies, at M=10 and M=20.
The relocating policies move other lists off a full page, and Hybrid
reblocks in 20 of the 24 cells it runs, so a change to how the
successor store places blocks, or to how Hybrid pins and discards the
pages of its diagonal block, cannot move a count unnoticed.

Regenerate only when the cost model is deliberately changed::

    PYTHONPATH=src python tests/test_placement_goldens.py > tests/goldens/placement_counters.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.graphs.datasets import build_graph
from repro.obs.record import io_stats_dict
from repro.storage.successor_store import ListPlacementPolicy

GOLDEN_PATH = Path(__file__).parent / "goldens" / "placement_counters.json"

WORKLOAD = {"scale": 8, "seed": 0}
FAMILIES = ("G2", "G6", "G9", "G12")
ALGORITHMS = ("btc", "hyb", "jkb2", "spn")
POLICIES = tuple(policy.value for policy in ListPlacementPolicy)
BUFFER_PAGES = (10, 20)
FIELDS = (
    "total_io",
    "reads_by_phase",
    "writes_by_phase",
    "requests_by_phase",
    "hits_by_phase",
)


def _key(family: str, algorithm: str, policy: str, buffer_pages: int) -> str:
    return f"{family}:{algorithm}:{policy}:M={buffer_pages}"


def _family_counters(family: str) -> dict:
    graph = build_graph(family, seed=WORKLOAD["seed"], scale=WORKLOAD["scale"])
    cells = {}
    for algorithm in ALGORITHMS:
        for policy in POLICIES:
            for buffer_pages in BUFFER_PAGES:
                system = SystemConfig(
                    buffer_pages=buffer_pages, list_policy=policy, engine="paged"
                )
                metrics = make_algorithm(algorithm).run(graph, Query.full(), system).metrics
                io = io_stats_dict(metrics.io)
                cell = {field: io[field] for field in FIELDS}
                cell["reblocking_events"] = metrics.reblocking_events
                cells[_key(family, algorithm, policy, buffer_pages)] = cell
    return cells


def generate() -> dict:
    cells = {}
    for family in FAMILIES:
        cells.update(_family_counters(family))
    return {"workload": WORKLOAD, "cells": cells}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_run(golden):
    assert golden["workload"] == WORKLOAD
    assert len(golden["cells"]) == 96
    reblocking = [cell for cell in golden["cells"].values() if cell["reblocking_events"]]
    assert len(reblocking) == 20


@pytest.mark.parametrize("family", FAMILIES)
def test_counters_match_golden(golden, family):
    actual = _family_counters(family)
    moved = [
        key for key, cell in actual.items() if cell != golden["cells"][key]
    ]
    assert not moved, f"counters moved in {moved[:5]} ({len(moved)} of {len(actual)})"


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
