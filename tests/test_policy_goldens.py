"""Replacement-policy goldens: full algorithm runs under every page policy.

The figure-6 counter goldens run LRU only.  These pin the page-level
counters of BTC, Hybrid, JKB2 and SPN (full closure) and of SRCH (a
20-source PTC) on G9 at scale 8 with a 10-page pool, under each of the
five replacement policies, so a change to how the pool drives a policy
(admission, hits, victims) cannot move a count unnoticed.

Regenerate only when the cost model is deliberately changed::

    PYTHONPATH=src python tests/test_policy_goldens.py > tests/goldens/policy_counters.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.graphs.datasets import build_graph, sample_sources
from repro.obs.record import io_stats_dict

GOLDEN_PATH = Path(__file__).parent / "goldens" / "policy_counters.json"

WORKLOAD = {"family": "G9", "scale": 8, "seed": 0, "buffer_pages": 10}
POLICIES = ("lru", "mru", "fifo", "clock", "random")
# algorithm -> PTC source count (None: full closure)
RUNS = {"btc": None, "hyb": None, "jkb2": None, "spn": None, "srch": 20}
FIELDS = (
    "total_io",
    "reads_by_phase",
    "writes_by_phase",
    "requests_by_phase",
    "hits_by_phase",
)


def _counters(algorithm: str, policy: str) -> dict:
    graph = build_graph(
        WORKLOAD["family"], seed=WORKLOAD["seed"], scale=WORKLOAD["scale"]
    )
    sources = RUNS[algorithm]
    query = (
        Query.full() if sources is None
        else Query.ptc(sample_sources(graph, sources, seed=WORKLOAD["seed"]))
    )
    system = SystemConfig(
        buffer_pages=WORKLOAD["buffer_pages"], page_policy=policy, engine="paged"
    )
    io = io_stats_dict(make_algorithm(algorithm).run(graph, query, system).metrics.io)
    return {field: io[field] for field in FIELDS}


def _key(algorithm: str, policy: str) -> str:
    return f"{algorithm}:{policy}"


def generate() -> dict:
    return {
        "workload": WORKLOAD,
        "cells": {
            _key(algorithm, policy): _counters(algorithm, policy)
            for algorithm in RUNS
            for policy in POLICIES
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_run(golden):
    assert golden["workload"] == WORKLOAD
    assert set(golden["cells"]) == {
        _key(algorithm, policy) for algorithm in RUNS for policy in POLICIES
    }


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("algorithm", sorted(RUNS))
def test_counters_match_golden(golden, algorithm, policy):
    expected = golden["cells"][_key(algorithm, policy)]
    actual = _counters(algorithm, policy)
    assert actual == expected, (
        f"{algorithm} under {policy}: counters moved in "
        f"{[field for field in FIELDS if actual[field] != expected[field]]}"
    )


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
