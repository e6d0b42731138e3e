"""Tuple-level counter goldens: every algorithm kernel on both engines.

The figure-6 and policy goldens pin page counts.  These pin what a
kernel counts for itself -- tuples generated, duplicates, tuple I/O,
unions, marking -- together with the pool's request, hit, read and
write totals and a digest of the answer, so a kernel rewrite that
miscounts a tuple, reorders a storage call or changes an answer fails
here even where no page count moves.

Cells: seven algorithms on G2, G6, G9 and G12 at scale 8 (seed-0
graphs), each under the full closure and PTC queries of 5 and 40
sources drawn by ``sample_sources(seed=0)`` (SRCH answers PTC only),
on the paged engine (M=20, LRU) and the fast engine.

Regenerate only when a counter is deliberately changed::

    PYTHONPATH=src python tests/test_kernel_goldens.py > tests/goldens/kernel_counters.json
"""

import hashlib
import json
import sys
from dataclasses import fields
from functools import cache
from pathlib import Path

import pytest

from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.graphs.datasets import build_graph, sample_sources
from repro.metrics.counters import MetricSet

GOLDEN_PATH = Path(__file__).parent / "goldens" / "kernel_counters.json"

WORKLOAD = {"scale": 8, "seed": 0, "buffer_pages": 20, "page_policy": "lru"}
ALGORITHMS = ("btc", "hyb", "bj", "srch", "spn", "jkb", "jkb2")
FAMILIES = ("G2", "G6", "G9", "G12")
QUERIES = {"full": None, "s5": 5, "s40": 40}
ENGINES = ("paged", "fast")

COUNTERS = tuple(
    f.name
    for f in fields(MetricSet)
    if f.name not in ("io", "cpu_seconds", "restructure_cpu_seconds")
)


@cache
def _graph(family: str):
    return build_graph(family, seed=WORKLOAD["seed"], scale=WORKLOAD["scale"])


def _queries(algorithm: str) -> list[str]:
    return [name for name in QUERIES if not (algorithm == "srch" and name == "full")]


def _key(algorithm: str, family: str, query: str, engine: str) -> str:
    return f"{algorithm}:{family}:{query}:{engine}"


def _digest(successor_bits: dict[int, int]) -> str:
    canonical = ",".join(f"{node}:{bits:x}" for node, bits in sorted(successor_bits.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _cell(algorithm: str, family: str, query: str, engine: str) -> dict:
    graph = _graph(family)
    count = QUERIES[query]
    spec = (
        Query.full() if count is None
        else Query.ptc(sample_sources(graph, count, seed=WORKLOAD["seed"]))
    )
    system = SystemConfig(
        buffer_pages=WORKLOAD["buffer_pages"],
        page_policy=WORKLOAD["page_policy"],
        engine=engine,
    )
    result = make_algorithm(algorithm).run(graph, spec, system)
    metrics = result.metrics
    io = metrics.io
    cell = {name: getattr(metrics, name) for name in COUNTERS}
    cell.update(
        requests=io.total_requests,
        hits=io.total_hits,
        reads=io.total_reads,
        writes=io.total_writes,
        answer=_digest(result.successor_bits),
    )
    return cell


def _cells(algorithm: str, family: str) -> dict[str, dict]:
    return {
        _key(algorithm, family, query, engine): _cell(algorithm, family, query, engine)
        for query in _queries(algorithm)
        for engine in ENGINES
    }


def generate() -> dict:
    cells: dict[str, dict] = {}
    for algorithm in ALGORITHMS:
        for family in FAMILIES:
            cells.update(_cells(algorithm, family))
    return {"workload": WORKLOAD, "cells": cells}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_cell(golden):
    assert golden["workload"] == WORKLOAD
    assert set(golden["cells"]) == {
        _key(algorithm, family, query, engine)
        for algorithm in ALGORITHMS
        for family in FAMILIES
        for query in _queries(algorithm)
        for engine in ENGINES
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_counters_match_golden(golden, algorithm, family):
    actual = _cells(algorithm, family)
    moved = {
        key: sorted(name for name in cell if cell[name] != golden["cells"][key][name])
        for key, cell in actual.items()
        if cell != golden["cells"][key]
    }
    assert not moved, f"counters moved: {moved}"


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
