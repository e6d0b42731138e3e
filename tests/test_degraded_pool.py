"""Degraded-buffer-pool battery: tiny pools never crash the suite.

The paper's experiments run down to a 10-page pool (Section 5.1).  The
contract tested here is stronger: at *any* pool size -- including a
single page, below what one successor-list operation may need -- every
algorithm either completes with the correct closure or fails with a
structured :class:`~repro.errors.ReproError` (Hybrid's dynamic
reblocking legitimately gives up on pools it cannot reblock into).
An unstructured crash (KeyError, RecursionError, ...) is a bug.
"""

import pytest

from repro.core.query import Query, SystemConfig
from repro.core.registry import ALGORITHM_NAMES, make_algorithm
from repro.errors import ReproError

from conftest import oracle_closure


@pytest.fixture(autouse=True)
def strict_audit(monkeypatch):
    """The battery doubles as an invariant stress test."""
    monkeypatch.setenv("REPRO_AUDIT", "strict")


def _check(algorithm_name, graph, buffer_pages, query=None):
    query = query or Query.full()
    system = SystemConfig(buffer_pages=buffer_pages)
    try:
        result = make_algorithm(algorithm_name).run(graph, query, system)
    except ReproError:
        return  # a structured refusal is an acceptable outcome
    oracle = oracle_closure(graph)
    for node in result.successor_bits:
        assert set(result.successors_of(node)) == oracle[node], (
            f"{algorithm_name} wrong at M={buffer_pages}"
        )


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@pytest.mark.parametrize("buffer_pages", [1, 3, 10])
class TestDegradedPools:
    def test_full_closure(self, name, buffer_pages, small_dag):
        _check(name, small_dag, buffer_pages)

    def test_selection_query(self, name, buffer_pages, small_dag):
        _check(name, small_dag, buffer_pages, Query.ptc([0, 5, 11]))


def test_paper_floor_runs_everything(small_dag):
    """At the paper's 10-page floor every algorithm must *succeed*."""
    for name in ALGORITHM_NAMES:
        if name == "srch":
            result = make_algorithm(name).run(
                small_dag, Query.ptc([0]), SystemConfig(buffer_pages=10)
            )
        else:
            result = make_algorithm(name).run(
                small_dag, Query.full(), SystemConfig(buffer_pages=10)
            )
        assert result.metrics.total_io > 0
