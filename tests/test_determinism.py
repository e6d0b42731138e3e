"""Determinism regression tests for the experiment protocol.

The parallel engine's bit-identical guarantee rests on one invariant:
an experimental cell is a pure function of its explicit seeds.  These
tests guard that invariant against accidental ``dict``-ordering,
``hash``-randomisation, or mutable-global-state nondeterminism -- by
running the same cell twice in one process, and once more in a fresh
subprocess (with a different ``PYTHONHASHSEED``), and requiring the
simulator counters to match exactly.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.query import SystemConfig
from repro.experiments.config import get_profile
from repro.experiments.parallel import Cell, ExperimentEngine, GraphSpec
from repro.experiments.queries import QuerySpec

CELL = dict(algorithm="jkb2", family="G5")

# AveragedMetrics contains only simulated counters (no wall-clock or
# CPU fields), so full dataclass equality is the right comparison.


def _run_cell():
    """The cell on a fresh engine: no memo or graph carries over."""
    with ExperimentEngine() as engine:
        (metrics,) = engine.run_cells(
            [Cell(CELL["algorithm"], CELL["family"], QuerySpec.selection(3),
                  SystemConfig(buffer_pages=10))],
            get_profile("smoke"),
        )
    return metrics


class TestInProcessDeterminism:
    def test_same_cell_twice_is_bit_identical(self):
        assert _run_cell() == _run_cell()

    def test_counters_stable_across_graph_rebuilds(self, monkeypatch):
        """Rebuilding the graph from its seed cannot change counters."""
        builds = []
        build = GraphSpec.build
        monkeypatch.setattr(GraphSpec, "build", lambda spec: builds.append(spec) or build(spec))
        first = dataclasses.asdict(_run_cell())
        second = dataclasses.asdict(_run_cell())
        # Each call's engine builds the smoke profile's one graph afresh.
        assert len(builds) == 2
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


_SUBPROCESS_SCRIPT = """
import dataclasses, json
from repro.core.query import SystemConfig
from repro.experiments.config import get_profile
from repro.experiments.parallel import Cell, ExperimentEngine
from repro.experiments.queries import QuerySpec

with ExperimentEngine() as engine:
    (metrics,) = engine.run_cells([Cell("{algorithm}", "{family}", QuerySpec.selection(3),
                                        SystemConfig(buffer_pages=10))],
                                  get_profile("smoke"))
print(json.dumps(dataclasses.asdict(metrics), sort_keys=True))
"""


class TestCrossProcessDeterminism:
    def test_subprocess_with_fresh_interpreter_matches(self):
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src_dir}{os.pathsep}{env.get('PYTHONPATH', '')}"
        # A different hash seed would expose any reliance on set/dict
        # iteration order of hash-randomised keys.
        env["PYTHONHASHSEED"] = "12345"
        completed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT.format(**CELL)],
            capture_output=True, text=True, env=env, timeout=300, check=False,
        )
        assert completed.returncode == 0, completed.stderr
        subprocess_metrics = json.loads(completed.stdout)
        local_metrics = dataclasses.asdict(_run_cell())
        assert subprocess_metrics == local_metrics
