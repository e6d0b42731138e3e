"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at the
``smoke`` scale profile (250-node graphs) so that the full suite runs
in minutes; pass ``--repro-profile default`` or ``paper`` for bigger
runs (the ``paper`` profile uses the full 2000-node workloads and can
take hours for the tree-algorithm figures).

Each benchmark prints the regenerated rows/series (visible with
``pytest -s`` or in the captured output) and asserts the *shape* the
paper reports -- who wins, and roughly how the curves move -- not the
absolute numbers.

Execution: the session ``engine`` fixture is one
:class:`~repro.experiments.parallel.ExperimentEngine` that every table
and figure benchmark passes to its builder -- in this process at
``--repro-jobs 1``, across worker processes otherwise -- and its cell
memo replays a cell another benchmark already ran.

Telemetry: the engine's :class:`~repro.obs.sink.MemorySink` collects
one :class:`~repro.obs.record.RunRecord` per run of every cell, and at
session end the records are folded into one entry per benchmark cell
and written to ``BENCH_summary.json`` at the repository root -- the
perf trajectory later changes are diffed against (see ``python -m
repro compare`` and docs/OBSERVABILITY.md).

Repetitions: ``--repro-reps N`` sets the engine's repetition count, so
every run is repeated N times at any ``--repro-jobs``.  The simulated
counters are deterministic, so this purely multiplies the timing
samples -- the summary records min-of-N ``cpu_seconds`` /
``wall_seconds`` plus every sample, which is what the compare gate's
noise band needs.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-profile",
        default="smoke",
        choices=["smoke", "default", "paper"],
        help="scale profile for the reproduction benchmarks",
    )
    parser.addoption(
        "--repro-jobs",
        type=int,
        default=1,
        help="worker processes for the experiment grids (default: 1 = "
        "in-process; run records merge into the session sink in canonical order)",
    )
    parser.addoption(
        "--repro-reps",
        type=int,
        default=1,
        help="repeat every run N times (min-of-N timings, all samples "
        "recorded in BENCH_summary.json)",
    )


@pytest.fixture(scope="session")
def profile(request):
    from repro.experiments.config import get_profile

    return get_profile(request.config.getoption("--repro-profile"))


@pytest.fixture(scope="session")
def engine(request):
    from repro.experiments.parallel import ExperimentEngine
    from repro.obs.bench import build_bench_summary, write_bench_summary
    from repro.obs.sink import MemorySink

    # One engine (with its worker pool and per-worker graph caches at
    # --repro-jobs > 1) for the whole benchmark session; its records
    # reach the sink in canonical order.
    sink = MemorySink()
    with ExperimentEngine(
        jobs=request.config.getoption("--repro-jobs"),
        reps=request.config.getoption("--repro-reps"),
        sink=sink,
    ) as engine:
        yield engine
    summary = build_bench_summary(sink.records)
    if summary:
        write_bench_summary(summary, request.config.rootpath / "BENCH_summary.json")
