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

Telemetry: a process-wide :class:`~repro.obs.sink.MemorySink` collects
one :class:`~repro.obs.record.RunRecord` per algorithm run made by the
suite, and at session end the records are folded into one entry per
benchmark cell and written to ``BENCH_summary.json`` at the repository
root -- the perf trajectory later changes are diffed against (see
``python -m repro compare`` and docs/OBSERVABILITY.md).

Execution: one :class:`~repro.experiments.parallel.ExperimentEngine`
runs every table and figure grid of the session -- in this process at
``--repro-jobs 1``, across worker processes otherwise -- and its cell
memo replays a cell another benchmark already ran.

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


def pytest_sessionstart(session):
    from repro.experiments.parallel import ExperimentEngine, set_engine
    from repro.obs.sink import MemorySink, set_global_sink

    sink = MemorySink()
    session.config._repro_bench_sink = sink
    session.config._repro_prev_sink = set_global_sink(sink)

    # One engine (with its worker pool and per-worker graph caches at
    # --repro-jobs > 1) for the whole benchmark session; its records
    # reach this process's MemorySink above in canonical order.
    engine = ExperimentEngine(
        jobs=session.config.getoption("--repro-jobs"),
        reps=session.config.getoption("--repro-reps"),
    )
    session.config._repro_engine = engine
    session.config._repro_prev_engine = set_engine(engine)


def pytest_sessionfinish(session, exitstatus):
    from repro.experiments.parallel import set_engine
    from repro.obs.bench import build_bench_summary, write_bench_summary
    from repro.obs.sink import set_global_sink

    engine = getattr(session.config, "_repro_engine", None)
    if engine is not None:
        set_engine(getattr(session.config, "_repro_prev_engine", None))
        engine.close()

    sink = getattr(session.config, "_repro_bench_sink", None)
    if sink is None:
        return
    set_global_sink(getattr(session.config, "_repro_prev_sink", None))
    summary = build_bench_summary(sink.records)
    if not summary:
        return
    write_bench_summary(summary, session.config.rootpath / "BENCH_summary.json")