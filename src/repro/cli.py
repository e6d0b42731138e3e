"""Command line front end: run, profile, and compare algorithm runs.

Examples::

    # Full closure of graph family G6 with BTC, 20 buffer pages
    python -m repro --algorithm btc --family G6 --buffer-pages 20

    # 10-source selection on a custom random DAG with JKB2
    python -m repro --algorithm jkb2 --nodes 1000 --out-degree 5 \\
        --locality 200 --sources 10 --buffer-pages 10

    # Compare the whole suite on one query
    python -m repro --algorithm all --family G4 --scale 4 --sources 5

    # Emit one RunRecord per algorithm as JSONL (clean pipeline output)
    python -m repro --algorithm btc --family G4 --scale 4 \\
        --emit-json out.jsonl --quiet

    # Buffer-pool profile: hit-ratio timeline, kind histogram, hot pages
    python -m repro profile --algorithm btc --family G4 --scale 4

    # Chain-decomposition reachability index: build + verified spot queries
    python -m repro chains --family G4 --scale 4 --queries 500 --engine fast

    # Ingest a real edge list (SNAP format), build + verify the index
    python -m repro ingest soc-Epinions1.txt.gz --stats \\
        --build-index --engine fast --probes 1000

    # Serve reachability queries over HTTP with graceful degradation
    python -m repro serve --family G4 --scale 4 --engine fast --port 8642
    python -m repro serve --family G4 --scale 4 --self-check 200

    # Engine event trace (Chrome trace-event JSON; open in Perfetto)
    python -m repro --algorithm btc --family G4 --scale 4 \\
        --trace-out run.trace.json

    # Regression gate between two JSONL record files (total_io exact,
    # wall gated with a noise band derived from --reps samples)
    python -m repro compare baseline.jsonl out.jsonl --wall-threshold 0.1

    # Render the self-contained HTML dashboard
    python -m repro obs report --records out.jsonl --trace run.trace.json \\
        --out report.html
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable, Sequence

from repro.baselines import BASELINE_NAMES, make_baseline
from repro.chaos.audit import AUDIT_MODES, ENV_AUDIT, set_audit_mode
from repro.chaos.faults import ENV_CHAOS, FaultPlan, set_fault_plan
from repro.core.base import TwoPhaseAlgorithm
from repro.core.query import Query, SystemConfig
from repro.core.registry import ALGORITHM_NAMES, make_algorithm
from repro.graphs.datasets import build_graph, sample_sources
from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag
from repro.metrics.report import format_table
from repro.obs.compare import compare_runs, load_records
from repro.obs.record import RunRecord, summarise_trace
from repro.obs.sink import JsonlSink
from repro.obs.spans import SpanRecorder
from repro.obs.tracing import TraceCollector, validate_chrome_trace, write_chrome_trace
from repro.storage.engine import ENGINE_NAMES


def _build_graph(args: argparse.Namespace) -> Digraph:
    if args.family:
        return build_graph(args.family, seed=args.seed, scale=args.scale)
    return generate_dag(args.nodes, args.out_degree, args.locality, seed=args.seed)


def _build_query(graph: Digraph, args: argparse.Namespace) -> Query:
    if args.sources is None:
        return Query.full()
    return Query.ptc(sample_sources(graph, args.sources, seed=args.seed))


def _workload_dict(args: argparse.Namespace) -> dict[str, object]:
    """The workload tag stored in emitted run records (the cell identity)."""
    if args.family:
        return {"family": args.family, "scale": args.scale, "seed": args.seed}
    return {
        "nodes": args.nodes,
        "out_degree": args.out_degree,
        "locality": args.locality,
        "seed": args.seed,
    }


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    workload = parser.add_argument_group("workload")
    workload.add_argument("--family", help="paper graph family G1..G12")
    workload.add_argument("--scale", type=int, default=1,
                          help="shrink a paper family by this factor")
    workload.add_argument("--nodes", type=int, default=500,
                          help="custom graph: node count (default 500)")
    workload.add_argument("--out-degree", type=float, default=5,
                          help="custom graph: average out-degree F")
    workload.add_argument("--locality", type=int, default=100,
                          help="custom graph: generation locality l")
    workload.add_argument("--seed", type=int, default=0, help="random seed")
    workload.add_argument("--sources", type=int, default=None,
                          help="number of source nodes (omit for full closure)")


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    system = parser.add_argument_group("system")
    system.add_argument("--buffer-pages", "-M", type=int, default=20,
                        help="buffer pool size in pages (default 20)")
    system.add_argument("--page-policy", default="lru",
                        choices=["lru", "mru", "fifo", "clock", "random"])
    system.add_argument("--ilimit", type=float, default=0.2,
                        help="Hybrid diagonal-block ratio (default 0.2)")
    system.add_argument("--engine", default=None, choices=list(ENGINE_NAMES),
                        help="storage engine: 'paged' simulates the paper's "
                        "substrate and charges page I/O; 'fast' runs in memory "
                        "with identical closures and zero page costs "
                        "(default: REPRO_ENGINE or 'paged')")


def _system_config(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        buffer_pages=args.buffer_pages,
        page_policy=args.page_policy,
        ilimit=args.ilimit,
        engine=args.engine or "",
    )


# -- `run` (the default command) ---------------------------------------------


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Disk-based transitive closure algorithms "
        "(Dar & Ramakrishnan, SIGMOD 1994).",
    )
    all_names = (*ALGORITHM_NAMES, *BASELINE_NAMES, "all")
    parser.add_argument(
        "--algorithm", "-a", default="btc", choices=all_names,
        help="algorithm to run, or 'all' for the whole suite (default: btc)",
    )
    _add_workload_args(parser)
    _add_system_args(parser)
    telemetry = parser.add_argument_group("telemetry")
    telemetry.add_argument("--emit-json", metavar="PATH", default=None,
                           help="append one RunRecord JSON line per run to PATH")
    telemetry.add_argument("--trace-out", metavar="PATH", default=None,
                           help="write an engine event trace as Chrome "
                           "trace-event JSON to PATH (open in Perfetto or "
                           "chrome://tracing; needs the paged engine)")
    telemetry.add_argument("--quiet", "-q", action="store_true",
                           help="suppress the pre-run banner (keep the result table)")
    execution = parser.add_argument_group("execution")
    execution.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                           help="run the algorithms across N worker processes "
                           "(default: 1 = in-process)")
    execution.add_argument("--reps", type=int, default=1, metavar="N",
                           help="repeat every run N times, emitting one "
                           "RunRecord per repetition (counters are "
                           "deterministic; this multiplies the timing "
                           "samples the compare gate's noise band uses)")
    execution.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                           help="per-algorithm wall-clock limit when --jobs > 1 "
                           "(one retry, then a structured error and exit 1)")
    robustness = parser.add_argument_group("robustness")
    robustness.add_argument("--chaos", metavar="SPEC", default=None,
                            help="arm the fault-injection plane, e.g. "
                            "'corrupt-read,after=100' (see docs/ROBUSTNESS.md)")
    robustness.add_argument("--audit", choices=AUDIT_MODES, default=None,
                            help="invariant audit mode "
                            "(default: cheap, or REPRO_AUDIT)")
    return parser


def _warn_dropped(name: str, dropped: int) -> None:
    """Say on stderr that ``name``'s trace ring overflowed."""
    if dropped:
        print(f"warning: {name}: the trace ring dropped the oldest {dropped} "
              f"events; --trace-out keeps only the tail", file=sys.stderr)


def _run_parallel(args: argparse.Namespace, names: list[str],
                  config: SystemConfig) -> int:
    """Fan the algorithm list across worker processes (``--jobs N``).

    Each algorithm becomes one work unit on the same (deterministically
    seeded) graph and query, so the result table is identical to the
    serial run's -- only wall-clock attribution differs.  With
    ``--trace-out``, workers instrument their unit exactly like the
    serial path and ship the trace events back; the parent merges the
    per-algorithm sections in submission order, so the trace file is
    event-for-event equal to a serial run's.
    """
    from repro.experiments.parallel import ExperimentEngine, GraphSpec, WorkUnit
    from repro.experiments.queries import QuerySpec

    if args.family:
        spec = GraphSpec(seed=args.seed, family=args.family, scale=args.scale)
    else:
        spec = GraphSpec.custom(args.nodes, args.out_degree, args.locality, args.seed)
    query_spec = (QuerySpec.full() if args.sources is None
                  else QuerySpec.selection(args.sources))
    workload = tuple(_workload_dict(args).items())

    def _units(collect_trace: bool) -> list["WorkUnit"]:
        return [
            WorkUnit(cell_index=index, algorithm=name, graph=spec, query=query_spec,
                     system=config, source_seed=args.seed, workload=workload,
                     collect_trace=collect_trace)
            for index, name in enumerate(names)
        ]

    with ExperimentEngine(jobs=args.jobs, timeout=args.timeout) as engine:
        # Only the first repetition carries the trace instrumentation:
        # counters are deterministic across reps, so one event stream
        # describes them all.
        outcomes = engine.map_units(_units(args.trace_out is not None))
        rep_outcomes = [engine.map_units(_units(False))
                        for _ in range(args.reps - 1)]

    sink = JsonlSink(args.emit_json, enabled=True) if args.emit_json is not None else None
    rows = []
    trace_sections = []
    for name, outcome in zip(names, outcomes):
        if outcome.error is not None:
            print(f"error: {outcome.error.render()}", file=sys.stderr)
            continue
        if sink is not None:
            sink.emit(outcome.record)
        if outcome.trace is not None:
            trace_sections.append((name, list(outcome.trace)))
            # The worker folded its collector into the record's profile.
            if outcome.record is not None and outcome.record.trace is not None:
                _warn_dropped(name, outcome.record.trace.get("dropped", 0))
        metrics = outcome.result.metrics
        rows.append(
            {
                "algorithm": name,
                "total_io": metrics.total_io,
                "answer_tuples": outcome.result.num_tuples,
                "unions": metrics.list_unions,
                "tuples_generated": metrics.tuples_generated,
                "marking_%": round(100 * metrics.marking_percentage, 1),
                "hit_ratio": round(metrics.hit_ratio(), 3),
                "cpu_s": round(metrics.cpu_seconds, 3),
            }
        )
    if sink is not None:
        for rep in rep_outcomes:
            for outcome in rep:
                if outcome.error is None:
                    sink.emit(outcome.record)
        sink.close()
    if args.trace_out is not None and trace_sections:
        write_chrome_trace(args.trace_out, trace_sections)
    if rows:
        print(format_table(rows))
    return 1 if engine.failures else 0


def _run_command(args: argparse.Namespace) -> int:
    parallel = args.jobs > 1
    if args.reps < 1:
        print("error: --reps must be >= 1", file=sys.stderr)
        return 2
    plan = None
    try:
        if args.chaos:
            plan = FaultPlan.parse(args.chaos)
            set_fault_plan(plan)
            # Worker processes (--jobs > 1) arm their own copy from the
            # environment in the pool initialiser.
            os.environ[ENV_CHAOS] = args.chaos
        if args.audit:
            set_audit_mode(args.audit)
            os.environ[ENV_AUDIT] = args.audit
        graph = _build_graph(args)
        query = _build_query(graph, args)
        config = _system_config(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.algorithm == "all":
        names = [n for n in ALGORITHM_NAMES if not (n == "srch" and query.is_full)]
        names += list(BASELINE_NAMES)
    else:
        names = [args.algorithm]

    if not args.quiet:
        print(f"graph: n={graph.num_nodes} arcs={graph.num_arcs}  query: {query}  "
              f"M={config.buffer_pages}"
              + (f"  jobs={args.jobs}" if parallel else ""))

    if parallel:
        return _run_parallel(args, names, config)

    instrument = args.emit_json is not None or args.trace_out is not None
    # enabled=True: an explicit --emit-json beats the REPRO_OBS env toggle.
    sink = JsonlSink(args.emit_json, enabled=True) if args.emit_json is not None else None
    workload = _workload_dict(args)
    trace_sections: list[tuple[str, list]] = []

    rows = []
    try:
        for name in names:
            if name in BASELINE_NAMES:
                algorithm = make_baseline(name)
            else:
                algorithm = make_algorithm(name)
            # Baselines opt into the seam-level instrumentation (spans,
            # trace events) with `accepts_instrumentation`.
            instrumentable = isinstance(algorithm, TwoPhaseAlgorithm) or getattr(
                algorithm, "accepts_instrumentation", False
            )

            for rep in range(args.reps):
                recorder: SpanRecorder | None = None
                collector: TraceCollector | None = None
                if instrument and instrumentable:
                    # Counters are deterministic across reps; one event
                    # stream (the first rep's) describes them all.
                    if args.trace_out is not None and rep == 0:
                        collector = TraceCollector(label=name)
                    recorder = SpanRecorder(collector=collector)

                start = time.perf_counter()
                if recorder is not None:
                    result = algorithm.run(graph, query, config,
                                           recorder=recorder, collector=collector)
                else:
                    result = algorithm.run(graph, query, config)
                wall_seconds = time.perf_counter() - start

                if sink is not None:
                    record = RunRecord.from_result(
                        result, workload=workload, recorder=recorder,
                        collector=collector, wall_seconds=wall_seconds,
                    )
                    if plan is not None:
                        record.faults = [e.as_dict() for e in plan.drain_events()]
                    sink.emit(record)
                if collector is not None:
                    trace_sections.append((name, collector.events))
                    _warn_dropped(name, collector.dropped)

            metrics = result.metrics
            rows.append(
                {
                    "algorithm": name,
                    "total_io": metrics.total_io,
                    "answer_tuples": result.num_tuples,
                    "unions": metrics.list_unions,
                    "tuples_generated": metrics.tuples_generated,
                    "marking_%": round(100 * metrics.marking_percentage, 1),
                    "hit_ratio": round(metrics.hit_ratio(), 3),
                    "cpu_s": round(metrics.cpu_seconds, 3),
                }
            )
    except Exception as exc:  # the gate: broken runs must not exit 0
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if plan is not None:
            print(plan.summary(), file=sys.stderr)
        return 1
    finally:
        if sink is not None:
            sink.close()

    if args.trace_out is not None:
        write_chrome_trace(args.trace_out, trace_sections)

    print(format_table(rows))
    return 0


# -- `profile` ----------------------------------------------------------------


def _profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run one algorithm with full buffer-pool tracing and "
        "print its I/O profile: hit-ratio timeline, per-kind access "
        "histogram, hottest pages, and span timings.",
    )
    parser.add_argument(
        "--algorithm", "-a", default="btc", choices=ALGORITHM_NAMES,
        help="algorithm to profile (default: btc)",
    )
    _add_workload_args(parser)
    _add_system_args(parser)
    parser.add_argument("--top", type=int, default=10,
                        help="number of hot pages to show (default 10)")
    parser.add_argument("--buckets", type=int, default=10,
                        help="hit-ratio timeline buckets (default 10)")
    return parser


def _profile_command(args: argparse.Namespace) -> int:
    recorder = SpanRecorder()
    # Unbounded, so the profile folds the whole run rather than the
    # ring's tail.
    collector = TraceCollector(capacity=sys.maxsize)
    try:
        graph = _build_graph(args)
        query = _build_query(graph, args)
        config = _system_config(args)
        result = make_algorithm(args.algorithm).run(
            graph, query, config, recorder=recorder, collector=collector
        )
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    profile = summarise_trace(collector, buckets=args.buckets, top_k=args.top)
    metrics = result.metrics
    print(f"{args.algorithm}: n={graph.num_nodes} arcs={graph.num_arcs} "
          f"query={query} M={config.buffer_pages}")
    print(f"total_io={metrics.total_io} "
          f"(reads={metrics.io.total_reads}, writes={metrics.io.total_writes})  "
          f"hit_ratio={metrics.hit_ratio():.3f}")

    timeline = profile["hit_ratio_timeline"]
    if timeline:
        print("\nhit-ratio timeline (run split into equal request chunks):")
        print("  " + "  ".join(f"{ratio:.2f}" for ratio in timeline))

    histogram = profile["kind_histogram"]
    if histogram:
        print("\n" + format_table(
            [{"kind": kind, "requests": count}
             for kind, count in sorted(histogram.items())],
            title="page requests by kind",
        ))

    if profile["hot_pages"]:
        print("\n" + format_table(profile["hot_pages"], title=f"top {args.top} hottest pages"))

    span_rows = [
        {
            "span": stats.path,
            "count": stats.count,
            "total_ms": round(1000 * stats.total_seconds, 3),
        }
        for stats in recorder.stats()
    ]
    if span_rows:
        print("\n" + format_table(span_rows, title="span timings"))
    return 0


# -- verified index answers ----------------------------------------------------


def _parse_probes(specs: list[str] | None,
                  graph: Digraph) -> list[tuple[int, int]] | None:
    """Parse ``--probe U:V`` flags; a bad node id prints one ``error:``
    line naming it and the graph's range, and returns None (exit 2)."""
    from repro.errors import InvalidNodeError
    from repro.serve.validate import parse_probe

    try:
        return [parse_probe(spec, graph.num_nodes) for spec in specs or []]
    except InvalidNodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _seeded_pairs(seed: int, candidates: Sequence[int], num_nodes: int,
                  count: int, per_source: int = 1) -> list[tuple[int, int]]:
    """``count`` seeded ``(u, v)`` pairs: each ``u`` is drawn from
    ``candidates`` (none drawn if it is empty) and shared by up to
    ``per_source`` consecutive pairs, each ``v`` is any node."""
    import random

    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    while candidates and len(pairs) < count:
        u = candidates[rng.randrange(len(candidates))]
        for _ in range(min(per_source, count - len(pairs))):
            pairs.append((u, rng.randrange(num_nodes)))
    return pairs


def _check_answers(graph: Digraph, answers: Iterable[tuple[int, int, bool]],
                   echo: bool = False) -> int:
    """Check ``(u, v, answer)`` triples against a direct forward search.

    One search serves each run of consecutive triples sharing a source.
    ``reachable(u, v)`` means a nonempty path, so the search starts
    from ``u``'s successors: ``u`` reaches itself only on a cycle.
    Every wrong answer prints one ``MISMATCH`` line on stderr; ``echo``
    also prints each answer with its verdict.  Returns the number wrong.
    """
    from repro.graphs.toposort import reachable_from

    wrong = 0
    source: int | None = None
    reached: set[int] = set()
    for u, v, answer in answers:
        if u != source:
            source, reached = u, reachable_from(graph, graph.successors(u))
        expected = v in reached
        if echo:
            print(f"probe reachable({u}, {v}) = {answer}  "
                  f"verified={'ok' if answer == expected else 'MISMATCH'}")
        if answer != expected:
            wrong += 1
            print(f"MISMATCH reachable({u}, {v}): answer={answer} "
                  f"search={expected}", file=sys.stderr)
    return wrong


# -- `chains` -----------------------------------------------------------------


def _chains_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chains",
        description="Build the frozen chain-decomposition reachability "
        "index over a workload, report its shape and build cost, and "
        "answer seeded reachable(u, v) spot queries -- each verified "
        "against a direct graph search, with the page-I/O counters "
        "checked to stay flat while querying (the index answers from "
        "memory in O(k)).",
    )
    _add_workload_args(parser)
    _add_system_args(parser)
    parser.add_argument("--queries", type=int, default=200, metavar="N",
                        help="number of seeded spot queries (default 200)")
    parser.add_argument("--probe", action="append", default=None, metavar="U:V",
                        help="answer one explicit reachable(U, V) probe "
                        "(repeatable; verified against a direct search)")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress the banner (keep the summary line)")
    return parser


def _chains_command(args: argparse.Namespace) -> int:
    from repro.core.chains import build_chain_index
    from repro.errors import InvalidNodeError

    try:
        graph = _build_graph(args)
        sources = None
        if args.sources is not None:
            sources = sample_sources(graph, args.sources, seed=args.seed)
        config = _system_config(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    # Validate the user's probe pairs *before* paying for the index build.
    probes = _parse_probes(args.probe, graph)
    if probes is None:
        return 2

    try:
        index = build_chain_index(graph, sources, config)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(f"graph: n={graph.num_nodes} arcs={graph.num_arcs}  "
              f"sources={'all' if sources is None else len(sources)}  "
              f"engine={config.engine or 'default'}")

    build_io = index.metrics.total_io
    vector_entries = sum(len(vector) for vector in index.vectors.values())

    # Explicit probes, then seeded spot queries, all verified.  The index
    # must not touch any storage while answering: the build metrics are
    # frozen, so any page I/O drift is a hard failure.
    answers: list[tuple[int, int, bool]] = []
    for u, v in probes:
        try:
            answers.append((u, v, index.reachable(u, v)))
        except InvalidNodeError as exc:
            print(f"error: probe {u}:{v}: {exc}", file=sys.stderr)
            return 2
    failures = _check_answers(graph, answers, echo=True)
    candidates = sources if sources is not None else graph.nodes()
    pairs = _seeded_pairs(args.seed, candidates, graph.num_nodes, args.queries)
    failures += _check_answers(
        graph, [(u, v, index.reachable(u, v)) for u, v in pairs]
    )
    if index.metrics.total_io != build_io:
        print(f"error: page I/O moved during queries "
              f"({build_io} -> {index.metrics.total_io})", file=sys.stderr)
        return 1
    if failures:
        print(f"error: {failures} mismatched quer{'y' if failures == 1 else 'ies'}",
              file=sys.stderr)
        return 1

    print(f"chains: k={index.k} nodes={len(index.vectors)} "
          f"vector_entries={vector_entries} build_io={build_io} "
          f"queries={len(pairs)} verified=ok")
    return 0


# -- `serve` ------------------------------------------------------------------


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve reachable(u, v) / successors(u) / batch queries "
        "over HTTP (TCP or a UNIX-domain socket) from a frozen chain "
        "index built once at startup, with per-request deadlines, bounded "
        "admission with load shedding, and breaker-guarded degradation to "
        "the last-good index (see docs/ROBUSTNESS.md, 'Serving and "
        "degradation modes').",
    )
    _add_workload_args(parser)
    _add_system_args(parser)
    binding = parser.add_argument_group("binding")
    binding.add_argument("--host", default="127.0.0.1",
                         help="TCP bind address (default 127.0.0.1)")
    binding.add_argument("--port", type=int, default=8642,
                         help="TCP port; 0 picks an ephemeral port "
                         "(default 8642)")
    binding.add_argument("--uds", default=None, metavar="PATH",
                         help="serve on a UNIX-domain socket at PATH "
                         "instead of TCP")
    service = parser.add_argument_group("service")
    service.add_argument("--deadline-ms", type=float, default=1000.0,
                         help="default per-request deadline (default 1000)")
    service.add_argument("--max-concurrency", type=int, default=8,
                         help="requests executing concurrently (default 8)")
    service.add_argument("--max-queue", type=int, default=64,
                         help="admission queue depth before shedding "
                         "(default 64)")
    service.add_argument("--max-wait-ms", type=float, default=250.0,
                         help="estimated-wait budget before shedding "
                         "(default 250)")
    service.add_argument("--breaker-threshold", type=int, default=3,
                         help="consecutive build failures that trip the "
                         "circuit breaker (default 3)")
    service.add_argument("--breaker-reset", type=float, default=2.0,
                         help="breaker cool-down seconds before a rebuild "
                         "probe (default 2)")
    service.add_argument("--build-retries", type=int, default=2,
                         help="retried attempts per index (re)build "
                         "(default 2)")
    checks = parser.add_argument_group("checks")
    checks.add_argument("--self-check", type=int, default=None, metavar="N",
                        help="start on an ephemeral socket, answer N seeded "
                        "queries through the HTTP client verified against a "
                        "direct graph search, check the health endpoints, "
                        "and exit (CI smoke mode)")
    checks.add_argument("--probe", action="append", default=None, metavar="U:V",
                        help="answer one explicit reachable(U, V) probe "
                        "directly (repeatable, verified, no server)")
    checks.add_argument("--emit-json", metavar="PATH", default=None,
                        help="append the serve-telemetry RunRecord JSON "
                        "line to PATH on exit (probe/self-check modes)")
    robustness = parser.add_argument_group("robustness")
    robustness.add_argument("--chaos", metavar="SPEC", default=None,
                            help="arm the fault-injection plane, e.g. "
                            "'slow-handler,p=0.1,ms=50' "
                            "(see docs/ROBUSTNESS.md)")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress the banner")
    return parser


def _serve_command(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.service import ReachabilityService, ServeConfig

    try:
        if args.chaos:
            set_fault_plan(FaultPlan.parse(args.chaos))
            os.environ[ENV_CHAOS] = args.chaos
        graph = _build_graph(args)
        sources = None
        if args.sources is not None:
            sources = sample_sources(graph, args.sources, seed=args.seed)
        config = _system_config(args)
        serve_config = ServeConfig(
            deadline_ms=args.deadline_ms,
            max_concurrency=args.max_concurrency,
            max_queue=args.max_queue,
            max_wait_ms=args.max_wait_ms,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset,
            build_retries=args.build_retries,
        )
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    probes = _parse_probes(args.probe, graph)
    if probes is None:
        return 2

    service = ReachabilityService(graph, sources, config, serve_config)
    try:
        code = asyncio.run(_serve_main(args, graph, service, probes))
    except KeyboardInterrupt:
        return 0
    # Emitted here, after the event loop has exited: JsonlSink fsyncs
    # every record, and a synchronous fsync inside an async handler
    # stalls the whole loop (RPL009).
    _emit_serve_record(args, service)
    return code


def _emit_serve_record(args: argparse.Namespace, service: object) -> None:
    if args.emit_json is None:
        return
    sink = JsonlSink(args.emit_json, enabled=True)
    sink.emit(service.to_run_record(_workload_dict(args)))  # type: ignore[attr-defined]
    sink.close()


async def _serve_main(args: argparse.Namespace, graph: Digraph,
                      service: "ReachabilityService",
                      probes: list[tuple[int, int]]) -> int:
    import asyncio

    from repro.errors import InvalidNodeError
    from repro.serve.http import ServeServer

    built = await service.build()
    if not built:
        print(f"warning: initial index build failed "
              f"({service.last_build_error}); starting unready",
              file=sys.stderr)

    # Probe mode: answer explicit pairs directly (no server), verified.
    if probes and args.self_check is None:
        if service.index is None:
            print("error: no index available to answer probes", file=sys.stderr)
            return 1
        answers: list[tuple[int, int, bool]] = []
        for u, v in probes:
            try:
                answer = await service.reachable(u, v)
            except InvalidNodeError as exc:
                print(f"error: probe {u}:{v}: {exc}", file=sys.stderr)
                return 2
            answers.append((u, v, answer["reachable"]))
        return 1 if _check_answers(graph, answers, echo=True) else 0

    if args.self_check is not None:
        return await _serve_self_check(args, graph, service)

    server = ServeServer(service, host=args.host, port=args.port, uds=args.uds)
    await server.start()
    if not args.quiet:
        print(f"serving n={graph.num_nodes} arcs={graph.num_arcs} "
              f"state={service.state} on {server.endpoint}")
    try:
        await asyncio.Event().wait()
    finally:
        await server.close()
    return 0


async def _serve_self_check(args: argparse.Namespace, graph: Digraph,
                            service: "ReachabilityService") -> int:
    """CI smoke mode: seeded, oracle-verified queries over a live socket."""
    import shutil
    import tempfile

    from repro.serve.http import ServeClient, ServeServer

    candidates = service.sources if service.sources is not None else graph.nodes()
    if not candidates:
        print("error: --self-check has no source node to draw queries from",
              file=sys.stderr)
        return 1
    pairs = _seeded_pairs(args.seed, candidates, graph.num_nodes, args.self_check)
    uds = args.uds
    socket_dir = None
    if uds is None and args.port == 8642:
        # Default: a throwaway UDS in a fresh private directory, so nobody
        # can take the socket's name between choosing it and binding it.
        socket_dir = tempfile.mkdtemp(prefix="repro-serve-")
        uds = os.path.join(socket_dir, "serve.sock")
    server = (ServeServer(service, uds=uds) if uds is not None
              else ServeServer(service, host=args.host, port=args.port))
    answers: list[tuple[int, int, bool]] = []
    non_ok = 0
    try:
        await server.start()
        client = (ServeClient(uds=uds) if uds is not None
                  else ServeClient(host=args.host, port=server.port))
        try:
            for u, v in pairs:
                status, payload = await client.reachable(u, v)
                if status == 200:
                    answers.append((u, v, payload["reachable"]))
                else:
                    non_ok += 1
            health_status, health = await client.get("/healthz")
            ready_status, ready = await client.get("/readyz")
            expect_ready = 200 if service.state == "ready" else 503
            health_ok = health_status == 200 and health.get("status") == "ok"
            ready_ok = (ready_status == expect_ready
                        and ready.get("state") == service.state)
        finally:
            await client.close()
    finally:
        await server.close()
        if socket_dir is not None:
            shutil.rmtree(socket_dir, ignore_errors=True)
    wrong = _check_answers(graph, answers)
    print(f"self-check: {len(answers)}/{len(pairs)} answered "
          f"({non_ok} non-200), wrong={wrong}, state={service.state}, "
          f"healthz={'ok' if health_ok else 'FAIL'}, "
          f"readyz={'ok' if ready_ok else 'FAIL'} on {server.endpoint}")
    if wrong or not health_ok or not ready_ok:
        return 1
    # Without chaos armed, every query must have been answered outright.
    if non_ok and not args.chaos and not os.environ.get(ENV_CHAOS):
        return 1
    return 0


# -- `compare` ----------------------------------------------------------------


def _compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro compare",
        description="Diff two JSONL run-record files cell by cell and "
        "fail (exit 1) when total_io regresses beyond the threshold.",
    )
    parser.add_argument("baseline", help="baseline JSONL file of RunRecords")
    parser.add_argument("candidate", help="candidate JSONL file of RunRecords")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="allowed relative total_io growth (default 0.0: "
                        "the simulated counters are deterministic, so any "
                        "growth is a regression)")
    parser.add_argument("--cpu-threshold", type=float, default=None,
                        help="also gate on cpu_seconds growth (default: report only)")
    parser.add_argument("--wall-threshold", type=float, default=None,
                        help="also gate on wall_seconds growth with a "
                        "noise-aware band (default: not even reported)")
    parser.add_argument("--wall-abs", type=float, default=0.005,
                        help="absolute wall-clock growth always tolerated, "
                        "in seconds (default 0.005)")
    parser.add_argument("--noise-sigma", type=float, default=3.0,
                        help="tolerate wall growth up to K standard "
                        "deviations of the baseline cell's samples "
                        "(default 3.0; needs --reps >= 2 baselines)")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="print regressions only")
    return parser


def _compare_command(args: argparse.Namespace) -> int:
    try:
        report = compare_runs(
            args.baseline,
            args.candidate,
            threshold=args.threshold,
            cpu_threshold=args.cpu_threshold,
            wall_threshold=args.wall_threshold,
            wall_abs=args.wall_abs,
            noise_sigma=args.noise_sigma,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(report.render())
    if report.ok:
        if not args.quiet:
            print("\nno regressions")
        return 0
    for delta in report.regressions:
        print(f"REGRESSION {delta.cell} {delta.metric}: "
              f"{delta.baseline:g} -> {delta.candidate:g}", file=sys.stderr)
    return 1


# -- `obs` --------------------------------------------------------------------


def _obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Observability artefact tooling: render HTML run "
        "reports and validate trace files.",
    )
    sub = parser.add_subparsers(dest="obs_command", required=True)

    report = sub.add_parser(
        "report",
        help="render a self-contained HTML dashboard from run artefacts",
        description="Render a static, self-contained HTML dashboard "
        "(phase waterfall, page heatmaps, pool residency, BENCH "
        "trajectory) from any combination of a RunRecord JSONL file, a "
        "--trace-out Chrome trace, and a BENCH_summary.json.",
    )
    report.add_argument("--records", metavar="PATH", default=None,
                        help="JSONL RunRecord file (from --emit-json)")
    report.add_argument("--trace", metavar="PATH", default=None,
                        help="Chrome trace JSON file (from --trace-out)")
    report.add_argument("--bench", metavar="PATH", default=None,
                        help="BENCH_summary.json for the trajectory panel "
                        "(default: derived from --records)")
    report.add_argument("--out", metavar="PATH", default="report.html",
                        help="output HTML path (default: report.html)")
    report.add_argument("--title", default="repro run report",
                        help="report title")

    validate = sub.add_parser(
        "validate-trace",
        help="check that a file is valid Chrome trace-event JSON",
        description="Validate a --trace-out file: JSON shape, event "
        "phases, timestamps, and balanced span begin/end pairs.",
    )
    validate.add_argument("trace", help="Chrome trace JSON file")
    return parser


def _obs_command(args: argparse.Namespace) -> int:
    try:
        if args.obs_command == "validate-trace":
            with open(args.trace) as handle:
                payload = json.load(handle)
            problems = validate_chrome_trace(payload)
            if problems:
                for problem in problems:
                    print(f"INVALID: {problem}", file=sys.stderr)
                return 1
            events = sum(1 for e in payload["traceEvents"] if e.get("ph") != "M")
            print(f"{args.trace}: valid Chrome trace ({events} events)")
            return 0

        from repro.obs.report import load_bench_entries, render_report

        records = load_records(args.records) if args.records else []
        trace_payload = None
        if args.trace:
            with open(args.trace) as handle:
                trace_payload = json.load(handle)
        bench = load_bench_entries(args.bench) if args.bench else None
        out = render_report(args.out, records, trace_payload=trace_payload,
                            bench_entries=bench, title=args.title)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out}")
    return 0


def _ingest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ingest",
        description="Load a real-graph edge list (SNAP format, plain or "
        "gzip) into the frozen CSR graph core, report ingestion stats, "
        "and optionally build the chain reachability index over it with "
        "seeded spot probes -- each verified against a direct graph "
        "search.",
    )
    parser.add_argument("path", help="edge-list file (SNAP format; gzip "
                        "detected from the payload, not the name)")
    parser.add_argument("--stats", action="store_true",
                        help="print the full ingestion stat table")
    parser.add_argument("--build-index", action="store_true",
                        help="build the chain reachability index over the "
                        "ingested graph and run verified probes")
    parser.add_argument("--engine", default=None, choices=list(ENGINE_NAMES),
                        help="storage engine for --build-index "
                        "(default: REPRO_ENGINE or 'paged')")
    parser.add_argument("--probes", type=int, default=100, metavar="N",
                        help="seeded reachability probes for --build-index, "
                        "each checked against a direct search (default 100)")
    parser.add_argument("--seed", type=int, default=0, help="probe seed")
    parser.add_argument("--condense", action="store_true",
                        help="attach the SCC condensation when the input "
                        "is cyclic")
    parser.add_argument("--expect-nodes", type=int, default=None, metavar="N",
                        help="declared node count (overrides any '# nodes:' "
                        "header; keeps dense ids verbatim so isolated nodes "
                        "survive)")
    parser.add_argument("--emit-json", metavar="FILE",
                        help="write stats, timings and index shape as JSON")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress the banner (keep the summary line)")
    return parser


def _ingest_command(args: argparse.Namespace) -> int:
    import resource

    from repro.core.chains import build_chain_index
    from repro.errors import IngestError
    from repro.graphs.ingest import load_snap

    started = time.perf_counter()
    try:
        result = load_snap(
            args.path, condense=args.condense, num_nodes=args.expect_nodes
        )
    except (OSError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_seconds = time.perf_counter() - started
    graph, stats = result.graph, result.stats
    arcs_per_second = stats.arc_lines / load_seconds if load_seconds else 0.0

    if not args.quiet:
        print(f"ingest: {args.path}  "
              f"load={load_seconds:.2f}s ({arcs_per_second:,.0f} arcs/s)")
    if args.stats:
        for key, value in stats.as_dict().items():
            print(f"  {key}: {value}")

    payload: dict[str, object] = {
        "path": str(args.path),
        "stats": stats.as_dict(),
        "load_seconds": round(load_seconds, 6),
        "arcs_per_second": round(arcs_per_second, 1),
    }

    exit_code = 0
    if args.build_index:
        config = SystemConfig(engine=args.engine or "")
        started = time.perf_counter()
        try:
            index = build_chain_index(graph, None, config)
        except Exception as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        build_seconds = time.perf_counter() - started
        vector_entries = sum(len(vector) for vector in index.vectors.values())

        # Verified probes, batched: at most 16 sources share one direct
        # forward search each, so the oracle cost stays linear while
        # every index answer is still independently checked.
        num_sources = max(1, min(16, args.probes // 64 + 1))
        pairs = _seeded_pairs(args.seed, graph.nodes(), graph.num_nodes,
                              args.probes, -(-args.probes // num_sources))
        failures = _check_answers(
            graph, [(u, v, index.reachable(u, v)) for u, v in pairs]
        )
        probes = len(pairs)
        print(f"index: k={index.k} vector_entries={vector_entries} "
              f"build={build_seconds:.2f}s probes={probes} "
              f"verified={'ok' if not failures else 'FAILED'}")
        payload["index"] = {
            "engine": config.engine or "default",
            "k": index.k,
            "vector_entries": vector_entries,
            "build_seconds": round(build_seconds, 6),
            "probes": probes,
            "probe_failures": failures,
        }
        if failures:
            print(f"error: {failures} mismatched probe"
                  f"{'' if failures == 1 else 's'}", file=sys.stderr)
            exit_code = 1

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload["peak_rss_mb"] = round(peak_rss_kb / 1024, 1)
    print(f"ingest: nodes={stats.nodes} arcs={stats.arcs} "
          f"compacted={stats.compacted} acyclic={stats.acyclic} "
          f"peak_rss={payload['peak_rss_mb']}MB")

    if args.emit_json:
        try:
            with open(args.emit_json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return exit_code


_SUBCOMMANDS = {
    "run": (_run_parser, _run_command),
    "profile": (_profile_parser, _profile_command),
    "chains": (_chains_parser, _chains_command),
    "serve": (_serve_parser, _serve_command),
    "ingest": (_ingest_parser, _ingest_command),
    "compare": (_compare_parser, _compare_command),
    "obs": (_obs_parser, _obs_command),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backwards compatible dispatch: a leading bare word selects a
    # subcommand; flags alone mean the classic `run` behaviour.
    if argv and argv[0] in _SUBCOMMANDS:
        make_parser, command = _SUBCOMMANDS[argv[0]]
        argv = argv[1:]
    else:
        make_parser, command = _SUBCOMMANDS["run"]
    return command(make_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
