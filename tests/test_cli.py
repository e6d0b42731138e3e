"""Tests for the command line front end."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.chains import ChainIndex
from repro.core.registry import ALGORITHM_NAMES
from repro.graphs.ingest import write_snap
from repro.obs.compare import load_records


class TestCli:
    def test_default_run(self, capsys):
        assert main(["--nodes", "100", "--out-degree", "3", "--locality", "20"]) == 0
        output = capsys.readouterr().out
        assert "btc" in output
        assert "total_io" in output

    def test_family_workload(self, capsys):
        assert main(["--family", "G3", "--scale", "8", "--algorithm", "bj",
                     "--sources", "4"]) == 0
        output = capsys.readouterr().out
        assert "bj" in output
        assert "n=250" in output

    def test_all_algorithms_on_a_selection(self, capsys):
        assert main(["--family", "G2", "--scale", "8", "--algorithm", "all",
                     "--sources", "3", "-M", "10"]) == 0
        output = capsys.readouterr().out
        for name in ("btc", "hyb", "bj", "srch", "spn", "jkb", "jkb2",
                     "seminaive", "warren", "schmitz"):
            assert name in output

    def test_all_skips_srch_for_full_closure(self, capsys):
        assert main(["--nodes", "60", "--algorithm", "all"]) == 0
        output = capsys.readouterr().out
        assert "srch" not in output.replace("search", "")

    def test_baseline_by_name(self, capsys):
        assert main(["--nodes", "80", "--algorithm", "warshall"]) == 0
        assert "warshall" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["--algorithm", "made-up"])

    def test_buffer_and_policy_flags(self, capsys):
        assert main(["--nodes", "80", "-M", "5", "--page-policy", "clock"]) == 0
        assert "M=5" in capsys.readouterr().out

    def test_quiet_suppresses_banner_keeps_table(self, capsys):
        assert main(["--nodes", "80", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "graph:" not in output
        assert "total_io" in output

    def test_bad_workload_exits_nonzero_without_traceback(self, capsys):
        assert main(["--family", "G99"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_jobs_table_matches_serial(self, capsys):
        """--jobs fans out across processes; the result table (only
        cpu_s, a measured field, excepted) matches the serial run."""

        def table(argv):
            assert main(argv) == 0
            rows = [line for line in capsys.readouterr().out.splitlines()
                    if line and "graph:" not in line]
            # Drop the trailing cpu_s column: measured, not simulated.
            return [line.rsplit(None, 1)[0] for line in rows]

        base = ["--family", "G2", "--scale", "8", "--algorithm", "all",
                "--sources", "3", "-M", "10", "--quiet"]
        assert table(base) == table(base + ["--jobs", "3"])

    def test_jobs_with_emit_json_writes_records(self, tmp_path, capsys):
        for jobs in ("1", "2"):  # in-process and across worker processes
            path = tmp_path / f"records-{jobs}.jsonl"
            assert main(["--family", "G2", "--scale", "8", "--algorithm", "btc",
                         "--sources", "3", "--jobs", jobs, "--emit-json", str(path),
                         "--quiet"]) == 0
            capsys.readouterr()
            records = load_records(path)
            assert len(records) == 1
            assert records[0].algorithm == "btc"
            assert records[0].workload["family"] == "G2"
            assert set(records[0].spans) == {
                "run", "run/compute", "run/restructure", "run/restructure/pool.read",
                "run/writeout", "run/writeout/pool.write",
            }

    def test_algorithm_failure_exits_nonzero(self, capsys, monkeypatch):
        import repro.experiments.parallel as engine

        def boom(name):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(engine, "_make_runner", boom)
        assert main(["--nodes", "60"]) == 1
        assert "simulated failure" in capsys.readouterr().err


class TestEmitJson:
    def test_emit_json_writes_run_records(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["--algorithm", "btc", "--family", "G4", "--scale", "4",
                     "--emit-json", str(out), "--quiet"]) == 0
        (record,) = load_records(out)
        assert record.algorithm == "btc"
        assert record.workload == {"family": "G4", "scale": 4, "seed": 0}
        assert record.system["buffer_pages"] == 20
        # Per-phase I/O, span durations and config are all present.
        phases = record.metrics["io"]["reads_by_phase"]
        assert set(phases) == {"restructure", "compute", "writeout"}
        assert record.spans["run"]["count"] == 1
        assert record.spans["run"]["total_seconds"] > 0

    def test_emit_json_all_algorithms(self, tmp_path, capsys):
        out = tmp_path / "all.jsonl"
        assert main(["--algorithm", "all", "--family", "G2", "--scale", "8",
                     "--sources", "2", "--emit-json", str(out), "--quiet"]) == 0
        records = load_records(out)
        assert len(records) >= 10  # the suite plus the baselines
        assert len({r.algorithm for r in records}) == len(records)

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        from repro.obs.tracing import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(["--algorithm", "btc", "--nodes", "80",
                     "--trace-out", str(path), "--quiet"]) == 0
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert "process_name" in names  # section metadata
        assert any(name.startswith("page.") for name in names)

    def test_reps_emit_one_record_per_repetition(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main(["--algorithm", "btc", "--nodes", "80", "--quiet",
                     "--reps", "3", "--emit-json", str(path)]) == 0
        records = load_records(str(path))
        assert len(records) == 3
        assert len({r.total_io for r in records}) == 1

        # Across worker processes: three records per algorithm, in
        # algorithm-major order, and every repetition carries spans.
        path = tmp_path / "jobs.jsonl"
        assert main(["--algorithm", "all", "--nodes", "80", "--quiet", "--reps", "3",
                     "--jobs", "2", "--emit-json", str(path)]) == 0
        records = load_records(str(path))
        names = list(dict.fromkeys(r.algorithm for r in records))
        assert len(names) >= 10
        assert [r.algorithm for r in records] == [n for n in names for _ in range(3)]
        for record in records:
            if record.algorithm in ALGORITHM_NAMES:
                assert record.spans["run"]["count"] == 1


class TestProfileCommand:
    def test_profile_prints_buffer_profile(self, capsys):
        assert main(["profile", "--algorithm", "btc", "--nodes", "100",
                     "--sources", "3"]) == 0
        output = capsys.readouterr().out
        assert "hit-ratio timeline" in output
        assert "page requests by kind" in output
        assert "hottest pages" in output
        assert "span timings" in output


class TestCompareCommand:
    BASELINE = Path(__file__).parent / "fixtures" / "compare" / "baseline.jsonl"

    def _emit(self, tmp_path, name, scale="8"):
        path = tmp_path / name
        assert main(["--algorithm", "btc", "--family", "G2", "--scale", scale,
                     "--emit-json", str(path), "--quiet"]) == 0
        return path

    def test_identical_files_pass(self, tmp_path, capsys):
        baseline = self._emit(tmp_path, "base.jsonl")
        candidate = self._emit(tmp_path, "cand.jsonl")
        assert main(["compare", str(baseline), str(candidate)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_io_regression_fails_the_gate(self, tmp_path, capsys):
        candidate = self._emit(tmp_path, "cand.jsonl")
        record = json.loads(candidate.read_text())
        record["metrics"]["total_io"] = int(record["metrics"]["total_io"] * 0.8)
        baseline = tmp_path / "base.jsonl"
        baseline.write_text(json.dumps(record) + "\n")
        assert main(["compare", str(baseline), str(candidate)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_threshold_is_configurable(self, tmp_path, capsys):
        candidate = self._emit(tmp_path, "cand.jsonl")
        record = json.loads(candidate.read_text())
        record["metrics"]["total_io"] = int(record["metrics"]["total_io"] * 0.9)
        baseline = tmp_path / "base.jsonl"
        baseline.write_text(json.dumps(record) + "\n")
        assert main(["compare", str(baseline), str(candidate),
                     "--threshold", "0.5"]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_line_exits_two(self, tmp_path, capsys):
        good = self._emit(tmp_path, "good.jsonl").read_text()
        middle = tmp_path / "middle.jsonl"
        middle.write_text("[1,2]\n" + good)
        assert main(["compare", str(middle), str(middle)]) == 2
        err = capsys.readouterr().err
        assert f"error: {middle}:1: not a RunRecord line" in err
        assert "Traceback" not in err
        # A whole final line that parses is not a cut one: refused too.
        final = tmp_path / "final.jsonl"
        final.write_text(good + "[1,2]\n")
        assert main(["compare", str(final), str(final)]) == 2
        err = capsys.readouterr().err
        assert f"error: {final}:2: not a RunRecord line" in err
        assert "Traceback" not in err

    def test_nan_candidate_exits_two(self, capsys):
        candidate = self.BASELINE.with_name("non_finite.jsonl")
        assert main(["compare", str(self.BASELINE), str(candidate)]) == 2
        err = capsys.readouterr().err
        assert f"error: {candidate}:1: not a RunRecord line" in err
        assert "Traceback" not in err

    def test_infinity_baseline_exits_two(self, tmp_path, capsys):
        lines = self.BASELINE.read_text().splitlines()
        record = json.loads(lines[0])
        record["metrics"]["total_io"] = float("inf")
        baseline = tmp_path / "infinite.jsonl"
        baseline.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        assert main(["compare", str(baseline), str(self.BASELINE)]) == 2
        err = capsys.readouterr().err
        assert f"error: {baseline}:1: not a RunRecord line" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "flag",
        ["--threshold", "--cpu-threshold", "--wall-threshold", "--wall-abs",
         "--noise-sigma"],
    )
    def test_a_non_finite_or_negative_tolerance_exits_two(self, flag, value, capsys):
        candidate = self.BASELINE.with_name("candidate_2x_io.jsonl")
        assert main(["compare", str(self.BASELINE), str(candidate),
                     f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "must be finite and >= 0" in line
        assert "Traceback" not in err


class TestChainsProbes:
    WORKLOAD = ["chains", "--nodes", "150", "--seed", "3", "--queries", "10",
                "--engine", "fast", "-q"]

    def test_valid_probes_are_answered_and_verified(self, capsys):
        assert main([*self.WORKLOAD, "--probe", "0:100", "--probe", "5:6"]) == 0
        output = capsys.readouterr().out
        assert "probe reachable(0, 100)" in output
        assert "verified=ok" in output

    def test_out_of_range_probe_exits_two_with_message(self, capsys):
        assert main([*self.WORKLOAD, "--probe", "0:9999"]) == 2
        err = capsys.readouterr().err
        assert "outside the graph's range 0..149" in err
        assert "Traceback" not in err

    def test_malformed_probe_exits_two_with_message(self, capsys):
        assert main([*self.WORKLOAD, "--probe", "abc"]) == 2
        err = capsys.readouterr().err
        assert "expected 'U:V'" in err
        assert "Traceback" not in err


class TestIngestCommand:
    FIXTURES = Path(__file__).parent / "fixtures" / "ingest"

    def test_stats_on_checked_in_fixture(self, capsys):
        assert main(["ingest", str(self.FIXTURES / "tiny.snap"), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "duplicate_arcs: 1" in out
        assert "self_loops: 1" in out
        assert "nodes=6 arcs=5" in out

    def test_build_index_verifies_probes_on_both_engines(self, capsys):
        path = str(self.FIXTURES / "braid_small.snap.gz")
        for engine in ("fast", "paged"):
            code = main(["ingest", path, "--build-index", "--engine", engine,
                         "--probes", "50", "-q"])
            assert code == 0
            out = capsys.readouterr().out
            assert "verified=ok" in out
            assert "k=" in out

    def test_graph_without_nodes_reports_zero_probes(self, tmp_path, capsys):
        empty = tmp_path / "empty.snap"
        empty.write_text("# comments only, no arcs\n")
        out_file = tmp_path / "empty.json"
        code = main(["ingest", str(empty), "--build-index", "--engine", "fast",
                     "--probes", "100", "--emit-json", str(out_file), "-q"])
        assert code == 0
        assert "probes=0 verified=ok" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert payload["index"]["probes"] == 0
        assert payload["index"]["probe_failures"] == 0

    def test_node_on_a_cycle_reaches_itself(self, tmp_path, capsys):
        """The oracle searches from the source's successors: a node on
        a cycle reaches itself, as the condensed index answers."""
        cyclic = tmp_path / "cycle.snap"
        cyclic.write_text("0 1\n1 2\n2 0\n2 3\n")
        for seed in range(6):
            code = main(["ingest", str(cyclic), "--build-index", "--engine",
                         "fast", "--probes", "50", "--seed", str(seed), "-q"])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert "probes=50 verified=ok" in captured.out

    def test_emit_json_payload(self, tmp_path, capsys):
        out_file = tmp_path / "ingest.json"
        code = main(["ingest", str(self.FIXTURES / "tiny.snap"),
                     "--build-index", "--engine", "fast",
                     "--emit-json", str(out_file), "-q"])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["stats"]["nodes"] == 6
        assert payload["index"]["probe_failures"] == 0
        assert payload["peak_rss_mb"] > 0

    def test_missing_file_exits_one_without_traceback(self, capsys):
        assert main(["ingest", "does-not-exist.snap"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_malformed_file_exits_one_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_text("0 1\noops\n")
        assert main(["ingest", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_truncated_gzip_exits_one_without_traceback(self, tmp_path, capsys):
        cut = tmp_path / "cut.snap.gz"
        write_snap(cut, ((node, node + 1) for node in range(20_000)))
        payload = cut.read_bytes()
        cut.write_bytes(payload[: len(payload) // 2])
        assert main(["ingest", str(cut)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated" in err
        assert "Traceback" not in err


class TestServeCommand:
    WORKLOAD = ["serve", "--nodes", "150", "--seed", "3", "--engine", "fast"]

    def test_self_check_passes_on_both_engines(self, capsys):
        assert main([*self.WORKLOAD, "--self-check", "40"]) == 0
        assert main(["serve", "--nodes", "150", "--seed", "3",
                     "--engine", "paged", "--self-check", "40"]) == 0
        output = capsys.readouterr().out
        assert "wrong=0" in output
        assert "healthz=ok" in output and "readyz=ok" in output

    def test_probe_mode_answers_directly(self, capsys):
        assert main([*self.WORKLOAD, "--probe", "0:100"]) == 0
        assert "verified=ok" in capsys.readouterr().out

    def test_invalid_probe_exits_two(self, capsys):
        assert main([*self.WORKLOAD, "--probe", "0:9999"]) == 2
        assert "outside the graph's range" in capsys.readouterr().err

    def test_probe_outside_the_indexed_scope_exits_two(self, capsys):
        assert main([*self.WORKLOAD, "--sources", "2", "--probe", "0:1"]) == 2
        err = capsys.readouterr().err
        assert "error: probe 0:1: source node 0 is not covered" in err
        assert "Traceback" not in err

    def test_self_check_without_sources_exits_one(self, capsys):
        assert main([*self.WORKLOAD, "--sources", "0", "--self-check", "5"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "no source node" in err
        assert "Traceback" not in err

    def test_self_check_removes_its_socket_directory(self, capsys):
        assert main([*self.WORKLOAD, "--self-check", "5"]) == 0
        endpoint = capsys.readouterr().out.rsplit(" on unix:", 1)[1].strip()
        assert endpoint.endswith(".sock")
        assert not os.path.exists(os.path.dirname(endpoint))

    def test_self_check_emits_serve_run_record(self, tmp_path, capsys):
        out = tmp_path / "serve.jsonl"
        assert main([*self.WORKLOAD, "--self-check", "20",
                     "--emit-json", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["algorithm"] == "serve"
        assert record["metrics"]["answered"] >= 20
        assert "latency_p99_ms" in record["metrics"]

    def test_bad_serve_config_exits_one(self, capsys):
        assert main([*self.WORKLOAD, "--deadline-ms", "-5",
                     "--self-check", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_deadline_exits_one_with_one_error_line(self, capsys):
        assert main([*self.WORKLOAD, "--deadline-ms", "nan",
                     "--self-check", "20"]) == 1
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ValueError: deadline_ms must be finite")

    def test_probe_mode_emits_serve_run_record(self, tmp_path, capsys):
        """Regression: the run record survives the RPL009 fix.

        Emission moved out of the async probe handler (JsonlSink fsyncs
        every record -- a blocking call on the event loop) to after
        ``asyncio.run`` returns; the record itself must still be
        written in probe mode.
        """
        out = tmp_path / "serve-probe.jsonl"
        assert main([*self.WORKLOAD, "--probe", "0:100",
                     "--emit-json", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["algorithm"] == "serve"
        assert "latency_p99_ms" in record["metrics"]


class TestWrongAnswersAreCaught:
    """Every verified path must notice an index that answers wrongly."""

    FIXTURE = str(Path(__file__).parent / "fixtures" / "ingest" / "braid_small.snap.gz")
    GRAPH = ["--nodes", "150", "--seed", "3", "--engine", "fast"]

    @pytest.fixture(autouse=True)
    def wrong_index(self, monkeypatch):
        right = ChainIndex.reachable
        monkeypatch.setattr(
            ChainIndex, "reachable", lambda self, u, v: not right(self, u, v)
        )

    @pytest.mark.parametrize("argv", [
        ["chains", *GRAPH, "--queries", "10", "-q"],
        ["chains", *GRAPH, "--queries", "0", "--probe", "0:100", "-q"],
        ["ingest", FIXTURE, "--build-index", "--engine", "fast", "--probes", "20", "-q"],
        ["serve", *GRAPH, "--probe", "0:100"],
        ["serve", *GRAPH, "--self-check", "10"],
    ], ids=["chains", "chains-probe", "ingest", "serve-probe", "serve-self-check"])
    def test_path_exits_one_naming_the_pair(self, argv, capsys):
        assert main(argv) == 1
        assert "MISMATCH reachable(" in capsys.readouterr().err
