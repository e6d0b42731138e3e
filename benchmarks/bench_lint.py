"""Benchmark: one full-rule repro-lint pass over the whole ``src/`` tree.

The dataflow rules (RPL008-010) build a CFG and run a fixpoint per
function, so a full-rule pass over ``src/`` costs real CPU.  This
benchmark times the pass CI runs -- every rule, every file, from a
fresh process with nothing carried over -- and writes
``BENCH_lint.json`` at the repository root (same sorted-keys /
trailing-newline discipline as the other ``BENCH_*.json`` files) with
the file and rule counts, the wall time and the files per second.

The pass must exit clean -- a finding in ``src/`` is a benchmark
failure, mirroring the CI self-check.

Run standalone (``python benchmarks/bench_lint.py``) or under the
bench suite (``pytest benchmarks/bench_lint.py``).
"""

import time
from pathlib import Path

from repro.lint.framework import lint_paths
from repro.lint.rules import make_rules
from repro.obs.bench import write_bench_summary

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def run_suite():
    rules = make_rules()
    start = time.perf_counter()
    result = lint_paths([str(SRC)], rules)
    seconds = time.perf_counter() - start
    assert not result.findings, [f.render() for f in result.findings]
    return {
        "workload": {
            "path": "src",
            "files": result.files,
            "rules": len(rules),
        },
        "seconds": round(seconds, 3),
        "files_per_second": round(result.files / seconds, 1),
    }


def test_lint_full_pass(benchmark):
    out = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    write_bench_summary(out, REPO_ROOT / "BENCH_lint.json")
    print(
        f"\nrepro-lint over src: {out['workload']['files']} files, "
        f"{out['workload']['rules']} rules, {out['seconds']}s"
    )
    # The CI budget: a full-rule pass over src/ must stay well under
    # the lint-dataflow leg's 20s ceiling.
    assert out["seconds"] < 20


if __name__ == "__main__":
    summary = run_suite()
    write_bench_summary(summary, REPO_ROOT / "BENCH_lint.json")
    print(summary)
