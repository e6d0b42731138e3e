"""Regenerate every table and figure of the paper in one run.

Usage::

    python -m repro.experiments.run_all --profile default
    python -m repro.experiments.run_all --profile paper --only table4 figure8
    python -m repro.experiments.run_all --profile default --jobs 4 --csv results/

Output goes to stdout and (unless ``--no-file``) to
``experiments_output_<profile>.txt`` in the current directory.  The
file contains only the table/figure text -- no timings -- so runs are
byte-comparable regardless of ``--jobs`` (the experiment
engine guarantees bit-identical averages; see
:mod:`repro.experiments.parallel`).  ``--csv DIR`` also writes each
table and figure panel as a CSV file under ``DIR`` (``table2.csv``,
``figure6.csv``, ``figure11_a.csv``, ...).  Every section runs on the
sweep's one engine, so a cell several figures share runs once.

``--jobs N`` fans the experiment grid across N worker processes;
``--timeout S`` bounds each individual run (retried with backoff, then
the cell is marked failed with ``nan`` values and the exit status is
non-zero).

Robustness controls (see ``docs/ROBUSTNESS.md``):

* ``--resume sweep.journal`` -- journal every completed cell to a
  crash-safe checkpoint; re-running the same command after a kill
  re-executes only the missing cells and produces byte-identical
  output.
* ``--chaos SPEC`` -- arm the fault-injection plane (exported as
  ``REPRO_CHAOS``, which this process and every worker arm from).
* ``--audit MODE`` -- off / cheap (default) / strict invariant
  auditing (exported as ``REPRO_AUDIT``).

``--engine`` likewise only exports ``REPRO_ENGINE``, which every
``SystemConfig`` the table and figure builders make resolves.  A
misspelt ``REPRO_*`` variable fails before any unit runs (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from collections.abc import Callable
from contextlib import ExitStack
from pathlib import Path
from typing import Any

from repro.chaos.audit import AUDIT_MODES
from repro.chaos.checkpoint import SweepJournal
from repro.errors import ReproError
from repro.experiments.config import PROFILES, ScaleProfile, get_profile
from repro.experiments.figures import ALL_FIGURES, FigureData
from repro.experiments.parallel import ExperimentEngine, arm_planes
from repro.experiments.tables import table2, table3, table4
from repro.metrics.report import format_table
from repro.storage.engine import ENGINE_NAMES

_Rows = list[dict[str, object]]

_SECTIONS: dict[str, tuple[Callable[[ScaleProfile, ExperimentEngine], Any], str | None]] = {
    "table2": (table2, "Table 2. Graph parameters"),
    "table3": (table3, "Table 3. I/O and CPU cost of BTC (G6, CTC)"),
    "table4": (table4, "Table 4. JKB2 vs BTC for PTC queries (by width)"),
    **{name: (figure, None) for name, figure in ALL_FIGURES.items()},
}
"""Every section in run order: its builder, and its title if a table."""


def _run_section(name: str, profile: ScaleProfile,
                 engine: ExperimentEngine) -> tuple[str, dict[str, _Rows]]:
    """Build one section: its text, and its CSV rows by file name
    (``table2.csv``, ``figure6.csv``, one ``figure11_a.csv`` per panel)."""
    builder, title = _SECTIONS[name]
    result = builder(profile, engine)
    if title is not None:
        return format_table(result, title=title), {f"{name}.csv": result}
    panels = {"": result} if isinstance(result, FigureData) else result
    text = "\n\n".join(panel.render() for panel in panels.values())
    return text, {f"{name}_{letter}.csv" if letter else f"{name}.csv": figure_rows(panel)
                  for letter, panel in panels.items()}


def write_rows(path: Path, rows: _Rows) -> None:
    """Write dictionaries as one CSV file (columns from the first row)."""
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def figure_rows(data: FigureData) -> _Rows:
    """Flatten one figure panel into x/series rows."""
    rows = []
    for index, x in enumerate(data.xs):
        row: dict[str, object] = {data.x_label: x}
        for label, values in data.series.items():
            row[label] = values[index] if index < len(values) else ""
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="default",
        help="scale profile to run at (default: %(default)s)",
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="subset of experiments, e.g. table2 figure8 (default: all)",
    )
    parser.add_argument(
        "--no-file", action="store_true",
        help="print to stdout only, do not write the output file",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write each table and figure panel as a CSV file under DIR",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for the experiment grid (default: 1 = in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock limit (one retry; default: none)",
    )
    parser.add_argument(
        "--resume", metavar="JOURNAL", default=None,
        help="checkpoint completed cells to JOURNAL and resume from it",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="arm the fault-injection plane, e.g. 'corrupt-read,after=100'",
    )
    parser.add_argument(
        "--audit", choices=AUDIT_MODES, default=None,
        help="invariant audit mode (default: cheap, or REPRO_AUDIT)",
    )
    parser.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default=None,
        help="storage engine for every cell: 'paged' (the paper's cost "
        "model) or 'fast' (in-memory; page-I/O columns read zero)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    selected = args.only if args.only else list(_SECTIONS)
    unknown = [name for name in selected if name not in _SECTIONS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    profile = get_profile(args.profile)

    # The planes stay armed for the whole sweep (its pool inherits them)
    # and are disarmed on every way out.
    with ExitStack() as planes:
        try:
            # The figure/table builders' SystemConfigs resolve the exported
            # REPRO_ENGINE, in every process, without touching a call site.
            plan = planes.enter_context(arm_planes(args.chaos, args.audit, args.engine))
            journal = SweepJournal(args.resume) if args.resume else None
            # Only now, so a refused REPRO_* variable writes nothing.
            csv_dir = Path(args.csv) if args.csv else None
            if csv_dir is not None:
                csv_dir.mkdir(parents=True, exist_ok=True)
        except (ReproError, OSError, ValueError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2

        sections = [f"# Reproduction run, profile={profile.name} "
                    f"(n={profile.num_nodes}, {profile.graphs_per_family} graphs/family, "
                    f"{profile.source_samples} source samples)"]
        print(sections[0], flush=True)
        engine = ExperimentEngine(jobs=args.jobs, timeout=args.timeout,
                                  checkpoint=journal)
        try:
            with engine:
                for name in selected:
                    start = time.perf_counter()
                    text, files = _run_section(name, profile, engine)
                    elapsed = time.perf_counter() - start
                    sections.append(f"## {name}\n{text}")
                    print(f"## {name}  ({elapsed:.1f}s)\n{text}", flush=True)
                    if csv_dir is not None:
                        for file_name, rows in files.items():
                            write_rows(csv_dir / file_name, rows)
        except ReproError as exc:
            # Injected faults and invariant violations surface here as
            # structured errors -- never as a traceback.
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            if plan is not None and not engine.parallel:
                print(plan.summary(), file=sys.stderr)
            if journal is not None:
                print(journal.describe(), file=sys.stderr)
            return 1

        if journal is not None:
            print(f"\n[{journal.describe()}]")
        # At --jobs > 1 the faults fire in the workers, whose counts this
        # process's plan never sees: print its summary only when it saw them.
        if plan is not None and not engine.parallel:
            print(f"[{plan.summary()}]", file=sys.stderr)

        if not args.no_file:
            path = f"experiments_output_{profile.name}.txt"
            with open(path, "w") as handle:
                handle.write("\n\n".join(sections) + "\n")
            print(f"\n[written to {path}]")
        if csv_dir is not None:
            print(f"[CSV files written to {csv_dir}]")

        if engine.failures:
            print(f"\n{len(engine.failures)} work unit(s) failed; "
                  "affected cells are rendered as nan:", file=sys.stderr)
            for failure in engine.failures:
                print(f"  - {failure.render()}", file=sys.stderr)
            return 1
        return 0


if __name__ == "__main__":
    sys.exit(main())
