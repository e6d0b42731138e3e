"""The record-file boundary: run-record files and sweep journals.

Both are read through :class:`repro.obs.sink.RecordFile`.  Whatever the
bytes, reading one ends in one of three outcomes: the parsed file, the
file without a final line that does not parse (dropped with a warning),
or a ``RecordFileError`` naming ``file:line``.  Nothing else is raised,
and every value a reader computes with -- a gated record metric, an
``AveragedMetrics`` field -- loads with its type, and as a finite number
where it is one.

Two layers prove it: a hypothesis suite that mutates the bytes of a
record file and of a journal (truncation, byte flips, non-UTF-8 bytes,
retyped fields), and a table that retypes each top-level RunRecord
field through the three commands that read these files: ``repro
compare``, ``repro obs report`` and ``run_all --resume``.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.checkpoint import SweepJournal
from repro.cli import main
from repro.errors import RecordFileError
from repro.experiments import run_all
from repro.experiments.runner import AveragedMetrics
from repro.obs.compare import compare_runs, load_records
from repro.obs.record import RunRecord
from repro.obs.report import build_report

BASELINE = Path(__file__).parent / "fixtures" / "compare" / "baseline.jsonl"
RECORD_LINES = BASELINE.read_text().splitlines()
RESUME = ["--profile", "smoke", "--only", "figure6", "--no-file", "--resume"]


def _metrics(total_io):
    rest = {
        f.name: 0.5
        for f in dataclasses.fields(AveragedMetrics)
        if f.name not in ("algorithm", "runs", "total_io")
    }
    return AveragedMetrics(algorithm="btc", runs=1, total_io=total_io, **rest)


@pytest.fixture(scope="module")
def journal_lines(tmp_path_factory):
    """A three-cell journal, one fixture record per cell."""
    path = tmp_path_factory.mktemp("journal") / "base.journal"
    with SweepJournal(path) as journal:
        for index, line in enumerate(RECORD_LINES):
            journal.record(f"cell-{index}", _metrics(100.0 + index),
                           [RunRecord.from_json(line)])
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def sweep_lines(tmp_path_factory):
    """The 15-cell journal of a smoke figure-6 sweep."""
    path = tmp_path_factory.mktemp("sweep") / "sweep.journal"
    assert run_all.main([*RESUME, str(path)]) == 0
    return path.read_text().splitlines()


# -- byte-level fuzzing --------------------------------------------------------

RETYPED = (None, True, 3, 1.5, math.nan, math.inf, "x", [], {}, [1], {"a": 1})
RECORD_PATHS = (
    ("algorithm",), ("workload",), ("query",), ("system",), ("metrics",),
    ("metrics", "total_io"), ("metrics", "cpu_seconds"), ("spans",),
    ("spans", "run"), ("spans", "run", "total_seconds"), ("trace",),
    ("wall_seconds",), ("schema_version",), ("faults",),
)
JOURNAL_PATHS = (
    ("schema_version",), ("key",), ("metrics",), ("metrics", "algorithm"),
    ("metrics", "runs"), ("metrics", "total_io"), ("metrics", "hit_ratio"),
    ("records",), ("records", 0),
    *(("records", 0, *path) for path in RECORD_PATHS),
)


def _retype(obj, path, value):
    """Set ``obj`` at ``path`` to ``value``, if the path still exists."""
    *parents, last = path
    for step in parents:
        try:
            obj = obj[step]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(obj, dict) or (isinstance(obj, list) and isinstance(last, int)
                                 and last < len(obj)):
        obj[last] = value


@st.composite
def mutated(draw, lines, paths):
    """The bytes of ``lines`` with retyped fields and damaged bytes."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[index])
        _retype(obj, draw(st.sampled_from(paths)), draw(st.sampled_from(RETYPED)))
        lines[index] = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    data = ("\n".join(lines) + "\n").encode()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("flip", "non-utf8", "truncate")))
        if kind == "non-utf8":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
        elif not data:
            continue
        elif kind == "flip":
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
        else:
            data = data[: draw(st.integers(0, len(data) - 1))]
    return data


def _parses(line):
    """Whether ``line`` decodes as UTF-8 JSON, as a whole line does."""
    try:
        json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return True


def _load(loader, path, data, capsys):
    """Load ``data`` and check it ended in one of the three outcomes.

    Returns what was loaded, or ``None`` for a refused file.
    """
    path.write_bytes(data)
    lines = data.splitlines()
    final_parses = bool(lines) and _parses(lines[-1])
    capsys.readouterr()
    try:
        loaded = loader(path)
    except RecordFileError as exc:
        match = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert match, str(exc)
        # Only a final line that does not parse is dropped as cut.
        assert int(match.group(1)) < len(lines) or final_parses
        return None
    lines_read = sum(1 for line in lines if line.strip())
    err = capsys.readouterr().err
    if err:
        assert not final_parses, err
        assert re.fullmatch(
            rf"warning: {re.escape(str(path))}:{len(lines)}: discarding truncated "
            r"final \w+ line \(\w+\)\n", err), err
        lines_read -= 1
    assert len(loaded) == lines_read
    return loaded


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_record(record):
    assert isinstance(record.algorithm, str)
    for value in (record.metrics.get("total_io", 0), record.metrics.get("cpu_seconds", 0),
                  record.wall_seconds):
        assert is_number(value)


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMutatedBytes:
    @given(data=mutated(RECORD_LINES, RECORD_PATHS))
    @SETTINGS
    def test_record_file_loads_drops_its_final_line_or_names_a_line(
        self, tmp_path, capsys, data
    ):
        records = _load(load_records, tmp_path / "records.jsonl", data, capsys)
        if records is None:
            return
        for record in records:
            _check_record(record)
        # What loads, the readers can compute with.
        compare_runs(records, records, wall_threshold=0.1).render()
        build_report(records)

    @given(data=st.data())
    @SETTINGS
    def test_journal_loads_drops_its_final_line_or_names_a_line(
        self, tmp_path, capsys, journal_lines, data
    ):
        payload = data.draw(mutated(journal_lines, JOURNAL_PATHS))
        journal = _load(SweepJournal, tmp_path / "sweep.journal", payload, capsys)
        if journal is None:
            return
        for metrics, records in journal._cells.values():
            assert isinstance(metrics.algorithm, str) and type(metrics.runs) is int
            for f in dataclasses.fields(AveragedMetrics):
                if f.name not in ("algorithm", "runs"):
                    assert is_number(getattr(metrics, f.name)), f.name
            for record in records:
                _check_record(record)


# -- one damaged line through the three commands -------------------------------

COMMANDS = ("compare", "obs-report", "resume")
FIELDS = ("algorithm", "workload", "query", "system", "metrics", "spans", "trace",
          "wall_seconds", "schema_version", "faults")
VALUES = (None, 3, "x", [], {})


def _accepted(field, value):
    """Whether a RunRecord may hold ``value`` in ``field``."""
    if field == "algorithm":
        return value == "x"
    if field == "trace":
        return value is None or value == {}
    if field == "wall_seconds":
        return value == 3
    if field == "faults":
        return value == []
    return field != "schema_version" and value == {}


def _run(command, tmp_path, lines, first_line):
    """Run ``command`` on ``lines`` with the first one replaced.

    Returns the exit code, the input path and the text that starts a
    refusal of that input.
    """
    path = tmp_path / ("sweep.journal" if command == "resume" else "records.jsonl")
    path.write_bytes(b"\n".join([first_line, *(line.encode() for line in lines[1:])]) + b"\n")
    if command == "resume":
        return run_all.main([*RESUME, str(path)]), path, "corrupt checkpoint line"
    if command == "compare":
        argv = ["compare", str(BASELINE), str(path), "--wall-threshold", "0.1"]
    else:
        argv = ["obs", "report", "--records", str(path), "--out", str(tmp_path / "r.html")]
    return main(argv), path, "not a RunRecord line"


def _assert_refused(code, path, refusal, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and f"{path}:1: {refusal}" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", VALUES, ids=json.dumps)
def test_one_retyped_field(command, field, value, tmp_path, capsys, sweep_lines):
    lines = sweep_lines if command == "resume" else RECORD_LINES
    first = json.loads(lines[0])
    record = first["records"][0] if command == "resume" else first
    record[field] = value
    code, path, refusal = _run(command, tmp_path, lines, json.dumps(first).encode())
    if _accepted(field, value):
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
    else:
        _assert_refused(code, path, refusal, capsys)


NUMBER_FIELDS = (("wall_seconds",), ("metrics", "total_io"), ("metrics", "cpu_seconds"))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("field", NUMBER_FIELDS, ids=".".join)
@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf), ids=json.dumps)
def test_a_non_finite_number_is_refused(command, field, value, tmp_path, capsys,
                                        sweep_lines):
    lines = sweep_lines if command == "resume" else RECORD_LINES
    first = json.loads(lines[0])
    _retype(first["records"][0] if command == "resume" else first, field, value)
    code, path, refusal = _run(command, tmp_path, lines, json.dumps(first).encode())
    _assert_refused(code, path, refusal, capsys)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("first_line", [b"[" * 200_000, b'{"key": "\xff"}'],
                         ids=["nested-too-deep", "not-utf8"])
def test_an_unreadable_line_names_its_line(command, first_line, tmp_path, capsys,
                                           sweep_lines):
    lines = sweep_lines if command == "resume" else RECORD_LINES
    code, path, refusal = _run(command, tmp_path, lines, first_line)
    _assert_refused(code, path, refusal, capsys)


def test_a_final_line_cut_inside_a_character_is_dropped(tmp_path, capsys):
    record = json.loads(RECORD_LINES[0])
    record["workload"]["family"] = "G\u00e9"
    whole = json.dumps(record, ensure_ascii=False).encode()
    path = tmp_path / "records.jsonl"
    path.write_bytes(RECORD_LINES[1].encode() + b"\n" + whole[: whole.index(b"\xc3") + 1])
    (loaded,) = load_records(path)
    assert loaded.to_json() == RECORD_LINES[1]
    assert f"warning: {path}:2: discarding truncated final record line" in (
        capsys.readouterr().err)
