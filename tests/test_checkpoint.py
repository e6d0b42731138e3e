"""Tests for the sweep checkpoint journal and --resume."""

import dataclasses
import json
import re

import pytest

from repro.chaos.checkpoint import SweepJournal, cell_key
from repro.errors import RecordFileError
from repro.experiments.run_all import main
from repro.experiments.runner import AveragedMetrics
from repro.obs.record import RunRecord


def _metrics(total_io=100.0):
    rest = {
        f.name: 0.0
        for f in dataclasses.fields(AveragedMetrics)
        if f.name not in ("algorithm", "runs", "total_io")
    }
    return AveragedMetrics(algorithm="btc", runs=1, total_io=total_io, **rest)


def _records():
    return [RunRecord(algorithm="btc", workload={"family": "G1"},
                      metrics={"total_io": 100})]


# Lines that parse as JSON but are not a journaled cell.
MALFORMED = {
    "line-not-an-object": lambda cell: [cell],
    "metrics-not-an-object": lambda cell: {**cell, "metrics": [1]},
    "records-not-objects": lambda cell: {**cell, "records": [1]},
    "records-not-a-list": lambda cell: {**cell, "records": 5},
    "key-not-a-string": lambda cell: {**cell, "key": []},
    "metrics-value-not-a-number": lambda cell: {
        **cell, "metrics": {name: "x" for name in cell["metrics"]}},
    "metrics-value-nan": lambda cell: {
        **cell, "metrics": {**cell["metrics"], "total_io": float("nan")}},
    "version-mismatch": lambda cell: {**cell, "schema_version": 99},
}


def _journal_with_damaged_line(path, line_index, damage):
    """A two-cell journal whose ``line_index``-th line is malformed."""
    with SweepJournal(path) as journal:
        journal.record("cell-a", _metrics(), _records())
        journal.record("cell-b", _metrics(), _records())
    lines = path.read_text().splitlines()
    lines[line_index] = json.dumps(MALFORMED[damage](json.loads(lines[line_index])))
    path.write_text("\n".join(lines) + "\n")


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal(path)
        journal.record("cell-a", _metrics(), _records())
        assert "cell-a" in journal and len(journal) == 1

        reloaded = SweepJournal(path)
        assert reloaded.loaded == 1
        metrics, records = reloaded.get("cell-a")
        assert metrics == _metrics()
        assert records == _records()

    def test_record_is_idempotent(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal(path)
        journal.record("cell-a", _metrics(), _records())
        journal.record("cell-a", _metrics(999.0), _records())
        assert journal.appended == 1
        assert SweepJournal(path).get("cell-a")[0] == _metrics()

    def test_truncated_final_line_tolerated(self, tmp_path, capsys):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal(path)
        journal.record("cell-a", _metrics(), _records())
        journal.record("cell-b", _metrics(), _records())
        # Simulate a kill mid-append: cut the last line in half.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        survivor = SweepJournal(path)
        assert "truncated" in capsys.readouterr().err
        assert "cell-a" in survivor
        assert "cell-b" not in survivor  # simply re-runs on resume

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal(path)
        journal.record("cell-a", _metrics(), _records())
        good = path.read_text()
        path.write_text("garbage\n" + good)
        with pytest.raises(ValueError, match="corrupt checkpoint line"):
            SweepJournal(path)

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_malformed_middle_line_raises_named_error(self, tmp_path, damage):
        path = tmp_path / "sweep.journal"
        _journal_with_damaged_line(path, 0, damage)
        with pytest.raises(RecordFileError,
                           match=re.escape(f"{path}:1: corrupt checkpoint line")):
            SweepJournal(path)

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_malformed_final_line_is_discarded(self, tmp_path, damage):
        # Only a final line that does not parse is discarded as cut
        # (test_truncated_final_line_tolerated); a whole one is refused.
        path = tmp_path / "sweep.journal"
        _journal_with_damaged_line(path, 1, damage)
        with pytest.raises(RecordFileError,
                           match=re.escape(f"{path}:2: corrupt checkpoint line")):
            SweepJournal(path)

    def test_resume_from_a_malformed_journal_exits_two(self, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        for damage in ("metrics-not-an-object", "metrics-value-not-a-number",
                       "key-not-a-string", "version-mismatch"):
            _journal_with_damaged_line(tmp_path / "sweep.journal", 0, damage)
            assert main(["--profile", "smoke", "--only", "figure8",
                         "--resume", "sweep.journal", "--no-file"]) == 2, damage
            err = capsys.readouterr().err
            assert err.count("error:") == 1
            assert "error: RecordFileError: sweep.journal:1: corrupt checkpoint line" in err
            assert "Traceback" not in err
            (tmp_path / "sweep.journal").unlink()

    def test_resume_refuses_a_one_line_stale_journal(self, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.chdir(tmp_path)
        with SweepJournal(tmp_path / "sweep.journal") as journal:
            journal.record("cell-a", _metrics(), _records())
        cell = json.loads((tmp_path / "sweep.journal").read_text())
        (tmp_path / "sweep.journal").write_text(
            json.dumps({**cell, "schema_version": 0}) + "\n")
        assert main(["--profile", "smoke", "--only", "figure6",
                     "--resume", "sweep.journal", "--no-file"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "error: RecordFileError: sweep.journal:1: corrupt checkpoint line" in err
        assert "Traceback" not in err

    def test_torn_final_checkpoint_record_under_batching(self, tmp_path, capsys):
        """A kill that tears the *final* record keeps every earlier one.

        Each record is durable when :meth:`SweepJournal.record` returns,
        so the file is read back without any flush; only the last line
        may be damaged (whole-line writes), and recovery must keep every
        earlier record.
        """
        path = tmp_path / "sweep.journal"
        journal = SweepJournal(path)
        for name in ("cell-a", "cell-b", "cell-c"):
            journal.record(name, _metrics(), _records())
        # Model the worst allowed damage: a cut partway through the
        # final record.
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 3])

        survivor = SweepJournal(path)
        assert "truncated" in capsys.readouterr().err
        assert "cell-a" in survivor and "cell-b" in survivor
        assert "cell-c" not in survivor  # simply re-runs on resume
        assert survivor.loaded == 2

    def test_torn_tail_cut_at_newline_boundary_loses_only_that_cell(
        self, tmp_path
    ):
        path = tmp_path / "sweep.journal"
        journal = SweepJournal(path)
        journal.record("cell-a", _metrics(), _records())
        journal.record("cell-b", _metrics(), _records())
        journal.record("cell-c", _metrics(), _records())
        # Tear exactly at the final record's first byte: clean loss.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))

        survivor = SweepJournal(path)
        assert survivor.loaded == 2
        assert "cell-c" not in survivor

    def test_a_whole_final_line_without_newline_keeps_its_cell(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.record("cell-a", _metrics(), _records())
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with SweepJournal(path) as journal:
            assert journal.loaded == 1
            journal.record("cell-b", _metrics(), _records())
        survivor = SweepJournal(path)
        assert survivor.loaded == 2 and "cell-a" in survivor and "cell-b" in survivor

    def test_a_repeated_key_names_its_second_line(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.record("cell-a", _metrics(), _records())
            journal.record("cell-b", _metrics(), _records())
            journal.record("cell-c", _metrics(), _records())
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "key": "cell-a"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordFileError, match=rf"{re.escape(str(path))}:3: .*repeats"):
            SweepJournal(path)
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "figure6",
                     "--resume", "sweep.journal", "--no-file"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "sweep.journal:3:" in err

    def test_cell_key_is_canonical(self):
        key = cell_key("btc", "G4", None, {"buffer_pages": 20}, {"name": "smoke"})
        assert key == cell_key("btc", "G4", None, {"buffer_pages": 20},
                               {"name": "smoke"})
        assert json.loads(key)["algorithm"] == "btc"
        assert key != cell_key("btc", "G4", 10, {"buffer_pages": 20},
                               {"name": "smoke"})


class TestResume:
    """The acceptance path: kill a sweep, resume it, diff the bytes.

    ``table2``/``figure6`` carry only deterministic counters (the same
    selection the CI diff leg uses), so byte equality is exact.
    """

    ARGS = ["--profile", "smoke", "--only", "table2", "figure8"]
    OUT = "experiments_output_smoke.txt"

    def test_resumed_output_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS) == 0
        reference = (tmp_path / self.OUT).read_bytes()

        # "Kill" before the second experiment: journal only figure8's
        # cells (table2 runs no algorithm cells, only graph statistics).
        assert main(["--profile", "smoke", "--only", "figure8",
                     "--resume", "sweep.journal", "--no-file"]) == 0
        journaled = len(SweepJournal(tmp_path / "sweep.journal"))
        assert journaled > 0

        # ...then resume the full sweep against the same journal.
        capsys.readouterr()
        assert main([*self.ARGS, "--resume", "sweep.journal"]) == 0
        assert (tmp_path / self.OUT).read_bytes() == reference
        assert f"{journaled} cell(s) resumed" in capsys.readouterr().out

    def test_journal_grows_only_with_fresh_cells(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "figure8",
                     "--resume", "sweep.journal", "--no-file"]) == 0
        size = (tmp_path / "sweep.journal").stat().st_size
        assert main(["--profile", "smoke", "--only", "figure8",
                     "--resume", "sweep.journal", "--no-file"]) == 0
        assert (tmp_path / "sweep.journal").stat().st_size == size

    @pytest.mark.parametrize("cut", ["line-10", "last-line"])
    def test_a_cell_cut_mid_append_is_resumed_after_its_rerun(
        self, tmp_path, monkeypatch, capsys, cut
    ):
        """A kill mid-append leaves half a line; the resume that re-runs
        its cell must not write onto that half, so the next resume finds
        every cell whole."""
        monkeypatch.chdir(tmp_path)
        args = ["--profile", "smoke", "--only", "figure6", "--no-file",
                "--resume", "sweep.journal"]
        assert main(args) == 0
        journal = tmp_path / "sweep.journal"
        lines = journal.read_bytes().splitlines(keepends=True)
        cells = len(lines)
        at = 9 if cut == "line-10" else cells - 1
        journal.write_bytes(b"".join(lines[:at]) + lines[at][: len(lines[at]) // 2])
        capsys.readouterr()
        assert main(args) == 0
        first = capsys.readouterr()
        assert f"sweep.journal:{at + 1}: discarding truncated final journal line" in first.err
        assert f"{at} cell(s) resumed, {cells - at} appended" in first.out
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.err == ""
        assert f"{cells} cell(s) resumed, 0 appended" in second.out

    def test_truncated_journal_still_resumes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS) == 0
        reference = (tmp_path / self.OUT).read_bytes()

        assert main([*self.ARGS, "--resume", "sweep.journal", "--no-file"]) == 0
        journal = tmp_path / "sweep.journal"
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:-1]) + lines[-1][: 40])

        assert main([*self.ARGS, "--resume", "sweep.journal"]) == 0
        assert (tmp_path / self.OUT).read_bytes() == reference
