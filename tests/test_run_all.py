"""Tests for the run-everything experiment driver."""

import csv

import pytest

from repro.experiments import parallel
from repro.experiments.run_all import main


class TestRunAll:
    def test_single_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "table3", "--no-file"]) == 0
        output = capsys.readouterr().out
        assert "Table 3" in output
        assert "page_io" in output

    def test_writes_output_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "table3"]) == 0
        path = tmp_path / "experiments_output_smoke.txt"
        assert path.exists()
        assert "Table 3" in path.read_text()

    def test_figure_selection(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "figure11", "--no-file"]) == 0
        output = capsys.readouterr().out
        assert "Figure 11" in output
        assert "JKB2" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "figure99", "--no-file"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["--profile", "gigantic"])


class TestCsv:
    """``--csv DIR``: one CSV file per table and per figure panel."""

    def test_table_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "csv"
        assert main(["--profile", "smoke", "--only", "table2", "--no-file",
                     "--csv", str(out)]) == 0
        assert [path.name for path in out.iterdir()] == ["table2.csv"]
        with (out / "table2.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        assert rows[0]["graph"] == "G1"

    def test_one_file_per_figure_panel(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "csv"
        assert main(["--profile", "smoke", "--only", "figure6", "figure11",
                     "--no-file", "--csv", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "figure11_a.csv", "figure11_b.csv", "figure6.csv"]
        with (out / "figure11_a.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert "BTC" in rows[0]
        assert "s" in rows[0]

    def test_refused_plane_variable_writes_no_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_AUDIT", "chep")
        out = tmp_path / "csv"
        assert main(["--profile", "smoke", "--only", "table2", "--no-file",
                     "--csv", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "REPRO_AUDIT" in line
        assert not out.exists()

    def test_shared_figure_grid_runs_each_unit_once(self, capsys, tmp_path, monkeypatch):
        """Figures 8-12 plot one grid: one sweep executes each unit once."""
        executed = []
        execute_unit = parallel.execute_unit

        def spy(unit, *args, **kwargs):
            executed.append((unit.algorithm, unit.graph, unit.query, unit.system,
                             unit.graph_seed, unit.sample_index))
            return execute_unit(unit, *args, **kwargs)

        monkeypatch.setattr(parallel, "execute_unit", spy)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "csv"
        figures = ["figure8", "figure9", "figure10", "figure11", "figure12"]
        assert main(["--profile", "smoke", "--only", *figures, "--no-file",
                     "--csv", str(out)]) == 0
        assert executed and len(executed) == len(set(executed))
        assert len(list(out.iterdir())) == 2 * len(figures)


class TestTable3Units:
    def test_table3_runs_are_crash_opportunities(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--profile", "smoke", "--only", "table3",
                     "--chaos", "crash-unit,p=1", "--no-file"]) == 1
        captured = capsys.readouterr()
        assert "nan" in captured.out
        assert "InjectedCrashError" in captured.err
        assert "Traceback" not in captured.err
