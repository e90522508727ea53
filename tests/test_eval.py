"""Experiment-harness tests (small scale: shapes, not magnitudes)."""

import json

import pytest

from repro.eval import Session
from repro.eval.result import ExperimentResult, render_table
from repro.sim import SimConfig

TINY = SimConfig(instr_limit=1_500, timeslice=600, warmup_instrs=400)


@pytest.fixture(scope="module")
def session():
    return Session(config=TINY)


@pytest.fixture(scope="module")
def fig10(session):
    return session.run("fig10")


class TestResultObject:
    def test_render_contains_columns_and_rows(self):
        r = ExperimentResult("x", "demo", ["a", "b"], [(1, 2.5)], ["n"])
        text = r.render()
        assert "demo" in text and "2.50" in text and "note: n" in text

    def test_json_roundtrip(self):
        r = ExperimentResult("x", "demo", ["a"], [(1,)])
        data = json.loads(r.to_json())
        assert data["experiment"] == "x"
        assert data["rows"] == [[1]]

    def test_save(self, tmp_path):
        r = ExperimentResult("x", "demo", ["a"], [(1,)])
        path = r.save(tmp_path)
        with open(path) as f:
            assert json.load(f)["title"] == "demo"

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        """A failing write must leave the previous artifact intact (no
        truncated JSON) and no temp litter behind."""
        import os

        r = ExperimentResult("x", "demo", ["a"], [(1,)])
        path = r.save(tmp_path)
        with open(path) as f:
            original = f.read()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            ExperimentResult("x", "changed", ["a"], [(2,)]).save(tmp_path)
        monkeypatch.undo()
        with open(path) as f:
            assert f.read() == original
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_render_table_alignment(self):
        text = render_table(["name", "v"], [("a", 1.0), ("bb", 22.5)])
        lines = text.splitlines()
        assert len(lines) == 4

    def test_row_map(self):
        r = ExperimentResult("x", "demo", ["a", "b"], [("k", 2)])
        assert r.row_map()["k"] == ("k", 2)


class TestStaticExperiments:
    def test_table2_static(self, session):
        r = session.run("table2")
        assert len(r.rows) == 9
        assert r.rows[0][0] == "LLLL"

    def test_fig5_rows(self, session):
        r = session.run("fig5")
        assert [row[0] for row in r.rows] == list(range(2, 9))
        for row in r.rows:
            assert row[1] < row[3]  # CSMT SL cheaper than SMT

    def test_fig9_covers_16_schemes(self, session):
        r = session.run("fig9")
        assert len(r.rows) == 16
        names = [row[0] for row in r.rows]
        assert "1S" in names and "2SC3" in names


class TestSimExperiments:
    def test_table1_bands(self, session):
        r = session.run("table1")
        assert len(r.rows) == 12
        for name, cls, ipcr, ipcp, p_r, p_p in r.rows:
            assert ipcp >= ipcr * 0.95, name

    def test_fig10_structure(self, fig10):
        assert len(fig10.rows) == 13  # 12 scheme groups + 1S
        for row in fig10.rows:
            assert len(row) == 1 + 9 + 1  # label + workloads + average

    def test_fig10_extremes(self, fig10):
        avgs = {row[0]: row[-1] for row in fig10.rows}
        one_s = avgs["1S"]
        smt4 = avgs["3SSS"]
        assert smt4 > one_s
        assert fig10.rows[-1][0] == "3SSS" or avgs["3SSS"] == max(avgs.values())

    def test_fig11_joins_cost_and_perf(self, session, fig10):
        r = session.run("fig11")  # reuses the session's cached fig10
        names = [row[0] for row in r.rows]
        assert "2SC3" in names and "C4" in names
        by_name = {row[0]: row for row in r.rows}
        assert by_name["3SSS"][2] > by_name["C4"][2]  # transistors

    def test_fig12_delay_column(self, session, fig10):
        r = session.run("fig12")
        by_name = {row[0]: row for row in r.rows}
        assert by_name["3SSS"][2] > by_name["C4"][2]  # delays


class TestCli:
    def test_cli_static_experiment(self, capsys):
        from repro.eval.cli import main
        assert main(["--experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "2SC3" in out

    def test_cli_saves_json(self, tmp_path, capsys):
        from repro.eval.cli import main
        assert main(["--experiment", "fig5", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig5.json").exists()
