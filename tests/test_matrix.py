"""Cross-machine scaling campaigns: run_matrix, scaling reports, CLI."""

import json

import pytest

from repro.arch import (
    machine_family,
    paper_machine,
    preset_machine,
    scaled_machine,
)
from repro.eval import Session, sweep_threads
from repro.eval.cli import main as cli_main
from repro.eval.scaling import (
    MatrixResult,
    budget_recommendations,
    frontier_map,
    rank_stability,
    scaling_report,
    variant_label,
)
from repro.sim import SimConfig

TINY = SimConfig(instr_limit=400, timeslice=200, warmup_instrs=100)

#: three machine presets spanning cluster count *and* issue width.
FAMILY = {"2c2w": scaled_machine(2, 2), "2c4w": scaled_machine(2, 4),
          "4c4w": scaled_machine(4, 4)}


class TestMachineFamily:
    def test_scaled_machine_matches_paper_recipe(self):
        assert scaled_machine(4, 4) == paper_machine()

    def test_scaled_machine_matches_small_recipe(self):
        from repro.arch import small_machine
        assert scaled_machine(2, 2) == small_machine()

    def test_family_tags_and_geometry(self):
        fam = machine_family(clusters=(2, 8), widths=(3, 5))
        assert set(fam) == {"2c3w", "2c5w", "8c3w", "8c5w"}
        assert fam["8c5w"].n_clusters == 8
        assert fam["8c5w"].cluster.issue_width == 5
        assert fam["2c3w"].cluster.n_mul == 2  # paper mix, clamped

    def test_default_family_is_cluster_axis(self):
        assert set(machine_family()) == {"2c4w", "4c4w", "8c4w"}

    def test_too_narrow_width_rejected(self):
        with pytest.raises(ValueError, match="issue_width"):
            scaled_machine(2, 1)

    def test_preset_machine_resolves_names_and_geometries(self):
        assert preset_machine("paper") == paper_machine()
        assert preset_machine("8c4w").n_clusters == 8
        assert preset_machine("vex-2c3w").cluster.issue_width == 3

    def test_preset_machine_rejects_unknown(self):
        for bad in ("mystery", "4x4", "c4w", "4cw"):
            with pytest.raises(ValueError, match="machine preset"):
                preset_machine(bad)


class TestSweepThreads:
    def test_sweep_ids(self):
        assert sweep_threads("sweep") == 4
        assert sweep_threads("sweep2") == 2
        assert sweep_threads("sweep10") == 10

    def test_non_sweep_ids(self):
        # sweep02 would queue its cells under sweep2
        for name in ("fig10", "table1", "sweepy", "sweep2x", "sweep0",
                     "sweep02"):
            assert sweep_threads(name) is None


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """table1 + a sweep over three machine presets through one store."""
    store = str(tmp_path_factory.mktemp("matrix") / "run")
    session = Session(machines=FAMILY, config=TINY, store=store)
    table1 = session.run_matrix("table1", machines=sorted(FAMILY))
    sweep = session.run_matrix("sweep2", machines=sorted(FAMILY),
                               workloads=["LLLL"])
    return session, table1, sweep, store


class TestRunMatrix:
    def test_variants_and_tags(self, campaign):
        _session, table1, sweep, _store = campaign
        assert [v[0] for v in sweep.variants()] == ["2c2w", "2c4w", "4c4w"]
        assert sweep.experiment == "sweep2"
        assert table1.experiment == "table1"
        assert table1["2c4w"].experiment == "table1@2c4w"

    def test_one_store_holds_the_whole_campaign(self, campaign):
        session, _table1, _sweep, _store = campaign
        for experiment in ("table1", "sweep2"):
            keys = set(session.store.load_cells(experiment))
            for tag in FAMILY:
                assert any(k.endswith(f"@{tag}") for k in keys), (
                    experiment, tag)

    def test_frontiers_match_individually_run_sweeps(self, campaign):
        """The matrix view is the per-machine sweep, cell for cell."""
        session, _table1, sweep, _store = campaign
        frontiers = frontier_map(sweep)
        for tag in FAMILY:
            solo = session.sweep(2, ["LLLL"], machine=tag)
            assert session.last_grid.executed == 0  # pure cache replay
            assert solo.meta["frontier"] == frontiers[tag]

    def test_default_axis_is_the_registry(self):
        """No machines= argument fans over every *registered* machine —
        not also the session default, which would double-simulate a
        registered twin of the paper machine under a distinct tag."""
        session = Session(config=TINY,
                          machines={"2c2w": scaled_machine(2, 2),
                                    "2c4w": scaled_machine(2, 4)})
        matrix = session.run_matrix("fig9")
        assert [m for m, _c in matrix.results] == ["2c2w", "2c4w"]

    def test_default_axis_without_registry_is_session_default(self):
        matrix = Session(config=TINY).run_matrix("fig9")
        assert [m for m, _c in matrix.results] == [""]
        assert matrix.machines[""].name == paper_machine().name

    def test_default_included_explicitly(self):
        session = Session(config=TINY,
                          machines={"2c2w": scaled_machine(2, 2)})
        matrix = session.run_matrix("fig9", machines=["", "2c2w"])
        assert [m for m, _c in matrix.results] == ["", "2c2w"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="sweep id"):
            Session(config=TINY).run_matrix("fig99")

    def test_unknown_tag_rejected(self):
        with pytest.raises(KeyError, match="unknown machine tag"):
            Session(config=TINY).run_matrix("fig9", machines=["nope"])

    def test_duplicate_and_empty_axes_rejected(self):
        session = Session(config=TINY,
                          machines={"2c2w": scaled_machine(2, 2)})
        with pytest.raises(ValueError, match="duplicate"):
            session.run_matrix("fig9", machines=["2c2w", "2c2w"])
        with pytest.raises(ValueError, match="no variants"):
            session.run_matrix("fig9", machines=[])

    def test_sweep_threads_override(self):
        session = Session(config=TINY,
                          machines={"2c2w": scaled_machine(2, 2)})
        matrix = session.run_matrix("sweep", machines=["2c2w"], threads=2,
                                    workloads=["LLLL"])
        assert matrix.experiment == "sweep2"

    def test_sqlite_backend_parity(self, campaign, tmp_path):
        """The same campaign through a SQLite store: identical artifacts."""
        _session, dir_table1, dir_sweep, _store = campaign
        url = f"sqlite:{tmp_path / 'campaign.db'}"
        session = Session(machines=FAMILY, config=TINY, store=url)
        table1 = session.run_matrix("table1", machines=sorted(FAMILY))
        sweep = session.run_matrix("sweep2", machines=sorted(FAMILY),
                                   workloads=["LLLL"])
        for matrix, dir_matrix in ((table1, dir_table1),
                                   (sweep, dir_sweep)):
            for key, result in matrix.results.items():
                assert result.to_json() == \
                    dir_matrix.results[key].to_json(), key
        # and a fresh session over the same sqlite store replays it
        replay = Session(machines=FAMILY, config=TINY, store=url)
        replayed = replay.run_matrix("sweep2", machines=sorted(FAMILY),
                                     workloads=["LLLL"])
        assert replayed.executed == 0 and replayed.reused > 0


class TestScalingReport:
    def test_report_shape(self, campaign):
        _session, _table1, sweep, _store = campaign
        report = scaling_report(sweep, budget_transistors=4_000)
        assert report.experiment == "matrix.sweep2"
        assert len(report.rows) == 3
        assert [r[0] for r in report.rows] == ["2c2w", "2c4w", "4c4w"]
        meta = report.meta
        assert set(meta["frontiers"]) == set(FAMILY)
        assert meta["budget"]["transistors"] == 4_000
        assert set(meta["recommendations"]) == set(FAMILY)

    def test_rank_stability_accounts_every_scheme(self, campaign):
        _session, _table1, sweep, _store = campaign
        stability = rank_stability(sweep)
        assert stability["variants"] == ["2c2w", "2c4w", "4c4w"]
        for scheme, ranks in stability["ranks"].items():
            assert set(ranks) == set(stability["variants"]), scheme
        moved = {s for s, _d in stability["volatile"]}
        assert set(stability["stable"]) | moved == set(stability["ranks"])

    def test_budget_recommendations_respect_budget(self, campaign):
        _session, _table1, sweep, _store = campaign
        recs = budget_recommendations(sweep, budget_transistors=4_000)
        for label, pick in recs.items():
            if pick is not None:
                assert pick["transistors"] <= 4_000, label

    def test_report_requires_avg_ipc(self, campaign):
        _session, table1, _sweep, _store = campaign
        with pytest.raises(ValueError, match="avg_ipc"):
            scaling_report(table1)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty matrix"):
            scaling_report(MatrixResult(experiment="sweep2"))

    def test_variant_label(self):
        assert variant_label("", "") == "default"
        assert variant_label("8c4w", "") == "8c4w"
        assert variant_label("8c4w", "half") == "8c4w%half"
        assert variant_label("", "half") == "default%half"


class TestMatrixCli:
    def test_matrix_smoke_saves_report(self, tmp_path, capsys):
        out = tmp_path / "matrix-run"
        rc = cli_main(["matrix", "-e", "sweep2", "--machines", "2c2w,2c4w",
                       "--workloads", "LLLL", "--scale", "0.02",
                       "--out", str(out)])
        assert rc == 0
        shown = capsys.readouterr().out
        assert "Cross-machine scaling report" in shown
        assert "2 variants of sweep2" in shown
        report = json.loads((out / "matrix.sweep2.json").read_text())
        assert set(report["meta"]["frontiers"]) == {"2c2w", "2c4w"}
        # the per-variant sweep artifacts were saved too
        assert (out / "sweep2@2c4w.json").exists()

    def test_matrix_non_sweep_prints_artifacts(self, capsys):
        rc = cli_main(["matrix", "-e", "fig9", "--machines", "2c2w,2c4w"])
        assert rc == 0
        shown = capsys.readouterr().out
        assert "fig9@2c2w" in shown and "fig9@2c4w" in shown

    def test_matrix_needs_two_machines(self, capsys):
        rc = cli_main(["matrix", "--machines", "2c4w"])
        assert rc == 1
        assert "at least two presets" in capsys.readouterr().err

    def test_matrix_rejects_bad_preset(self, capsys):
        rc = cli_main(["matrix", "--machines", "2c4w,bogus"])
        assert rc == 1
        assert "machine preset" in capsys.readouterr().err

    def test_matrix_rejects_workloads_for_non_sweep(self, capsys):
        rc = cli_main(["matrix", "-e", "fig9", "--machines", "2c2w,2c4w",
                       "--workloads", "LLLL"])
        assert rc == 1
        assert "sweep experiments" in capsys.readouterr().err
