"""Session API tests: verbs, caching, multi-machine grids."""

import pytest

from repro.arch import paper_machine, small_machine
from repro.eval import (
    Cell,
    Session,
    StoreMismatchError,
    open_store,
    run_cells,
)
from repro.eval import experiments
from repro.eval.runner import GridResult
from repro.sim import SimConfig

TINY = SimConfig(instr_limit=800, timeslice=400, warmup_instrs=200)


@pytest.fixture(scope="module")
def machine():
    return paper_machine()


class TestSessionVerbs:
    def test_run_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            Session(config=TINY).run("fig99")

    def test_static_experiment(self, machine):
        result = Session(machine=machine).run("fig9")
        assert len(result.rows) == 16

    def test_static_kwargs_forwarded(self, machine):
        result = Session(machine=machine).run("fig5", max_threads=4)
        assert [row[0] for row in result.rows] == [2, 3, 4]

    def test_sim_experiment_deterministic(self, machine):
        session = Session(machine=machine, config=TINY)
        new = session.run("fig6")
        other = Session(machine=machine, config=TINY).run("fig6")
        assert new.rows == other.rows
        assert new.meta == other.meta
        assert session.last_grid.executed == 18

    def test_run_all_shares_fig10_and_returns_everything(self, machine,
                                                         monkeypatch):
        executed = {}
        real = experiments.run_cells

        def counting(cells, config, machine=None, jobs=1, store=None):
            grid = real(cells, config, machine, jobs=jobs, store=store)
            executed[grid.experiment] = (executed.get(grid.experiment, 0)
                                         + grid.executed)
            return grid

        monkeypatch.setattr(experiments, "run_cells", counting)
        session = Session(machine=machine, config=TINY)
        results = session.run_all(["fig10", "fig11", "fig12"])
        assert set(results) == {"fig10", "fig11", "fig12"}
        assert executed["fig10"] == 117  # simulated once, derived twice

    def test_result_cache_rerun_is_free(self, machine):
        session = Session(machine=machine, config=TINY)
        first = session.run("fig6")
        assert session.last_grid.executed == 18
        again = session.run("fig6")
        assert again is first
        assert session.last_grid is None  # nothing simulated

    def test_cell_cache_spans_recomputation(self, machine):
        """kwargs bypass the result cache but still reuse session cells."""
        session = Session(machine=machine, config=TINY)
        base = session.run("fig10")
        sub = session.run("fig10", schemes=["1S", "3SSS"])
        assert session.last_grid.executed == 0  # all cells reused
        assert session.last_grid.reused == 18
        assert {r[0] for r in sub.rows} <= {r[0] for r in base.rows}

    def test_sweep_through_session(self, machine, tmp_path):
        session = Session(machine=machine, config=TINY,
                          store=str(tmp_path / "run"))
        result = session.sweep(2, ["LLLL"])
        assert result.meta["frontier"]
        assert session.last_grid.executed > 0
        # a second identical sweep resumes every cell from the store
        resumed = Session(machine=machine, config=TINY,
                          store=str(tmp_path / "run")).sweep(2, ["LLLL"])
        assert resumed.to_json() == result.to_json()

    def test_session_store_records_values_only(self, machine, tmp_path):
        # the session's cell-cache wrapper writes each value through to
        # the persistent store, and nothing beside it
        session = Session(machine=machine, config=TINY,
                          store=str(tmp_path / "run"))
        session.sweep(2, ["LLLL"])
        assert session.store.load_cells("sweep2") == \
            session.last_grid.values
        assert session.store.load_cell_meta("sweep2") == {}

    def test_save_persists_artifact(self, machine, tmp_path):
        session = Session(machine=machine, store=str(tmp_path / "run"))
        session.run("fig9", save=True)
        loaded = session.store.load_artifact("fig9")
        assert loaded is not None and len(loaded.rows) == 16

    def test_save_without_store_rejected(self, machine):
        with pytest.raises(ValueError, match="no result store"):
            Session(machine=machine).run("fig9", save=True)

    def test_store_url_fingerprint_guard(self, machine, tmp_path):
        url = f"sqlite:{tmp_path / 'campaign.db'}"
        Session(machine=machine, config=TINY, store=url)
        other = SimConfig(instr_limit=999, timeslice=333, warmup_instrs=111)
        with pytest.raises(StoreMismatchError):
            Session(machine=machine, config=other, store=url)


class TestMultiMachine:
    def test_machine_tag_resolves_and_stamps_cells(self, tmp_path):
        small = small_machine()
        store = open_store(tmp_path / "run")
        session = Session(machines={"small": small}, config=TINY,
                          store=store)
        tagged = session.run("fig6", machine="small")
        assert tagged.experiment == "fig6@small"
        direct = run_cells(
            [Cell("fig6", "workload", wl, s, machine="small")
             for wl in ("LLLL",) for s in ("3SSS", "3CCC")],
            TINY, small)
        key = Cell("fig6", "workload", "LLLL", "3SSS", machine="small").key
        assert key.endswith("@small")
        assert store.load_cells("fig6")[key] == direct[key]

    def test_default_and_tagged_coexist_in_one_store(self, machine,
                                                     tmp_path):
        store = open_store(tmp_path / "run")
        session = Session(machine=machine,
                          machines={"small": small_machine()},
                          config=TINY, store=store)
        session.run("fig6")
        session.run("fig6", machine="small")
        keys = set(store.load_cells("fig6"))
        assert len(keys) == 36  # 18 default + 18 tagged, no collisions
        assert sum(1 for k in keys if k.endswith("@small")) == 18

    def test_unknown_tags_rejected(self, machine):
        session = Session(machine=machine, config=TINY)
        with pytest.raises(KeyError, match="unknown machine tag"):
            session.run("fig6", machine="nope")
        with pytest.raises(KeyError, match="unknown config tag"):
            session.run("fig6", config="nope")

    def test_config_variant_tags(self, machine):
        half = SimConfig(instr_limit=400, timeslice=200, warmup_instrs=100)
        session = Session(machine=machine, config=TINY,
                          configs={"half": half})
        result = session.run("fig6", config="half")
        assert result.experiment == "fig6%half"
        direct = Session(machine=machine, config=half).run("fig6")
        assert result.rows == direct.rows

    def test_mixed_tag_grid_partitions(self, machine):
        """One run_grid call may span machines; run_cells alone may not."""
        small = small_machine()
        cells = [Cell("fig6", "workload", "LLLL", "3SSS"),
                 Cell("fig6", "workload", "LLLL", "3SSS", machine="small")]
        with pytest.raises(ValueError, match="mixes machine/config tags"):
            run_cells(cells, TINY, machine)
        session = Session(machine=machine, machines={"small": small},
                          config=TINY)
        grid = session.run_grid(cells)
        assert grid.executed == 2
        assert len(grid.values) == 2

    def test_registry_in_store_fingerprint(self, tmp_path):
        url = str(tmp_path / "run")
        Session(machines={"small": small_machine()}, config=TINY, store=url)
        with pytest.raises(StoreMismatchError):
            Session(machines={"small": paper_machine()}, config=TINY,
                    store=url)

    def test_bad_tags_rejected(self):
        with pytest.raises(ValueError, match="bad machine tag"):
            Session(machines={"a:b": small_machine()})
        with pytest.raises(ValueError, match="bad config tag"):
            Session(configs={"": TINY})

    def test_key_delimiter_tags_rejected(self):
        """'@'/'%' inside tags could alias two different (machine,
        config) pairs onto one cell key — e.g. machine='a%b' vs
        machine='a', config='b'."""
        for bad in ("a@b", "a%b"):
            with pytest.raises(ValueError, match="delimit cell keys"):
                Cell("fig4", "workload", "LLLL", "1S", machine=bad)
            with pytest.raises(ValueError, match="bad machine tag"):
                Session(machines={bad: small_machine()})

    def test_static_path_validates_tags_too(self, machine):
        session = Session(machine=machine, config=TINY)
        with pytest.raises(KeyError, match="unknown config tag"):
            session.run("fig9", config="nope")
        with pytest.raises(KeyError, match="unknown machine tag"):
            session.run("fig9", machine="nope")

    def test_derived_forwards_kwargs_to_base(self, machine):
        """fig11 with schemes= must narrow the underlying fig10, not
        silently ignore the kwarg."""
        session = Session(machine=machine, config=TINY)
        sub = session.run("fig11", schemes=["1S", "3SSS"])
        assert {row[0] for row in sub.rows} == {"1S", "3SSS"}
        full = session.run("fig11")
        assert len(full.rows) == 16

    def test_unknown_kwargs_raise(self, machine):
        session = Session(machine=machine, config=TINY)
        with pytest.raises(TypeError):
            session.run("fig9", bogus=1)
        with pytest.raises(TypeError):
            session.run("fig6", schemes=["1S"])  # fig6 has no schemes=


class TestGridResultErrors:
    def test_missing_cell_error_names_grid_and_near_misses(self):
        grid = GridResult(experiment="fig6",
                          values={"workload:LLLL:3SSS:base": 1.0})
        with pytest.raises(KeyError) as exc:
            grid[Cell("fig6", "workload", "LLLL", "3CCC")]
        message = str(exc.value)
        assert "workload:LLLL:3CCC:base" in message
        assert "'fig6' grid" in message
        assert "workload:LLLL:3SSS:base" in message  # the near miss

    def test_empty_grid_error_has_no_near_misses(self):
        with pytest.raises(KeyError, match="0 cells recorded"):
            GridResult(experiment="x")["nope"]


class TestShimRemoval:
    def test_legacy_run_helpers_are_gone(self):
        """The PR-4 deprecation shims served their cycle and are out;
        the Session verbs are the only execution surface."""
        import repro.eval as eval_pkg
        for name in ("run_experiment", "run_all", "run_fig10",
                     "run_table1", "ALL_EXPERIMENTS"):
            assert not hasattr(eval_pkg, name), name
            assert not hasattr(experiments, name), name

    def test_experiment_defs_carry_descriptions(self):
        for name, defn in experiments.EXPERIMENT_DEFS.items():
            assert defn.description, f"{name} has no description"
