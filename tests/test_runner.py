"""Grid runner, run store, compile cache and CLI orchestration tests."""

import dataclasses
import json
import re

import pytest

from repro.arch import ClusterSpec, paper_machine
from repro.compiler.options import CompilerOptions
from repro.eval import (
    Cell,
    RunStore,
    Session,
    StoreMismatchError,
    merge_runs,
    open_store,
    run_cells,
    run_fingerprint,
)
from repro.eval.cli import main
from repro.eval.experiments import default_config
from repro.isa.operation import OpClass
from repro.kernels import SUITE
from repro.kernels.cache import ProgramCache, cache_key, identity
from repro.sim import SimConfig

TINY = SimConfig(instr_limit=800, timeslice=400, warmup_instrs=200)


@pytest.fixture(scope="module")
def machine():
    return paper_machine()


class TestCell:
    def test_key_is_stable(self):
        c = Cell("fig4", "workload", "LLHH", "3SSS")
        assert c.key == "workload:LLHH:3SSS:base"

    def test_rejects_unknown_kind_and_variant(self):
        with pytest.raises(ValueError):
            Cell("x", "nope", "LLHH", "3SSS")
        with pytest.raises(ValueError):
            Cell("x", "workload", "LLHH", "3SSS", variant="nope")

    def test_grid_rejects_mixed_experiments(self, machine):
        cells = [Cell("a", "bench", "mcf", "ST"),
                 Cell("b", "bench", "mcf", "ST")]
        with pytest.raises(ValueError, match="mixes"):
            run_cells(cells, TINY, machine)

    def test_grid_rejects_duplicates(self, machine):
        cells = [Cell("a", "bench", "mcf", "ST"),
                 Cell("a", "bench", "mcf", "ST")]
        with pytest.raises(ValueError, match="duplicate"):
            run_cells(cells, TINY, machine)


class TestParallelEqualsSerial:
    def test_fig4_bitwise_identical(self, machine):
        serial = Session(machine=machine, config=TINY).run("fig4")
        parallel = Session(machine=machine, config=TINY,
                           jobs=2).run("fig4")
        assert serial.rows == parallel.rows
        assert serial.meta == parallel.meta

    def test_fig10_bitwise_identical(self, machine):
        serial = Session(machine=machine, config=TINY).run("fig10")
        parallel = Session(machine=machine, config=TINY,
                           jobs=2).run("fig10")
        assert serial.rows == parallel.rows
        assert serial.meta == parallel.meta

    def test_batch_grid_runs_each_cell_on_fast(self, machine, tmp_path,
                                                monkeypatch):
        """An inline (``jobs=1``) ``engine="batch"`` grid runs each cell
        as one simulation on ``BatchEngine``, a ``FastEngine``: its
        values equal ``engine="fast"``'s and a ``jobs=2`` pool's, and
        the store records exactly those values."""
        from repro.eval import runner
        from repro.sim import BatchEngine, FastEngine

        assert issubclass(BatchEngine, FastEngine)
        simulated = []

        def one_simulation(programs, scheme, config):
            simulated.append((scheme, config.engine))
            return run_workload(programs, scheme, config)

        run_workload = runner.run_workload
        monkeypatch.setattr(runner, "run_workload", one_simulation)
        config = default_config(0.03, engine="batch")
        cells = [Cell("fig4", "workload", wl, s)
                 for wl in ("LLLL", "HHHH") for s in ("ST", "1S", "3SSS")]
        store = open_store(tmp_path / "r")
        inline = run_cells(cells, config, machine, store=store)
        assert sorted(simulated) == sorted((c.scheme, "batch")
                                           for c in cells)
        fast = run_cells(cells, dataclasses.replace(config, engine="fast"),
                         machine)
        pooled = run_cells(cells, config, machine, jobs=2)
        assert inline.executed == pooled.executed == len(cells)
        assert inline.values == fast.values == pooled.values
        assert store.load_cells("fig4") == inline.values


class TestSharedWalks:
    """Cells of one grid read each thread's instruction records from one
    shared walk per ``(program, thread, seed)``; that sharing must never
    reach a result."""

    CELLS = [Cell("fig4", "workload", wl, s)
             for wl in ("LLLL", "HHHH") for s in ("ST", "1S", "3SSS")]

    def test_one_walk_per_key(self, machine, monkeypatch):
        from repro.eval.runner import ProgramSet
        from repro.trace import stream

        real = stream._Walk.start
        built = []

        def counting(cls, program, thread_id, seed):
            built.append((id(program), thread_id, seed))
            return real(program, thread_id, seed)

        monkeypatch.setattr(stream._Walk, "start", classmethod(counting))
        stream.release_walks()
        run_cells(self.CELLS, TINY, machine)
        programs = ProgramSet(machine)
        keys = {(id(p), i, TINY.seed + 17 * i)
                for cell in self.CELLS
                for i, p in enumerate(programs.of(cell))}
        assert sorted(built) == sorted(keys)
        assert not stream._WALKS  # the grid released its walks

    def test_order_jobs_and_release_do_not_change_values(self, machine,
                                                         monkeypatch):
        from repro.eval import runner
        from repro.trace import stream

        ref = run_cells(self.CELLS, TINY, machine).values
        assert run_cells(self.CELLS[::-1], TINY, machine).values == ref
        assert run_cells(self.CELLS, TINY, machine, jobs=2).values == ref
        real = runner.run_cell

        def releasing(*args, **kw):
            stream.release_walks()
            return real(*args, **kw)

        monkeypatch.setattr(runner, "run_cell", releasing)
        assert run_cells(self.CELLS, TINY, machine).values == ref


class TestResume:
    CELLS = [Cell("fig6", "workload", wl, s)
             for wl in ("LLLL", "HHHH") for s in ("3SSS", "3CCC")]

    def test_resume_skips_completed_cells(self, tmp_path, machine):
        store = open_store(tmp_path / "run")
        first = run_cells(self.CELLS, TINY, machine, store=store)
        assert first.executed == 4 and first.reused == 0
        second = run_cells(self.CELLS, TINY, machine, store=store)
        assert second.executed == 0 and second.reused == 4
        assert second.values == first.values

    def test_resume_across_store_instances(self, tmp_path, machine):
        path = tmp_path / "run"
        run_cells(self.CELLS, TINY, machine,
                  store=open_store(path))
        fresh = open_store(path)
        again = run_cells(self.CELLS, TINY, machine, store=fresh)
        assert again.executed == 0 and again.reused == 4

    def test_partial_resume_runs_only_missing(self, tmp_path, machine):
        store = open_store(tmp_path / "run")
        run_cells(self.CELLS[:2], TINY, machine, store=store)
        both = run_cells(self.CELLS, TINY, machine, store=store)
        assert both.executed == 2 and both.reused == 2

    def test_fingerprint_mismatch_rejected(self, tmp_path, machine):
        path = tmp_path / "run"
        open_store(path, run_fingerprint(TINY, machine))
        other = SimConfig(instr_limit=999, timeslice=333, warmup_instrs=111)
        with pytest.raises(StoreMismatchError):
            open_store(path, run_fingerprint(other, machine))

    def test_fingerprint_adopted_by_unstamped_directory(self, tmp_path,
                                                        machine):
        path = tmp_path / "run"
        open_store(path)  # API use: no fingerprint recorded
        stamped = open_store(path, run_fingerprint(TINY, machine))
        assert stamped.manifest()["fingerprint"]
        other = SimConfig(instr_limit=999, timeslice=333, warmup_instrs=111)
        with pytest.raises(StoreMismatchError):
            open_store(path, run_fingerprint(other, machine))

    def test_manifest_records_true_executed_counts(self, tmp_path, machine):
        store = open_store(tmp_path / "run")
        session = Session(machine=machine, config=TINY, store=store)
        session.run("fig6")
        recorded = store.manifest()["experiments"]["fig6"]
        assert session.last_grid.executed == 18
        assert recorded == {"cells": 18, "executed": 18, "reused": 0}


class TestRunStore:
    def test_manifest_created(self, tmp_path, machine):
        store = open_store(tmp_path / "r",
                                        run_fingerprint(TINY, machine))
        manifest = store.manifest()
        assert manifest["fingerprint"]["machine"] == {
            "n_clusters": 4,
            "cluster": {"issue_width": 4, "n_mem": 1, "n_mul": 2,
                        "n_br": 1},
            "latency": {"ALU": 1, "BR": 1, "COPY": 1, "MEM": 2, "MUL": 2},
            "xfer_latency": 1,
            "taken_branch_penalty": 2,
            "regs_per_cluster": 64,
            "name": "vex-4c4w",
        }

    def test_cells_roundtrip(self, tmp_path):
        store = open_store(tmp_path / "r")
        store.record_cell("figX", "workload:LLLL:ST:base", 1.25)
        assert RunStore(store.path).load_cells("figX") == {
            "workload:LLLL:ST:base": 1.25}

    def test_grid_records_values_only(self, tmp_path, machine):
        """Executed cells leave their values and nothing else: no
        ``meta/`` directory and no metadata."""
        cfg = SimConfig(instr_limit=300, timeslice=150, warmup_instrs=60,
                        engine="fast")
        store = open_store(tmp_path / "r")
        cells = [Cell("figX", "workload", "LLLL", s)
                 for s in ("1S", "3CCC")]
        grid = run_cells(cells, cfg, machine, store=store)
        store.close()
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
            "cells", "manifest.json"]
        assert RunStore(store.path).load_cells("figX") == grid.values
        assert RunStore(store.path).load_cell_meta("figX") == {}

    def test_artifact_roundtrip(self, tmp_path, machine):
        store = open_store(tmp_path / "r")
        result = Session(machine=machine).run("fig9")
        store.save_artifact(result)
        loaded = store.load_artifact("fig9")
        assert loaded.rows == result.rows
        assert store.manifest()["experiments"]["fig9"]["status"] == "done"


def _machine_variants():
    """One paper-machine variant per field beyond its name and
    geometry (``describe()``), keyed by the field's dotted path."""
    m = paper_machine()
    return {
        "latency.MEM": dataclasses.replace(
            m, latency={**m.latency, OpClass.MEM: 6}),
        "xfer_latency": dataclasses.replace(m, xfer_latency=2),
        "taken_branch_penalty": dataclasses.replace(
            m, taken_branch_penalty=5),
        "regs_per_cluster": dataclasses.replace(m, regs_per_cluster=32),
        "cluster.n_mem": dataclasses.replace(m, cluster=ClusterSpec(n_mem=2)),
        "cluster.n_mul": dataclasses.replace(m, cluster=ClusterSpec(n_mul=1)),
        "cluster.n_br": dataclasses.replace(m, cluster=ClusterSpec(n_br=2)),
    }


MACHINE_VARIANTS = _machine_variants()


@pytest.fixture(params=["dir:run", "sqlite:run.db"])
def store_url(request, tmp_path):
    scheme, name = request.param.split(":")
    return f"{scheme}:{tmp_path / name}"


class TestCampaignIdentity:
    """Every machine field is in the store fingerprint: a resume on a
    machine that differs in any one of them is refused, naming it."""

    def test_identity_walks_every_field(self, machine):
        ident = identity(machine)
        assert list(ident) == [f.name for f in dataclasses.fields(machine)]
        assert ident["latency"]["MEM"] == 2
        assert json.loads(json.dumps(ident)) == ident

    def test_identity_leaves_out_the_engine(self):
        fast = identity(dataclasses.replace(TINY, engine="fast"))
        assert "engine" not in fast
        assert fast == identity(dataclasses.replace(TINY, engine="reference"))

    def test_identity_refuses_unknown_values(self):
        with pytest.raises(TypeError, match="no identity for object"):
            identity({"x": object()})

    @pytest.mark.parametrize("path", sorted(MACHINE_VARIANTS))
    def test_resume_on_other_machine_is_refused(self, store_url, path):
        Session(config=TINY, store=store_url).close()
        with pytest.raises(StoreMismatchError,
                           match=re.escape(f"machine.{path}: ")):
            Session(machine=MACHINE_VARIANTS[path], config=TINY,
                    store=store_url)

    @pytest.mark.parametrize("path", sorted(MACHINE_VARIANTS))
    def test_resume_on_other_machine_variant_is_refused(self, store_url,
                                                        path, machine):
        Session(machines={"alt": machine}, config=TINY,
                store=store_url).close()
        with pytest.raises(StoreMismatchError,
                           match=re.escape(f"machines.alt.{path}: ")):
            Session(machines={"alt": MACHINE_VARIANTS[path]}, config=TINY,
                    store=store_url)

    def test_latency_only_resume_reuses_nothing(self, tmp_path):
        """fig4 run on the paper machine, then resumed on one with a
        6-cycle MEM latency and a 5-cycle branch penalty: refused, and
        the recorded cells stay as they were."""
        url = f"dir:{tmp_path / 'run'}"
        with Session(scale=0.03, store=url) as session:
            session.run("fig4")
            assert session.last_grid.executed == 27
        cells = RunStore(url).load_cells("fig4")
        m = paper_machine()
        slow = dataclasses.replace(m, latency={**m.latency, OpClass.MEM: 6},
                                   taken_branch_penalty=5)
        with pytest.raises(StoreMismatchError) as err:
            Session(machine=slow, scale=0.03, store=url)
        assert "machine.latency.MEM: 2 (store) vs 6" in str(err.value)
        assert "machine.taken_branch_penalty: 2 (store) vs 5" in str(
            err.value)
        assert RunStore(url).load_cells("fig4") == cells

    def test_manifest_with_describe_string_is_refused(self, store_url,
                                                      machine):
        """A store stamped when the fingerprint held the one-line
        ``describe()`` string must be re-run, never resumed."""
        store = open_store(store_url, run_fingerprint(TINY, machine))
        manifest = store.manifest()
        manifest["fingerprint"]["machine"] = machine.describe()
        store.backend.save_manifest(manifest)
        store.close()
        with pytest.raises(StoreMismatchError,
                           match=re.escape('machine: "vex-4c4w: 4 clusters')):
            Session(machine=machine, config=TINY, store=store_url)

    def test_merge_refuses_shards_on_other_branch_penalty(self, tmp_path,
                                                          machine):
        shards = []
        for i, m in enumerate((machine,
                               MACHINE_VARIANTS["taken_branch_penalty"])):
            shard = open_store(tmp_path / f"s{i}", run_fingerprint(TINY, m))
            shard.record_cell("fig4", f"workload:LLLL:{i}S:base", 1.0)
            shards.append(shard)
        with pytest.raises(StoreMismatchError,
                           match="different config") as err:
            merge_runs(tmp_path / "merged", shards)
        assert ("machine.taken_branch_penalty: 2 (first source) vs 5 "
                "(this source)") in str(err.value)
        assert not (tmp_path / "merged").exists()


class TestProgramCache:
    def test_equal_machines_share_one_compile(self):
        cache = ProgramCache()
        spec = SUITE[0]
        prog = cache.get(spec, paper_machine())
        assert cache.get(spec, paper_machine()) is prog
        assert cache.compiles == 1 and cache.memory_hits == 1
        cache.get(spec, MACHINE_VARIANTS["latency.MEM"])
        assert cache.compiles == 2

    def test_compiles_once_per_key(self, monkeypatch, machine):
        import repro.kernels.cache as cache_mod

        calls = []
        real = cache_mod.compile_kernel
        monkeypatch.setattr(cache_mod, "compile_kernel",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        cache = ProgramCache()
        spec = SUITE[0]
        prog = cache.get(spec, machine)
        assert cache.get(spec, machine) is prog
        assert len(calls) == 1 and cache.compiles == 1
        assert cache.memory_hits == 1
        cache.get(spec, machine, CompilerOptions(unroll_scale=2.0))
        assert len(calls) == 2

    def test_key_changes_with_options(self, machine):
        spec = SUITE[0]
        base = cache_key(spec, machine, CompilerOptions())
        other = cache_key(spec, machine, CompilerOptions(unroll_scale=2.0))
        assert base != other

    def test_dir_store_holds_no_programs(self, tmp_path, machine):
        """Compiled programs live in memory only: a directory store
        holds campaign state and nothing else.  The renamed machine has
        its own fingerprint, so its programs are compiled here, not
        served from an earlier test's memo."""
        fresh = dataclasses.replace(machine, name="paper-no-programs")
        Session(machine=fresh, config=TINY,
                store=f"dir:{tmp_path / 'run'}").run("fig4")
        assert (tmp_path / "run" / "cells").is_dir()
        assert not (tmp_path / "run" / "programs").exists()


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "117" in out

    def test_out_directory_created(self, tmp_path, capsys):
        out = tmp_path / "nested" / "run"
        assert main(["-e", "fig9", "--out", str(out)]) == 0
        assert (out / "fig9.json").exists()
        assert (out / "manifest.json").exists()

    def test_runner_exception_gives_nonzero_exit(self, monkeypatch, capsys):
        from repro.eval import experiments

        def boom(machine=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(experiments._STATIC_RUNNERS, "fig9", boom)
        assert main(["-e", "fig9"]) == 1
        err = capsys.readouterr().err
        assert "synthetic failure" in err and "Traceback" not in err

    def test_subcommand_form_equivalent_to_legacy(self, tmp_path, capsys):
        """`repro-eval run ...` and the bare legacy flag form agree."""
        assert main(["run", "--list"]) == 0
        sub = capsys.readouterr().out
        assert main(["--list"]) == 0
        assert capsys.readouterr().out == sub

    def test_out_resume_conflict_rejected(self, tmp_path, capsys):
        """Different --out and --resume directories must error, not
        silently drop --out (the old `resume or out` behavior)."""
        assert main(["-e", "fig9", "--out", str(tmp_path / "a"),
                     "--resume", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "conflicts" in err
        assert not (tmp_path / "a").exists()
        assert not (tmp_path / "b").exists()

    def test_out_resume_same_directory_allowed(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["-e", "fig9", "--out", run_dir,
                     "--resume", run_dir]) == 0
        assert (tmp_path / "run" / "fig9.json").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "-e", "fig4", "--scale", "-1", "--out", "STORE"],
        ["sweep", "-t", "2", "--scale", "0", "--out", "STORE"],
        ["search", "-t", "2", "--scale", "nan", "--out", "STORE"],
        ["matrix", "-e", "sweep2", "--scale", "-1", "--out", "STORE"],
        ["queue-init", "STORE", "-e", "sweep2", "--scale", "-1"],
    ], ids=lambda argv: argv[0])
    def test_bad_scale_is_refused_before_anything_runs(
            self, tmp_path, capsys, argv):
        """Regression: --scale -1 simulated a 1-instruction quota and
        printed an IPC of 6.00 with exit status 0."""
        store = tmp_path / "store"
        argv = [str(store) if a == "STORE" else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --scale" in captured.err
        assert not store.exists()

    @pytest.mark.parametrize("argv, status", [
        (["run", "-e", "fig9", "--out", "STORE"], 0),
        (["sweep", "-t", "2", "--workloads", "LLLL", "--scale", "0.04",
          "--out", "STORE"], 0),
        # refused after the Session is open: --shard needs a store
        (["sweep", "-t", "2", "--shard", "1/2", "--scale", "0.04"], 1),
        (["search", "-t", "2", "--workloads", "LLLL", "--scale", "0.04",
          "--out", "STORE"], 0),
        (["matrix", "-e", "fig9", "--machines", "2c4w,4c4w",
          "--store", "sqlite:STORE"], 0),
    ], ids=["run", "sweep", "sweep-refused", "search", "matrix"])
    def test_every_verb_closes_its_session_once(
            self, tmp_path, monkeypatch, capsys, argv, status):
        """Each simulating verb closes its Session exactly once, on
        success and on a refused invocation alike, so a directory
        store's journals are folded and SQLite connections released."""
        closed = []
        real = Session.close

        def counting(session):
            closed.append(session)
            real(session)

        monkeypatch.setattr(Session, "close", counting)
        store = str(tmp_path / "store")
        argv = [a.replace("STORE", store) for a in argv]
        assert main(argv) == status
        assert len(closed) == 1
        assert not list((tmp_path / "store" / "cells").glob("*.jsonl"))

    def test_scale_mismatch_on_resume_errors(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["-e", "fig9", "--out", run_dir, "--scale", "0.05"]) == 0
        assert main(["-e", "fig9", "--resume", run_dir,
                     "--scale", "0.10"]) == 1
        assert "different config" in capsys.readouterr().err

    def test_parallel_resume_cycle(self, tmp_path, capsys):
        """--jobs N equals --jobs 1, and --resume reruns zero cells."""
        run_dir = str(tmp_path / "run")
        assert main(["-e", "fig4", "--scale", "0.04", "--jobs", "2",
                     "--out", run_dir]) == 0
        first = capsys.readouterr().out
        assert "cells: 27 simulated, 0 reused" in first
        with open(f"{run_dir}/fig4.json") as f:
            saved = json.load(f)

        assert main(["-e", "fig4", "--scale", "0.04",
                     "--resume", run_dir]) == 0
        second = capsys.readouterr().out
        assert "cells: 0 simulated, 27 reused" in second
        with open(f"{run_dir}/fig4.json") as f:
            resumed = json.load(f)
        assert resumed["rows"] == saved["rows"]

        from repro.eval import default_config

        serial = Session(config=default_config(0.04)).run("fig4")
        assert [list(r) for r in serial.rows] == saved["rows"]

    def test_all_simulates_fig10_once(self, monkeypatch, capsys):
        """--experiment all shares one fig10 result with fig11/fig12."""
        from repro.eval import experiments

        executed = {}
        real = experiments.run_cells

        def counting(cells, config, machine=None, jobs=1, store=None):
            grid = real(cells, config, machine, jobs=jobs, store=store)
            executed[grid.experiment] = (executed.get(grid.experiment, 0)
                                         + grid.executed)
            return grid

        monkeypatch.setattr(experiments, "run_cells", counting)
        assert main(["-e", "all", "--scale", "0.04"]) == 0
        assert executed["fig10"] == 117  # once, not three times
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig4", "fig5", "fig6", "fig9",
                     "fig10", "fig11", "fig12"):
            assert f"== {name}:" in out
