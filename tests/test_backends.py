"""Store-backend parity: directory, SQLite and queue are interchangeable.

Property tests pin that every backend round-trips identical cell
values/manifests and that :func:`merge_runs` across mixed backends
equals the single-backend result; the campaign tests pin the acceptance
path — a two-shard sweep stored in SQLite merges to the same frontier
as the unsharded directory-backend run.  The queue backend's *queue*
semantics (claiming, heartbeats, reclaim) are tested in
``tests/test_queue.py``; here it only has to behave as a plain store.
"""

import json
import os
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_machine
from repro.eval import (
    RunStore,
    Session,
    StoreMismatchError,
    merge_runs,
    open_store,
    parse_store_url,
)
from repro.eval.backends import (
    DirectoryBackend,
    QueueBackend,
    SQLiteBackend,
    open_backend,
)
from repro.eval.backends.base import atomic_write_text
from repro.sim import SimConfig

TINY = SimConfig(instr_limit=800, timeslice=400, warmup_instrs=200)

#: experiment ids / cell keys as they occur in practice (workload names,
#: scheme grammar incl. @N qualifiers, shard suffixes).
_EXPERIMENTS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1,
    max_size=12).filter(lambda s: s not in (".", ".."))
_KEYS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
             "0123456789:@%._-", min_size=1, max_size=40)
_VALUES = st.floats(allow_nan=False, allow_infinity=False, width=64)
# min_size=1: an experiment with zero recorded cells carries no
# information, and the backends legitimately differ there (a directory
# keeps an empty cells file, SQLite stores no rows at all).
_CELLS = st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=8)
_CAMPAIGNS = st.dictionaries(_EXPERIMENTS, _CELLS, min_size=1, max_size=4)
_MANIFESTS = st.fixed_dictionaries({
    "fingerprint": st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=6),
        st.one_of(st.integers(), st.text(max_size=8)), max_size=3),
    "experiments": st.dictionaries(_EXPERIMENTS, st.fixed_dictionaries(
        {"cells": st.integers(0, 1000)}), max_size=3),
})


#: one cell's metadata as older releases recorded it.
_LEGACY_META = {"engine": "fast", "engine_stats": {
    "engine": "fast", "batch_cells": 0, "batch_groups": 0,
    "batch_fallback_cells": 0}}


def _write_legacy_meta(backend, experiment: str, meta: dict) -> None:
    """Record ``{key: meta}`` where older releases kept it: a directory's
    ``meta/<experiment>.json``, or the ``meta`` column of an SQLite
    store's existing rows."""
    if isinstance(backend, DirectoryBackend):
        os.makedirs(os.path.join(backend.path, "meta"), exist_ok=True)
        atomic_write_text(
            os.path.join(backend.path, "meta", f"{experiment}.json"),
            json.dumps(meta, indent=0, sort_keys=True))
        return
    conn = sqlite3.connect(backend.path)
    conn.executemany(
        "UPDATE cells SET meta = ? WHERE experiment = ? AND key = ?",
        [(json.dumps(m, sort_keys=True), experiment, k)
         for k, m in meta.items()])
    conn.commit()
    conn.close()


def _backend(kind: str, tmp_path, name: str):
    if kind == "dir":
        return DirectoryBackend(str(tmp_path / name))
    if kind == "queue":
        return QueueBackend(str(tmp_path / f"{name}.qdb"))
    return SQLiteBackend(str(tmp_path / f"{name}.db"))


@pytest.mark.parametrize("kind", ["dir", "sqlite", "queue"])
class TestBackendRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(campaign=_CAMPAIGNS)
    def test_cells_round_trip(self, kind, tmp_path_factory, campaign):
        backend = _backend(kind, tmp_path_factory.mktemp("rt"), "s")
        for experiment, cells in campaign.items():
            backend.save_cells(experiment, cells)
        # a fresh backend instance re-reads everything from storage
        fresh = open_backend(backend.url)
        assert fresh.experiments_with_cells() == sorted(
            e for e in campaign)
        for experiment, cells in campaign.items():
            assert fresh.load_cells(experiment) == cells

    @settings(max_examples=25, deadline=None)
    @given(manifest=_MANIFESTS)
    def test_manifest_round_trip(self, kind, tmp_path_factory, manifest):
        backend = _backend(kind, tmp_path_factory.mktemp("mf"), "s")
        assert backend.load_manifest() is None  # reads never create
        backend.save_manifest(manifest)
        assert open_backend(backend.url).load_manifest() == manifest

    def test_artifact_round_trip(self, kind, tmp_path):
        backend = _backend(kind, tmp_path, "s")
        assert backend.load_artifact("fig9") is None
        backend.save_artifact("fig9", '{"experiment": "fig9"}')
        assert json.loads(backend.load_artifact("fig9")) == {
            "experiment": "fig9"}

    def test_reads_do_not_create_storage(self, kind, tmp_path):
        backend = _backend(kind, tmp_path, "probe")
        assert backend.load_cells("x") == {}
        assert backend.load_cell_meta("x") == {}
        assert backend.experiments_with_cells() == []
        assert not os.path.exists(backend.path)

    def test_cell_meta_round_trip(self, kind, tmp_path):
        """Metadata an older release recorded reads back; saving values
        neither adds metadata nor erases it."""
        backend = _backend(kind, tmp_path, "meta")
        key = "workload:LLLL:3CCC:base"
        backend.save_cells("fig10", {key: 1.5, "other": 2.0})
        backend.close()
        assert open_backend(backend.url).load_cell_meta("fig10") == {}
        _write_legacy_meta(backend, "fig10", {key: _LEGACY_META})
        backend.save_cells("fig10", {key: 1.5})
        backend.close()
        fresh = open_backend(backend.url)
        assert fresh.load_cells("fig10") == {key: 1.5, "other": 2.0}
        assert fresh.load_cell_meta("fig10") == {key: _LEGACY_META}
        assert fresh.load_cell_meta("other") == {}

    def test_save_cells_keeps_earlier_cells(self, kind, tmp_path):
        backend = _backend(kind, tmp_path, "upsert")
        backend.save_cells("x", {"k1": 1.0, "k2": 2.0})
        backend.save_cells("x", {"k2": 2.5, "k3": 3.0})
        assert open_backend(backend.url).load_cells("x") == {
            "k1": 1.0, "k2": 2.5, "k3": 3.0}


class TestBackendParity:
    @settings(max_examples=20, deadline=None)
    @given(campaign=_CAMPAIGNS)
    def test_both_backends_store_identical_campaigns(self, tmp_path_factory,
                                                     campaign):
        tmp = tmp_path_factory.mktemp("par")
        stores = [open_store(tmp / "d", {"f": 1}),
                  open_store(f"sqlite:{tmp / 's.db'}", {"f": 1})]
        for store in stores:
            for experiment, cells in campaign.items():
                store.record_cells(experiment, cells)
        a, b = stores
        assert a.experiments_with_cells() == b.experiments_with_cells()
        for experiment in campaign:
            assert a.load_cells(experiment) == b.load_cells(experiment)
        assert a.fingerprint() == b.fingerprint()

    @settings(max_examples=15, deadline=None)
    @given(left=_CAMPAIGNS, right=_CAMPAIGNS)
    def test_mixed_backend_merge_equals_single_backend(self, tmp_path_factory,
                                                       left, right):
        # shards may not disagree on a shared cell: align the overlap.
        for experiment, cells in left.items():
            for key in set(cells) & set(right.get(experiment, {})):
                right[experiment][key] = cells[key]
        tmp = tmp_path_factory.mktemp("mix")

        def populate(store, campaign):
            for experiment, cells in campaign.items():
                store.record_cells(experiment, cells)
            return store

        # mixed: directory shard + sqlite shard -> sqlite destination
        populate(open_store(tmp / "d", {"f": 1}), left)
        populate(open_store(f"sqlite:{tmp / 's.db'}", {"f": 1}), right)
        mixed = merge_runs(f"sqlite:{tmp / 'mixed.db'}",
                           [tmp / "d", f"sqlite:{tmp / 's.db'}"])
        # single-backend reference: two directory shards -> directory
        populate(open_store(tmp / "d1", {"f": 1}), left)
        populate(open_store(tmp / "d2", {"f": 1}), right)
        single = merge_runs(tmp / "single", [tmp / "d1", tmp / "d2"])
        assert (mixed.experiments_with_cells()
                == single.experiments_with_cells())
        for experiment in mixed.experiments_with_cells():
            assert (mixed.load_cells(experiment)
                    == single.load_cells(experiment))

    @pytest.mark.parametrize("kind", ["dir", "sqlite"])
    def test_two_stores_on_one_location_keep_each_others_cells(
            self, kind, tmp_path):
        """A store's read cache never stands in for what is recorded: a
        write by one store keeps the cells another store wrote after
        the first one last read."""
        url = _backend(kind, tmp_path, "shared").url
        a = open_store(url)
        b = RunStore(url)
        assert a.load_cells("x") == {}
        b.record_cell("x", "k1", 1.0)
        a.record_cell("x", "k2", 2.0)
        assert RunStore(url).load_cells("x") == {"k1": 1.0, "k2": 2.0}

    def test_conflicting_mixed_merge_rejected(self, tmp_path):
        a = open_store(tmp_path / "d", {"f": 1})
        b = open_store(f"sqlite:{tmp_path / 's.db'}", {"f": 1})
        a.record_cell("x", "k", 1.0)
        b.record_cell("x", "k", 2.0)
        with pytest.raises(StoreMismatchError, match="conflicting"):
            merge_runs(tmp_path / "m", [a, b])


class _Killed(Exception):
    """Stands in for a kill: raised mid-grid, the session never closed."""


class TestDirectoryJournal:
    """A ``dir:`` store appends each finished cell to
    ``cells/<exp>.jsonl`` as one ``{key: value}`` line and folds the
    journal into the complete ``cells/`` file on every manifest write
    and on close."""

    def test_torn_final_line_is_skipped(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path / "run"))
        backend.save_cells("x", {"k1": 1.0})
        journal = tmp_path / "run" / "cells" / "x.jsonl"
        assert journal.read_bytes() == b'\n{"k1": 1.0}'
        with open(journal, "ab") as f:  # a writer killed mid-append
            f.write(b'\n{"k2": 2.')
        fresh = DirectoryBackend(str(tmp_path / "run"))
        assert fresh.experiments_with_cells() == ["x"]
        assert fresh.load_cells("x") == {"k1": 1.0}
        fresh.close()  # the fold drops the in-flight cell with its journal
        assert not journal.exists()
        assert fresh.load_cells("x") == {"k1": 1.0}
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "cells"]

    def test_journal_only_experiment_is_listed_and_merged(self, tmp_path):
        src = open_store(tmp_path / "src", {"f": 1})
        src.record_cell("x", "k1", 1.0)
        src.record_cell("x", "k2", 2.0)
        # killed here: no manifest write and no close, so no fold yet
        cells_dir = tmp_path / "src" / "cells"
        assert [p.name for p in cells_dir.iterdir()] == ["x.jsonl"]
        assert RunStore(tmp_path / "src").experiments_with_cells() == ["x"]
        for dest in (f"dir:{tmp_path / 'd'}", f"sqlite:{tmp_path / 'd.db'}"):
            with merge_runs(dest, [tmp_path / "src"]):
                pass
            assert RunStore(dest).experiments_with_cells() == ["x"]
            assert RunStore(dest).load_cells("x") == {"k1": 1.0, "k2": 2.0}
        # the merge folded its destination into today's at-rest bytes
        assert sorted(p.name for p in (tmp_path / "d" / "cells").iterdir()) \
            == ["x.json"]
        assert (tmp_path / "d" / "cells" / "x.json").read_text() == \
            json.dumps({"k1": 1.0, "k2": 2.0}, indent=0, sort_keys=True)
        # ... and only read its source
        assert [p.name for p in cells_dir.iterdir()] == ["x.jsonl"]

    def test_resume_after_kill_matches_uninterrupted_run(self, tmp_path,
                                                         monkeypatch):
        from repro.eval import runner

        ref = tmp_path / "ref"
        with Session(config=TINY, store=str(ref)) as session:
            session.run("fig4")
        real = runner.run_cell
        finished = []

        def dying(cell, *args, **kw):
            if len(finished) == 10:
                raise _Killed
            finished.append(cell.key)
            return real(cell, *args, **kw)

        monkeypatch.setattr(runner, "run_cell", dying)
        killed = tmp_path / "killed"
        with pytest.raises(_Killed):
            Session(config=TINY, store=str(killed)).run("fig4")
        journal = killed / "cells" / "fig4.jsonl"
        with open(journal, "ab") as f:  # the in-flight cell, torn
            f.write(b'\n{"workload:LLLL:ST:base": 1.')
        assert not (killed / "cells" / "fig4.json").exists()

        monkeypatch.setattr(runner, "run_cell", real)
        resumed = Session(config=TINY, store=str(killed))
        resumed.run("fig4")
        assert resumed.last_grid.executed == 27 - 10
        assert resumed.last_grid.reused == 10
        # the grid's closing manifest write left today's files, no journal
        assert ((killed / "cells" / "fig4.json").read_bytes()
                == (ref / "cells" / "fig4.json").read_bytes())
        assert not list((killed / "cells").glob("*.jsonl"))
        assert not (killed / "meta").exists()
        resumed.close()

    def test_second_resume_leaves_the_manifest_alone(self, tmp_path):
        run = tmp_path / "run"
        for _ in range(2):  # the campaign, then a resume reusing it all
            with Session(config=TINY, store=str(run)) as session:
                session.run("fig4")
        manifest = run / "manifest.json"
        before, inode = manifest.read_bytes(), manifest.stat().st_ino
        with Session(config=TINY, store=str(run)) as session:
            session.run("fig4")
            assert session.last_grid.executed == 0
        assert manifest.read_bytes() == before
        assert manifest.stat().st_ino == inode

    def test_zero_cell_resume_folds_a_leftover_journal_on_close(
            self, tmp_path):
        run = tmp_path / "run"
        for _ in range(2):
            with Session(config=TINY, store=str(run)) as session:
                session.run("fig4")
        at_rest = (run / "cells" / "fig4.json").read_bytes()
        key = "workload:LLLL:ST:base"
        value = json.loads(at_rest)[key]
        journal = run / "cells" / "fig4.jsonl"
        with open(journal, "ab") as f:  # a writer killed before its fold
            f.write(("\n" + json.dumps({key: value})).encode())
        session = Session(config=TINY, store=str(run))
        session.run("fig4")
        assert session.last_grid.executed == 0
        assert journal.exists()  # the unchanged manifest was not written
        session.close()
        assert not journal.exists()
        assert (run / "cells" / "fig4.json").read_bytes() == at_rest

    def test_write_cost_per_cell_is_constant(self, tmp_path, monkeypatch):
        """Doubling an experiment's cells doubles its journal and leaves
        the grid's one ``cells/`` rewrite unchanged."""
        from repro.eval.backends import directory

        real = directory.atomic_write_text
        rewrites = []

        def counting(path, text):
            if os.path.basename(os.path.dirname(path)) == "cells":
                rewrites.append(path)
            real(path, text)

        monkeypatch.setattr(directory, "atomic_write_text", counting)
        journal_bytes, rewrite_counts = {}, {}
        for n in (20, 40):
            store = open_store(tmp_path / f"n{n}")
            rewrites.clear()
            for i in range(n):
                store.record_cell("fig10", f"workload:LLLL:c{i:03d}:base",
                                  1.5)
            journal_bytes[n] = os.path.getsize(
                os.path.join(store.path, "cells", "fig10.jsonl"))
            store.update_manifest("fig10", cells=n)  # the grid's end
            rewrite_counts[n] = len(rewrites)
        assert rewrite_counts[20] == rewrite_counts[40] == 1
        assert journal_bytes[40] == 2 * journal_bytes[20]


class TestLegacyMetadataStores:
    """Stores written by releases that recorded per-cell metadata: a
    ``dir:`` run with ``meta/`` files and ``[cells, meta]`` journal
    lines, and a version-2 SQLite file whose rows carry ``meta``.  Both
    resume without simulating, and their metadata still reads back."""

    @staticmethod
    def _fresh_run(url: str) -> dict:
        with Session(config=TINY, store=url) as session:
            session.run("fig4")
            return dict(session.last_grid.values)

    def test_fresh_stores_record_no_metadata(self, tmp_path):
        self._fresh_run(str(tmp_path / "run"))
        assert not (tmp_path / "run" / "meta").exists()
        self._fresh_run(f"sqlite:{tmp_path / 'run.db'}")
        conn = sqlite3.connect(tmp_path / "run.db")
        assert conn.execute("SELECT COUNT(*) FROM cells "
                            "WHERE meta IS NOT NULL").fetchone() == (0,)
        conn.close()

    def test_directory_run_with_meta_files_and_journal(self, tmp_path):
        run = tmp_path / "run"
        values = self._fresh_run(str(run))
        at_rest = (run / "cells" / "fig4.json").read_bytes()
        # rebuild the older layout: one cell only in a trailing
        # [cells, meta] journal line, every other cell's meta in meta/
        key = "workload:LLLL:ST:base"
        atomic_write_text(str(run / "cells" / "fig4.json"), json.dumps(
            {k: v for k, v in values.items() if k != key}, indent=0,
            sort_keys=True))
        meta = dict.fromkeys((k for k in values if k != key), _LEGACY_META)
        _write_legacy_meta(DirectoryBackend(str(run)), "fig4", meta)
        journal = run / "cells" / "fig4.jsonl"
        journal.write_text("\n" + json.dumps(
            [{key: values[key]}, {key: _LEGACY_META}]))
        assert RunStore(run).load_cells("fig4") == values
        with Session(config=TINY, store=str(run)) as session:
            session.run("fig4")
            assert session.last_grid.executed == 0
            assert session.last_grid.reused == len(values)
        # the fold kept the value and dropped the journal's meta half
        assert not journal.exists()
        assert (run / "cells" / "fig4.json").read_bytes() == at_rest
        assert RunStore(run).load_cell_meta("fig4") == meta

    def test_sqlite_file_whose_rows_carry_meta(self, tmp_path):
        url = f"sqlite:{tmp_path / 'run.db'}"
        values = self._fresh_run(url)
        meta = dict.fromkeys(values, _LEGACY_META)
        _write_legacy_meta(SQLiteBackend(str(tmp_path / "run.db")), "fig4",
                           meta)
        with Session(config=TINY, store=url) as session:
            session.run("fig4")
            assert session.last_grid.executed == 0
            assert session.last_grid.reused == len(values)
            assert session.store.load_cell_meta("fig4") == meta


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_text(str(tmp_path / "f.json"), 123)
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_the_old_file(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "f.json"
        atomic_write_text(str(path), "old")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(str(path), "new")
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]
        assert path.read_text() == "old"


class TestUrls:
    def test_parse_store_url_forms(self):
        assert parse_store_url("results") == ("dir", "results")
        assert parse_store_url("dir:results") == ("dir", "results")
        assert parse_store_url("sqlite:c.db") == ("sqlite", "c.db")
        assert parse_store_url("queue:c.db") == ("queue", "c.db")
        with pytest.raises(ValueError, match="empty path"):
            parse_store_url("sqlite:")

    def test_unrecognized_scheme_rejected_not_treated_as_directory(self):
        """A typo'd backend scheme must error, not silently create a
        directory literally named 'sqlite3:camp.db'."""
        for url in ("sqlite3:camp.db", "sqllite:camp.db", "http:foo"):
            with pytest.raises(ValueError, match="unknown store scheme"):
                parse_store_url(url)
        # dir: still forces any literal name through
        assert parse_store_url("dir:sqlite3:camp.db") == (
            "dir", "sqlite3:camp.db")

    def test_open_backend_kinds(self, tmp_path):
        assert isinstance(open_backend(str(tmp_path / "d")),
                          DirectoryBackend)
        assert isinstance(open_backend(f"sqlite:{tmp_path / 's.db'}"),
                          SQLiteBackend)
        assert isinstance(open_backend(f"queue:{tmp_path / 'q.db'}"),
                          QueueBackend)

    def test_runstore_accepts_urls(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path / 'c.db'}")
        store.record_cell("x", "k", 1.0)
        assert RunStore(store.url).load_cells("x") == {"k": 1.0}


class TestCliStore:
    def test_store_url_run_resume_cycle(self, tmp_path, capsys):
        from repro.eval.cli import main

        url = f"sqlite:{tmp_path / 'camp.db'}"
        assert main(["-e", "fig4", "--scale", "0.04", "--store", url]) == 0
        assert "cells: 27 simulated, 0 reused" in capsys.readouterr().out
        assert main(["-e", "fig4", "--scale", "0.04", "--store", url]) == 0
        assert "cells: 0 simulated, 27 reused" in capsys.readouterr().out

    def test_bad_store_scheme_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.eval.cli import main

        assert main(["-e", "fig9", "--store", "sqlite3:camp.db"]) == 1
        err = capsys.readouterr().err
        assert "unknown store scheme" in err and "Traceback" not in err
        assert not (tmp_path / "sqlite3:camp.db").exists()

    def test_store_conflicting_with_out_rejected(self, tmp_path, capsys):
        from repro.eval.cli import main

        assert main(["-e", "fig9", "--store", f"sqlite:{tmp_path / 'a.db'}",
                     "--out", str(tmp_path / "b")]) == 1
        assert "conflicts" in capsys.readouterr().err

    def test_store_agreeing_with_out_allowed(self, tmp_path, capsys):
        from repro.eval.cli import main

        path = str(tmp_path / "run")
        assert main(["-e", "fig9", "--store", f"dir:{path}",
                     "--out", path]) == 0
        assert (tmp_path / "run" / "fig9.json").exists()

    def test_store_scale_mismatch_rejected(self, tmp_path, capsys):
        from repro.eval.cli import main

        url = f"sqlite:{tmp_path / 'camp.db'}"
        assert main(["-e", "fig9", "--store", url, "--scale", "0.05"]) == 0
        capsys.readouterr()
        assert main(["-e", "fig9", "--store", url, "--scale", "0.10"]) == 1
        assert "different config" in capsys.readouterr().err

    def test_merge_subcommand_mixes_backends(self, tmp_path, capsys):
        from repro.eval.cli import main

        d = open_store(tmp_path / "d", {"f": 1})
        d.record_cell("x", "k1", 1.0)
        s = open_store(f"sqlite:{tmp_path / 's.db'}", {"f": 1})
        s.record_cell("x", "k2", 2.0)
        merged = f"sqlite:{tmp_path / 'm.db'}"
        assert main(["merge", merged, str(tmp_path / "d"),
                     f"sqlite:{tmp_path / 's.db'}"]) == 0
        out = capsys.readouterr().out
        assert "x: 2 cells" in out and "2 run stores" in out
        assert RunStore(merged).load_cells("x") == {"k1": 1.0, "k2": 2.0}


class TestSessionLifecycle:
    def test_context_manager_closes_store(self, tmp_path):
        url = f"sqlite:{tmp_path / 'c.db'}"
        with Session(config=TINY, store=url) as session:
            session.run("fig9", save=True)
            backend = session.store.backend
        assert backend._conn is None  # connection released
        # close is idempotent and reopening works
        Session(config=TINY, store=url).close()


class TestSqliteCampaigns:
    """The acceptance path: sharded SQLite campaign == directory run."""

    def test_two_shard_sqlite_sweep_merges_to_directory_frontier(
            self, tmp_path):
        machine = paper_machine()
        full = Session(machine=machine, config=TINY,
                       store=str(tmp_path / "full")).sweep(2, ["LLLL"])
        shard_urls = []
        executed = 0
        for i in (1, 2):
            url = f"sqlite:{tmp_path / f'shard{i}.db'}"
            session = Session(machine=machine, config=TINY, store=url)
            session.sweep(2, ["LLLL"], shard=(i, 2))
            executed += session.last_grid.executed
            shard_urls.append(url)
        merged_url = f"sqlite:{tmp_path / 'merged.db'}"
        merge_runs(merged_url, shard_urls)
        resumed_session = Session(machine=machine, config=TINY,
                                  store=merged_url)
        resumed = resumed_session.sweep(2, ["LLLL"])
        assert resumed_session.last_grid.executed == 0
        assert resumed_session.last_grid.reused == executed
        assert resumed.to_json() == full.to_json()

    def test_experiment_resume_across_backends(self, tmp_path):
        machine = paper_machine()
        dir_store = str(tmp_path / "run")
        first = Session(machine=machine, config=TINY,
                        store=dir_store).run("fig6")
        merged = f"sqlite:{tmp_path / 'run.db'}"
        merge_runs(merged, [dir_store])
        session = Session(machine=machine, config=TINY, store=merged)
        resumed = session.run("fig6")
        assert session.last_grid.executed == 0
        assert session.last_grid.reused == 18
        assert resumed.to_json() == first.to_json()


# ----------------------------------------------------------------------
# files written by the three-table layout (store schema version 1)
# ----------------------------------------------------------------------
#: the version-1 DDL, verbatim: ``sqlite:`` files held these tables ...
_V1_SCHEMA = """
CREATE TABLE IF NOT EXISTS kv (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    experiment TEXT NOT NULL,
    key TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (experiment, key)
);
CREATE TABLE IF NOT EXISTS artifacts (
    experiment TEXT PRIMARY KEY,
    body TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cell_meta (
    experiment TEXT NOT NULL,
    key TEXT NOT NULL,
    body TEXT NOT NULL,
    PRIMARY KEY (experiment, key)
);
"""

#: ... and ``queue:`` files these, the queue table mirroring cell keys.
_V1_QUEUE_SCHEMA = _V1_SCHEMA + """
CREATE TABLE IF NOT EXISTS queue (
    experiment TEXT NOT NULL,
    key TEXT NOT NULL,
    cell TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'open',
    worker TEXT,
    attempt INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    heartbeat REAL,
    claimed_at REAL,
    PRIMARY KEY (experiment, key)
);
CREATE INDEX IF NOT EXISTS queue_by_status ON queue (status);
"""

_QUEUE_COLUMNS = ("experiment", "key", "status", "worker", "attempt",
                  "error", "heartbeat", "claimed_at")


def _write_v1_file(path: str, queue: bool) -> None:
    """A version-1 store: done, open, claimed and failed cells, metadata
    (one record ahead of its value), a value recorded outside the queue,
    a manifest and an artifact."""
    conn = sqlite3.connect(path)
    conn.executescript(_V1_QUEUE_SCHEMA if queue else _V1_SCHEMA)
    conn.execute("INSERT INTO kv VALUES ('manifest', ?)",
                 (json.dumps({"fingerprint": {"f": 1}, "experiments": {}}),))
    conn.execute("INSERT INTO artifacts VALUES ('x', '{\"experiment\": \"x\"}')")
    conn.executemany("INSERT INTO cells VALUES (?, ?, ?)", [
        ("x", "a", 1.5), ("x", "b", 0.1 + 0.2), ("y", "direct", 3.0)])
    conn.executemany("INSERT INTO cell_meta VALUES (?, ?, ?)", [
        ("x", "a", '{"engine": "fast"}'), ("x", "c", '{"engine": "ref"}')])
    if queue:
        cell = json.dumps({"experiment": "x", "kind": "workload"})
        conn.executemany(
            "INSERT INTO queue VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", [
                ("x", "a", cell, "done", "w1", 1, None, 50.0, 40.0),
                ("x", "b", cell, "done", "w1", 2, None, 60.0, 55.0),
                ("x", "c", cell, "open", None, 0, None, None, None),
                ("x", "d", cell, "claimed", "w2", 1, None, 100.0, 90.0),
                ("x", "e", cell, "failed", "w2", 3, "RuntimeError: x",
                 80.0, 70.0)])
    conn.commit()
    conn.close()


def _v1_answers(path: str, queue: bool) -> dict:
    """What the version-1 backend's reads returned (its queries)."""
    conn = sqlite3.connect(path)
    experiments = [r[0] for r in conn.execute(
        "SELECT DISTINCT experiment FROM cells ORDER BY experiment")]
    answers = {
        "experiments": experiments,
        "cells": {e: dict(conn.execute(
            "SELECT key, value FROM cells WHERE experiment = ?", (e,)))
            for e in ("x", "y", "z")},
        "meta": {e: {k: json.loads(body) for k, body in conn.execute(
            "SELECT key, body FROM cell_meta WHERE experiment = ?", (e,))}
            for e in ("x", "y", "z")},
    }
    if queue:
        counts = dict.fromkeys(("open", "claimed", "done", "failed"), 0)
        counts.update(conn.execute(
            "SELECT status, COUNT(*) FROM queue GROUP BY status"))
        answers["counts"] = counts
        answers["rows"] = [dict(zip(_QUEUE_COLUMNS, r)) for r in conn.execute(
            "SELECT experiment, key, status, worker, attempt, error, "
            "heartbeat, claimed_at FROM queue ORDER BY experiment, key")]
    conn.close()
    return answers


def _answers(backend, queue: bool) -> dict:
    answers = {
        "experiments": backend.experiments_with_cells(),
        "cells": {e: backend.load_cells(e) for e in ("x", "y", "z")},
        "meta": {e: backend.load_cell_meta(e) for e in ("x", "y", "z")},
    }
    if queue:
        answers["counts"] = backend.queue_counts()
        answers["rows"] = backend.queue_rows()
    return answers


def _tables(path: str) -> set[str]:
    conn = sqlite3.connect(path)
    names = {r[0] for r in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}
    conn.close()
    return names


@pytest.mark.parametrize("kind", ["sqlite", "queue"])
class TestVersion1Files:
    def test_new_file_holds_one_cell_table(self, kind, tmp_path):
        backend = _backend(kind, tmp_path, "new")
        backend.ensure()
        backend.close()
        assert _tables(backend.path) == {"kv", "cells", "artifacts"}

    def test_reads_refuse_until_ensure_upgrades(self, kind, tmp_path):
        queue = kind == "queue"
        backend = _backend(kind, tmp_path, "old")
        _write_v1_file(backend.path, queue)
        expected = _v1_answers(backend.path, queue)
        for read in (backend.load_manifest, backend.experiments_with_cells,
                     lambda: backend.load_cells("x"),
                     lambda: backend.load_cell_meta("x"),
                     backend.queue_counts, backend.queue_rows):
            with pytest.raises(ValueError, match="schema version 1"):
                read()
        backend.ensure()
        assert _tables(backend.path) == {"kv", "cells", "artifacts"}
        fresh = open_backend(backend.url)
        assert _answers(fresh, queue) == expected
        assert fresh.load_manifest() == {"fingerprint": {"f": 1},
                                         "experiments": {}}
        assert fresh.load_artifact("x") == '{"experiment": "x"}'

    def test_upgraded_queue_keeps_claim_state(self, kind, tmp_path):
        backend = _backend(kind, tmp_path, "old")
        _write_v1_file(backend.path, kind == "queue")
        backend.ensure()
        claim = backend.claim("w3", ttl=10, now=105.0)
        if kind == "sqlite":
            assert claim is None  # values only: nothing to claim
            return
        assert (claim["key"], claim["attempt"]) == ("c", 1)
        # the claim of w2 (heartbeat 100) goes stale after the ttl
        stale = backend.claim("w3", ttl=10, now=111.0)
        assert (stale["key"], stale["attempt"]) == ("d", 2)
        assert backend.claim("w3", ttl=10, now=111.0) is None

    def test_version2_file_gets_the_claim_index_on_first_write(
            self, kind, tmp_path):
        """A version-2 file from before the claim index (which had an
        index on ``status`` alone) is read as it is and indexed by its
        first write, with no version bump."""
        backend = _backend(kind, tmp_path, "v2")
        backend.enqueue("x", {"b": {"n": 2}, "a": {"n": 1}})
        backend.close()
        conn = sqlite3.connect(backend.path)
        conn.executescript(
            "DROP INDEX cells_claim_order;"
            "CREATE INDEX cells_by_status ON cells (status);")
        conn.close()

        def indexes():
            conn = sqlite3.connect(backend.path)
            names = {r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND sql IS NOT NULL")}
            conn.close()
            return names

        # one backend reads first, as a worker loading its campaign does
        store = open_backend(backend.url)
        assert store.queue_counts()["open"] == 2
        assert indexes() == {"cells_by_status"}
        assert store.claim("w", ttl=10)["key"] == "a"
        assert indexes() == {"cells_claim_order"}
        store.close()

    def test_newer_version_is_refused(self, kind, tmp_path):
        backend = _backend(kind, tmp_path, "new")
        backend.ensure()
        backend._conn.execute("UPDATE kv SET value = '3' "
                              "WHERE key = 'schema'")
        backend.close()
        with pytest.raises(ValueError, match="schema version 3"):
            open_backend(backend.url).ensure()
