"""Queue campaigns: atomic claiming, crash recovery, drain identity.

The three guarantees the worker-pull queue makes (DESIGN.md §8):

* two workers claiming from one queue never double-execute a cell
  (``BEGIN IMMEDIATE`` claiming transactions);
* a worker killed mid-cell is harmless — its claim goes stale after the
  heartbeat ttl and the next claimer reclaims it;
* a drained queue is a completed run store: resuming the campaign
  through ``queue:`` yields results byte-identical to running the same
  grid serially through ``dir:``.

Backend *store* parity (round-trips, mixed-backend merge) is covered by
``tests/test_backends.py``, which parametrizes over the queue kind.
"""

import dataclasses
import json
import os
import re
import socket
import sqlite3
import sys
import threading
import time

import pytest

from repro.eval import (
    CampaignSpec,
    Session,
    StoreMismatchError,
    WorkerReport,
    init_queue,
    merge_runs,
    queue_status,
    reset_failed,
    run_worker,
)
from repro.eval.backends import QueueBackend
from repro.eval.backends.sqlite import _FileLock
from repro.eval.evaluator import DEFAULT_RUNGS, Evaluator, rung_configs
from repro.eval.experiments import default_config, experiment_cells
from repro.eval.queue import default_worker_id
from repro.eval.search import run_search
from repro.eval.sweep import SweepPlan

#: 2-thread sweep over one workload: a 2-cell grid, the cheapest real
#: campaign (sub-second at scale 0.05).
SPEC = CampaignSpec(experiment="sweep2", scale=0.05, workloads=("LLLL",))


def _url(tmp_path, name="camp.db") -> str:
    return f"queue:{tmp_path / name}"


def _dummy_cells(n: int) -> dict[str, dict]:
    return {f"workload:W{i}:1S:base": {
        "experiment": "x", "kind": "workload", "target": f"W{i}",
        "scheme": "1S", "variant": "base", "machine": "", "config": ""}
        for i in range(n)}


# ----------------------------------------------------------------------
# claiming primitives (QueueBackend)
# ----------------------------------------------------------------------
class TestClaiming:
    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(3))
        keys = [backend.claim(f"w{i}", ttl=60)["key"] for i in range(3)]
        assert keys == sorted(keys)  # deterministic claim order
        assert backend.claim("w3", ttl=60) is None  # all claimed, none open
        assert backend.queue_counts()["claimed"] == 3

    def test_two_threads_never_claim_the_same_cell(self, tmp_path):
        """Each thread drains through its own connection; the union of
        their claims must partition the queue exactly."""
        path = str(tmp_path / "q.db")
        QueueBackend(path).enqueue("x", _dummy_cells(20))
        claimed: list[str] = []
        lock = threading.Lock()

        def drain(worker):
            backend = QueueBackend(path)  # sqlite: one conn per thread
            while True:
                claim = backend.claim(worker, ttl=60)
                if claim is None:
                    return
                with lock:
                    claimed.append(claim["key"])
                backend.finish(claim["experiment"], claim["key"], 1.0)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(_dummy_cells(20))
        assert len(claimed) == len(set(claimed))  # no double-claim
        assert QueueBackend(path).queue_counts()["done"] == 20

    def test_claim_and_finish_stress(self, tmp_path):
        """More workers than cores and a short switch interval: the
        one-statement claim still hands out each cell exactly once, and
        every finish lands on its own row."""
        path = str(tmp_path / "q.db")
        cells = _dummy_cells(40)
        QueueBackend(path).enqueue("x", cells)
        claimed: list[str] = []
        lock = threading.Lock()

        def drain(worker):
            backend = QueueBackend(path)
            while (claim := backend.claim(worker, ttl=60)) is not None:
                with lock:
                    claimed.append(claim["key"])
                backend.finish("x", claim["key"], float(len(claim["key"])))
            backend.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drain, args=(f"w{i}",))
                       for i in range((os.cpu_count() or 1) + 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(claimed) == sorted(cells)
        backend = QueueBackend(path)
        assert backend.load_cells("x") == {k: float(len(k)) for k in cells}
        assert backend.load_cell_meta("x") == {}
        assert backend.queue_counts()["done"] == len(cells)

    def test_stale_claim_is_reclaimed_with_attempt_increment(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(1))
        first = backend.claim("crasher", ttl=10, now=100.0)
        assert first["attempt"] == 1
        # within ttl: nothing runnable for anyone else
        assert backend.claim("other", ttl=10, now=105.0) is None
        # past ttl: the abandoned cell is reclaimed
        second = backend.claim("rescuer", ttl=10, now=111.0)
        assert second["key"] == first["key"]
        assert second["attempt"] == 2
        (row,) = backend.queue_rows("claimed")
        assert row["worker"] == "rescuer"

    def test_exhausted_attempts_park_the_cell_as_failed(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(1))
        backend.claim("w", ttl=10, now=100.0)
        assert backend.claim("w", ttl=10, max_attempts=1, now=200.0) is None
        (row,) = backend.queue_rows("failed")
        assert "heartbeat expired" in row["error"]
        # reset returns it to open with a fresh attempt budget
        assert backend.reset() == 1
        assert backend.claim("w", ttl=10, now=300.0)["attempt"] == 1

    def test_late_failure_does_not_undo_a_recorded_value(self, tmp_path):
        """A stale claimant that errors after a rescuer finished the
        cell must not park the recorded cell as failed."""
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(1))
        late = backend.claim("slow", ttl=10, now=100.0)
        rescued = backend.claim("rescuer", ttl=10, now=111.0)
        backend.finish(rescued["experiment"], rescued["key"], 1.0)
        backend.fail(late["experiment"], late["key"], "slow",
                     "RuntimeError: late")
        assert backend.queue_counts() == {"open": 0, "claimed": 0,
                                          "done": 1, "failed": 0}

    def test_stale_claimant_cannot_touch_the_new_claim(self, tmp_path):
        """Release and fail act only on the caller's own claim: once a
        rescuer reclaimed the cell, the stale claimant's release or
        failure leaves the rescuer's claim in flight."""
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(1))
        stale = backend.claim("slow", ttl=10, now=100.0)
        rescued = backend.claim("rescuer", ttl=10, now=200.0)
        assert rescued["attempt"] == 2
        backend.release(stale["experiment"], stale["key"], "slow",
                        "RuntimeError: late")
        backend.fail(stale["experiment"], stale["key"], "slow",
                     "RuntimeError: late")
        (row,) = backend.queue_rows()
        assert (row["status"], row["worker"], row["attempt"]) == (
            "claimed", "rescuer", 2)
        assert row["error"] is None
        # the claimant itself still releases its claim
        backend.release(rescued["experiment"], rescued["key"], "rescuer")
        assert backend.queue_counts()["open"] == 1

    def test_enqueue_is_idempotent_and_respects_recorded_values(
            self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        cells = _dummy_cells(3)
        assert backend.enqueue("x", cells) == 3
        assert backend.enqueue("x", cells) == 0  # re-init adds nothing
        # a key whose value is already stored starts out done
        done_key = sorted(cells)[0]
        backend.save_cells("x", {done_key: 1.0})
        other = QueueBackend(str(tmp_path / "q2.db"))
        other.save_cells("x", {done_key: 1.0})
        assert other.enqueue("x", cells) == 3
        counts = other.queue_counts()
        assert counts == {"open": 2, "claimed": 0, "done": 1, "failed": 0}

    def test_reset_stale_ttl_releases_dead_claims(self, tmp_path):
        backend = QueueBackend(str(tmp_path / "q.db"))
        backend.enqueue("x", _dummy_cells(2))
        backend.claim("dead", ttl=60)
        assert backend.reset(stale_ttl=0) == 1
        assert backend.queue_counts()["open"] == 2


# ----------------------------------------------------------------------
# campaign spec
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_round_trip(self):
        spec = CampaignSpec(experiment="sweep3", scale=0.5,
                            workloads=["LLHH", "HHHH"],
                            machines=["2c4w", "4c4w"])
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_sweep_cells_match_the_session_grid(self):
        from repro.eval.sweep import sweep_cells
        assert SPEC.cells() == sweep_cells(2, ["LLLL"])

    def test_experiment_cells_match_the_grid_layer(self):
        spec = CampaignSpec(experiment="fig6", scale=0.05)
        assert spec.cells() == experiment_cells("fig6")
        # derived experiments queue their dependency's grid
        derived = CampaignSpec(experiment="fig11", scale=0.05)
        assert derived.cells() == experiment_cells("fig11")

    def test_matrix_campaign_tags_cells_per_machine(self):
        spec = CampaignSpec(experiment="sweep2", workloads=("LLLL",),
                            machines=("2c4w", "4c4w"))
        tags = {cell.machine for cell in spec.cells()}
        assert tags == {"2c4w", "4c4w"}
        assert len(spec.cells()) == 2 * len(SPEC.cells())
        assert set(spec.fingerprint()["machines"]) == {"2c4w", "4c4w"}

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            CampaignSpec(experiment="fig99")
        with pytest.raises(ValueError, match="workloads only apply"):
            CampaignSpec(experiment="fig10", workloads=("LLLL",))
        with pytest.raises(ValueError):
            CampaignSpec(experiment="sweep2", machines=("9z9z",))
        with pytest.raises(ValueError, match="static"):
            CampaignSpec(experiment="fig5").cells()

    def test_duplicate_machine_tags_are_refused(self):
        with pytest.raises(ValueError, match="duplicate machine tag '2c4w'"):
            CampaignSpec(experiment="sweep2", machines=("2c4w", "4c4w",
                                                        "2c4w"))

    def test_bad_scale_is_refused(self):
        with pytest.raises(ValueError, match="positive finite"):
            CampaignSpec(experiment="sweep2", scale=-1)
        with pytest.raises(ValueError, match="positive finite"):
            CampaignSpec.from_dict(dict(SPEC.to_dict(), scale=0))

    def test_stored_spec_with_unregistered_engine_is_refused(self):
        stored = dict(SPEC.to_dict(), engine="jit")
        with pytest.raises(ValueError, match="unknown engine 'jit'"):
            CampaignSpec.from_dict(stored)


# ----------------------------------------------------------------------
# serialized cell rows
# ----------------------------------------------------------------------
#: the workloads of the benchmark's 8-thread guided search.
SEARCH8_WORKLOADS = ("LLLL", "LLHH", "HHHH")


def _cell_rows(path) -> dict:
    with sqlite3.connect(path) as conn:
        return {(experiment, key): cell for experiment, key, cell in
                conn.execute("SELECT experiment, key, cell FROM cells")}


def _asdict_rows(cells) -> dict:
    """The rows as serialized through ``dataclasses.asdict``."""
    return {(c.experiment, c.key):
            json.dumps(dataclasses.asdict(c), sort_keys=True)
            for c in cells}


class TestCellRows:
    def test_init_rows_equal_asdict_rows(self, tmp_path):
        spec = CampaignSpec(experiment="sweep8", scale=0.05,
                            workloads=SEARCH8_WORKLOADS)
        init_queue(_url(tmp_path), spec)
        assert _cell_rows(tmp_path / "camp.db") \
            == _asdict_rows(spec.cells())

    def test_search_rows_equal_asdict_rows(self, tmp_path, monkeypatch):
        """Every rung's cells, as a search coordinator enqueues them
        (the drain is stubbed out, so no cell runs)."""
        monkeypatch.setattr("repro.eval.queue.run_worker",
                            lambda *args, **kw: WorkerReport("idle"))
        base = default_config(0.05)
        plan = SweepPlan.build(8, SEARCH8_WORKLOADS)
        canonicals = [g.canonical for g in plan.groups]
        cells = []
        with Session(config=base, configs=rung_configs(base),
                     store=_url(tmp_path)) as session:
            ev = Evaluator(session, plan, DEFAULT_RUNGS,
                           queue=session.store.backend)
            for rung in DEFAULT_RUNGS:
                with pytest.raises(RuntimeError, match="no recorded value"):
                    ev.evaluate(canonicals, rung)
                cells += ev.cells(canonicals, rung)
        assert len(cells) == 3 * len(canonicals) * len(SEARCH8_WORKLOADS)
        assert _cell_rows(tmp_path / "camp.db") == _asdict_rows(cells)


# ----------------------------------------------------------------------
# init / worker / status / reset (the orchestration layer)
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_default_worker_id_is_host_pid_and_a_random_suffix(self):
        worker_id = default_worker_id()
        assert re.fullmatch(
            rf"{re.escape(socket.gethostname())}-{os.getpid()}-[0-9a-f]{{6}}",
            worker_id), worker_id
        assert default_worker_id() != worker_id

    def test_init_is_idempotent_and_rejects_a_different_campaign(
            self, tmp_path):
        url = _url(tmp_path)
        assert init_queue(url, SPEC).enqueued == 2
        assert init_queue(url, SPEC).enqueued == 0
        other = CampaignSpec(experiment="sweep2", scale=0.05,
                             workloads=("HHHH",))
        with pytest.raises(ValueError, match="different campaign"):
            init_queue(url, other)

    def test_worker_requires_an_initialized_queue(self, tmp_path):
        with pytest.raises(ValueError, match="queue-init"):
            run_worker(_url(tmp_path))

    def test_unrunnable_spec_stops_the_worker_before_any_claim(
            self, tmp_path, monkeypatch):
        """A queue whose stored spec names an engine this build lacks
        must not claim (and then fail) every cell."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        backend = QueueBackend(str(tmp_path / "camp.db"))
        backend.save_campaign(dict(SPEC.to_dict(), engine="jit"))

        def claim(self, *args, **kwargs):
            raise AssertionError("the worker claimed a cell")

        monkeypatch.setattr(QueueBackend, "claim", claim)
        with pytest.raises(ValueError, match="unknown engine 'jit'"):
            run_worker(url, worker_id="w1")
        assert backend.queue_counts() == {"open": 2, "claimed": 0,
                                          "done": 0, "failed": 0}
        backend.close()

    def test_queue_verbs_reject_non_queue_stores(self, tmp_path):
        with pytest.raises(ValueError, match="not a queue store"):
            queue_status(f"sqlite:{tmp_path / 's.db'}")

    def test_worker_drains_and_reports(self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        executed = []
        monkeypatch.setattr(
            "repro.eval.queue.run_cell",
            lambda cell, config, programs: executed.append(cell.key) or 1.0)
        report = run_worker(url, worker_id="w1")
        assert report.executed == 2 and report.failed == 0
        assert sorted(executed) == sorted(c.key for c in SPEC.cells())
        status = queue_status(url)
        assert status.drained
        assert status.counts["done"] == 2

    def test_concurrent_workers_never_double_execute(
            self, tmp_path, monkeypatch):
        """Two in-process workers (own backend connections each) drain a
        20-cell queue; every cell must execute exactly once."""
        spec = CampaignSpec(experiment="sweep2", scale=0.05)  # 18 cells
        url = _url(tmp_path)
        init_queue(url, spec)
        executed: list[str] = []
        lock = threading.Lock()

        def fake_run_cell(cell, config, programs):
            with lock:
                executed.append(cell.key)
            time.sleep(0.002)  # encourage interleaving
            return 1.0

        monkeypatch.setattr("repro.eval.queue.run_cell", fake_run_cell)
        reports = []
        threads = [threading.Thread(
            target=lambda i=i: reports.append(
                run_worker(url, worker_id=f"w{i}", poll=0.01)))
            for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(executed) == len(set(executed)) == len(spec.cells())
        assert sum(r.executed for r in reports) == len(spec.cells())
        assert queue_status(url).drained

    def test_killed_worker_is_reclaimed_after_heartbeat_expiry(
            self, tmp_path, monkeypatch):
        """A claim without a pulse (worker kill -9'd mid-cell) must be
        picked up by the next worker once the ttl passes."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        # the "crashed" worker claims a cell and never finishes it
        crashed = QueueBackend(str(tmp_path / "camp.db"))
        abandoned = crashed.claim("crashed", ttl=300)
        assert abandoned is not None
        crashed.close()
        monkeypatch.setattr("repro.eval.queue.run_cell",
                            lambda cell, config, programs: 1.0)
        time.sleep(0.06)
        report = run_worker(url, worker_id="rescuer", ttl=0.05, poll=0.01)
        assert report.executed == 2
        assert report.reclaimed == 1
        assert abandoned["key"] in report.keys
        assert queue_status(url).drained

    def test_execution_error_parks_cell_and_reset_failed_recovers(
            self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        bad_key = sorted(c.key for c in SPEC.cells())[0]

        def flaky(cell, config, programs):
            if cell.key == bad_key:
                raise RuntimeError("transient blowup")
            return 1.0

        monkeypatch.setattr("repro.eval.queue.run_cell", flaky)
        report = run_worker(url, worker_id="w1")
        assert report.executed == 1 and report.failed == 1
        status = queue_status(url)
        assert not status.drained
        (row,) = status.failed
        assert "transient blowup" in row["error"]
        # operator fixes the cause, reopens, re-drains
        monkeypatch.setattr("repro.eval.queue.run_cell",
                            lambda cell, config, programs: 1.0)
        assert reset_failed(url) == 1
        assert run_worker(url, worker_id="w2").executed == 1
        assert queue_status(url).drained

    def test_transient_error_releases_claim_for_retry(
            self, tmp_path, monkeypatch):
        """An exception below the attempt cap must *release* the claim
        (open for retry, attempt count kept) instead of parking the
        cell as failed — one worker alone re-drains a flaky queue."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        attempts: dict[str, int] = {}

        def flaky(cell, config, programs):
            n = attempts[cell.key] = attempts.get(cell.key, 0) + 1
            if n == 1:
                raise RuntimeError("transient blowup")
            return 1.0

        monkeypatch.setattr("repro.eval.queue.run_cell", flaky)
        lines: list[str] = []
        report = run_worker(url, worker_id="w1", poll=0.01,
                            progress=lines.append)
        assert report.executed == 2 and report.failed == 0
        assert report.released == 2  # each cell bounced exactly once
        assert all(n == 2 for n in attempts.values())
        assert queue_status(url).drained
        assert any("released for retry" in ln and "transient blowup" in ln
                   for ln in lines)
        assert any("[attempt 2]" in ln for ln in lines)

    def test_released_cells_still_park_at_the_attempt_cap(
            self, tmp_path, monkeypatch):
        """Release-for-retry must not make a poison cell immortal: the
        kept attempt count parks it once the cap is burned."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        bad_key = sorted(c.key for c in SPEC.cells())[0]

        def poison(cell, config, programs):
            if cell.key == bad_key:
                raise RuntimeError("deterministic blowup")
            return 1.0

        monkeypatch.setattr("repro.eval.queue.run_cell", poison)
        report = run_worker(url, worker_id="w1", poll=0.01,
                            max_attempts=3)
        assert report.executed == 1 and report.failed == 1
        assert report.released == 2  # attempts 1 and 2 bounced
        (row,) = queue_status(url).failed
        assert row["key"] == bad_key and row["attempt"] == 3

    def test_no_wait_worker_leaves_in_flight_cells_to_their_owner(
            self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        holder = QueueBackend(str(tmp_path / "camp.db"))
        held = holder.claim("other-worker", ttl=300)
        monkeypatch.setattr("repro.eval.queue.run_cell",
                            lambda cell, config, programs: 1.0)
        report = run_worker(url, worker_id="w1", wait=False)
        assert report.executed == 1  # only the remaining open cell
        assert held["key"] not in report.keys
        assert queue_status(url).counts["claimed"] == 1

    def test_max_cells_bounds_a_worker(self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        monkeypatch.setattr("repro.eval.queue.run_cell",
                            lambda cell, config, programs: 1.0)
        assert run_worker(url, max_cells=1).executed == 1
        assert queue_status(url).counts["open"] == 1

    def test_max_cells_worker_leaves_no_cell_claimed(
            self, tmp_path, monkeypatch):
        """The value of a worker's last cell has no next claim to ride
        in, so the worker finishes it on its own before it stops."""
        spec = CampaignSpec(experiment="sweep2", scale=0.05)  # 18 cells
        url = _url(tmp_path)
        init_queue(url, spec)
        monkeypatch.setattr("repro.eval.queue.run_cell",
                            lambda cell, config, programs: 1.0)
        for k in (1, 5):
            report = run_worker(url, max_cells=k)
            assert report.executed == k
            counts = queue_status(url).counts
            assert counts["claimed"] == 0
        assert counts["done"] == 6 and counts["open"] == 12

    def test_follow_worker_only_exits_on_its_own_search_done(
            self, tmp_path):
        """Regression: a stale ``search_status: done`` left by an
        *earlier* search (search2) must not make a --follow worker of
        the current campaign (sweep4 -> search4) bail out at an idle
        gap; only its own experiment's marker ends the follow."""
        url = _url(tmp_path)
        spec = CampaignSpec(experiment="sweep4", scale=0.05,
                            kind="search", workloads=("LLLL",))
        init_queue(url, spec)
        backend = QueueBackend(str(tmp_path / "camp.db"))
        manifest = backend.load_manifest() or {"experiments": {}}
        manifest.setdefault("experiments", {})["search2"] = {
            "search_status": "done"}
        backend.save_manifest(manifest)

        reports = []
        t = threading.Thread(target=lambda: reports.append(
            run_worker(url, worker_id="w1", follow=True, poll=0.01)))
        t.start()
        t.join(timeout=0.4)
        assert t.is_alive()  # still following despite the stale marker
        manifest = backend.load_manifest()
        manifest["experiments"]["search4"] = {"search_status": "done"}
        backend.save_manifest(manifest)
        t.join(timeout=10)
        assert not t.is_alive()
        assert reports and reports[0].executed == 0


# ----------------------------------------------------------------------
# a search replay is a store read
# ----------------------------------------------------------------------
#: a capped 4-thread search over two workloads: all three rungs run.
SEARCH4_SPEC = CampaignSpec(
    experiment="sweep4", scale=0.04, kind="search",
    workloads=("LLLL", "HHHH"),
    configs=tuple((r.tag, r.scale) for r in DEFAULT_RUNGS if r.tag))


def _search4(url):
    base = default_config(0.04)
    with Session(config=base, configs=rung_configs(base),
                 store=url) as session:
        result, report = run_search(session, 4, ["LLLL", "HHHH"],
                                    budget=0.5, queue_spec=SEARCH4_SPEC)
    return json.loads(result.to_json()), report


def _change_counter(path) -> bytes:
    """SQLite's file-change counter (header bytes 24-27)."""
    with open(path, "rb") as f:
        return f.read(28)[24:]


class TestSearchReplay:
    def _spy(self, monkeypatch):
        """Record SQL statements, lockfile entries, drains, enqueued
        keys and the search status seen by each claim."""
        seen = {"sql": [], "locks": [], "drains": [], "enqueued": [],
                "status_at_claim": []}
        connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(seen["sql"].append)
            return conn

        enter = _FileLock.__enter__

        def counted_enter(self):
            seen["locks"].append(self.path)
            return enter(self)

        worker = run_worker

        def counted_worker(*args, **kwargs):
            report = worker(*args, **kwargs)
            seen["drains"].append(report.keys)
            return report

        enqueue, claim = QueueBackend.enqueue, QueueBackend.claim

        def recorded_enqueue(self, experiment, cells):
            seen["enqueued"].append(sorted(cells))
            return enqueue(self, experiment, cells)

        def observed_claim(self, *args, **kwargs):
            entry = self.load_manifest()["experiments"].get("search4", {})
            seen["status_at_claim"].append(entry.get("search_status"))
            return claim(self, *args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        monkeypatch.setattr(_FileLock, "__enter__", counted_enter)
        monkeypatch.setattr("repro.eval.queue.run_worker", counted_worker)
        monkeypatch.setattr(QueueBackend, "enqueue", recorded_enqueue)
        monkeypatch.setattr(QueueBackend, "claim", observed_claim)
        return seen

    def test_replay_of_a_finished_search_writes_nothing(
            self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        first, report = _search4(url)
        assert sum(e["executed"] for e in report.schedule) > 0
        counter = _change_counter(tmp_path / "camp.db")
        seen = self._spy(monkeypatch)
        again, replay = _search4(url)
        writes = [s for s in seen["sql"] if s.split()[0].upper()
                  in ("INSERT", "UPDATE", "DELETE", "BEGIN")]
        assert writes == []
        assert seen["sql"], "the replay must read the store"
        assert seen["locks"] == []
        assert seen["drains"] == [] and seen["enqueued"] == []
        assert _change_counter(tmp_path / "camp.db") == counter
        assert sum(e["executed"] for e in replay.schedule) == 0
        assert [e["reused"] for e in replay.schedule] \
            == [e["executed"] + e["reused"] for e in report.schedule]
        for art in (first, again):
            for entry in art["meta"]["search"]["schedule"]:
                del entry["executed"], entry["reused"]
        assert again == first

    def test_resume_enqueues_and_drains_only_the_missing_keys(
            self, tmp_path, monkeypatch):
        url = _url(tmp_path)
        first, _ = _search4(url)
        path = tmp_path / "camp.db"
        with sqlite3.connect(path) as conn:
            rung = sorted(k for (k,) in conn.execute(
                "SELECT key FROM cells WHERE experiment = 'sweep4'")
                if k.endswith("%f0.25"))
            lost = rung[::2]
            conn.executemany(
                "DELETE FROM cells WHERE experiment = 'sweep4' "
                "AND key = ?", [(k,) for k in lost])
        conn.close()
        assert 0 < len(lost) < len(rung)
        seen = self._spy(monkeypatch)
        again, report = _search4(url)
        assert seen["enqueued"] == [lost]
        assert [sorted(keys) for keys in seen["drains"]] == [lost]
        assert seen["status_at_claim"][0] == "running"
        assert sum(e["executed"] for e in report.schedule) == len(lost)
        backend = QueueBackend(str(path))
        status = backend.load_manifest()["experiments"]["search4"]
        backend.close()
        assert status["search_status"] == "done"
        for art in (first, again):
            for entry in art["meta"]["search"]["schedule"]:
                del entry["executed"], entry["reused"]
        assert again == first


# ----------------------------------------------------------------------
# drain identity + migration (the acceptance path)
# ----------------------------------------------------------------------
class TestDrainIdentity:
    def test_drained_queue_equals_serial_directory_run(self, tmp_path):
        """The headline guarantee: N workers through queue: =
        one process through dir:, byte-for-byte."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        report = run_worker(url)  # real simulations (2 cells, tiny)
        assert report.executed == 2
        config = default_config(0.05)
        queue_session = Session(config=config, store=url)
        via_queue = queue_session.sweep(2, ["LLLL"])
        assert queue_session.last_grid.executed == 0
        assert queue_session.last_grid.reused == 2
        serial = Session(config=config,
                         store=f"dir:{tmp_path / 'ref'}").sweep(2, ["LLLL"])
        assert via_queue.to_json() == serial.to_json()

    def test_batch_campaign_drain_equals_serial_directory_run(
            self, tmp_path):
        """``--engine batch`` workers run one cell per claim, each on
        the batch engine's solo path; the drained queue must be
        byte-identical to a serial ``dir:`` run (which also proves
        cross-engine identity — the store fingerprint is deliberately
        engine-agnostic)."""
        spec = CampaignSpec(experiment="sweep2", scale=0.05,
                            workloads=("LLLL",), engine="batch")
        url = _url(tmp_path)
        init_queue(url, spec)
        report = run_worker(url, worker_id="bw")  # one claim per cell
        assert report.executed == 2 and report.failed == 0
        assert queue_status(url).drained
        config = default_config(0.05)
        queue_session = Session(config=config, store=url)
        via_queue = queue_session.sweep(2, ["LLLL"])
        assert queue_session.last_grid.executed == 0
        assert queue_session.last_grid.reused == 2
        serial = Session(config=config,
                         store=f"dir:{tmp_path / 'ref'}").sweep(2, ["LLLL"])
        assert via_queue.to_json() == serial.to_json()

    def test_worker_killed_before_its_next_claim_costs_one_rerun(
            self, tmp_path):
        """A worker SIGKILLed after a cell's simulation returned, before
        the claim that would record its value: the cell stays claimed
        with no value, a second worker reclaims it after ``ttl``, and
        the drained queue equals a serial ``dir:`` run byte for byte."""
        import signal
        import subprocess

        import repro

        url = _url(tmp_path)
        init_queue(url, SPEC)
        script = (
            "import os, signal, sys\n"
            "from repro.eval.backends.sqlite import SQLiteBackend\n"
            "from repro.eval.queue import run_worker\n"
            "claim = SQLiteBackend.claim\n"
            "def claim_or_die(self, worker, *, record=None, **kw):\n"
            "    if record is not None:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return claim(self, worker, record=record, **kw)\n"
            "SQLiteBackend.claim = claim_or_die\n"
            "run_worker(sys.argv[1], worker_id='doomed')\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script, url],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        backend = QueueBackend(str(tmp_path / "camp.db"))
        (row,) = backend.queue_rows("claimed")
        assert row["worker"] == "doomed" and row["attempt"] == 1
        assert backend.load_cells(SPEC.experiment) == {}
        assert backend.queue_counts()["open"] == 1
        backend.close()
        time.sleep(0.06)
        report = run_worker(url, worker_id="rescuer", ttl=0.05, poll=0.01)
        assert report.executed == 2 and report.reclaimed == 1
        assert row["key"] in report.keys
        assert queue_status(url).drained
        config = default_config(0.05)
        via_queue = Session(config=config, store=url).sweep(2, ["LLLL"])
        serial = Session(config=config,
                         store=f"dir:{tmp_path / 'ref'}").sweep(2, ["LLLL"])
        assert via_queue.to_json() == serial.to_json()

    def test_fingerprint_guard_rejects_mismatched_resume(self, tmp_path):
        url = _url(tmp_path)
        init_queue(url, SPEC)
        with pytest.raises(StoreMismatchError):
            Session(config=default_config(0.10), store=url)

    def test_search_mismatch_names_the_differing_field(self, tmp_path):
        """Workers rebuild configs from the spec's presets, which carry
        the default seed, so a seed-2 session cannot coordinate the
        search, and the error names the differing field."""
        base = dataclasses.replace(default_config(0.04), seed=2)
        session = Session(config=base, configs=rung_configs(base),
                          store=_url(tmp_path))
        spec = CampaignSpec(
            experiment="sweep2", scale=0.04, kind="search",
            workloads=("LLLL",),
            configs=tuple((r.tag, r.scale) for r in DEFAULT_RUNGS if r.tag))
        with pytest.raises(StoreMismatchError,
                           match=r"config\.seed: 2 \(store\) vs 1 "
                                 r"\(this run\)"):
            run_search(session, 2, ["LLLL"], queue_spec=spec)

    def test_migrating_a_directory_run_marks_cells_done(self, tmp_path):
        """OPERATIONS.md §6: init the queue, merge the old run in, only
        the remainder stays open."""
        config = default_config(0.05)
        old = f"dir:{tmp_path / 'old'}"
        Session(config=config, store=old).sweep(2, ["LLLL"])
        spec = CampaignSpec(experiment="sweep2", scale=0.05,
                            workloads=("LLLL", "HHHH"))  # superset grid
        url = _url(tmp_path)
        init_queue(url, spec)
        merge_runs(url, [old])
        counts = queue_status(url).counts
        assert counts["done"] == 2 and counts["open"] == 2
        # draining simulates only the remainder
        assert run_worker(url).executed == 2

    def test_recorded_value_settles_a_failed_cell(self, tmp_path):
        """A value merged in for a failed cell makes it done: the queue
        drains and no worker simulates that cell again."""
        url = _url(tmp_path)
        init_queue(url, SPEC)
        backend = QueueBackend(str(tmp_path / "camp.db"))
        claim = backend.claim("w1", ttl=60)
        backend.fail(claim["experiment"], claim["key"], "w1",
                     "RuntimeError: x")
        backend.close()
        old = f"dir:{tmp_path / 'old'}"
        Session(config=default_config(0.05), store=old).sweep(2, ["LLLL"])
        merge_runs(url, [old])
        status = queue_status(url)
        assert status.counts == {"open": 0, "claimed": 0, "done": 2,
                                 "failed": 0}
        assert status.drained
        assert reset_failed(url) == 0
        assert run_worker(url).executed == 0


# ----------------------------------------------------------------------
# SQL statement budget of a drain
# ----------------------------------------------------------------------
class TestStatementBudget:
    @pytest.mark.parametrize("engine", ["fast", "batch"])
    def test_drain_costs_exactly_five_statements_per_cell(
            self, tmp_path, monkeypatch, engine):
        """Per executed cell: one 5-statement claim (BEGIN IMMEDIATE,
        the upsert recording the previous cell's value, stale-fail
        UPDATE, claiming UPDATE ... RETURNING, COMMIT).  The first claim
        records nothing and the final, empty claim records the last
        value, so with opening the store and the idle check that is 8
        more.  The lockfile is taken once per claim and never for a
        finish.  A batch campaign drains cell by cell too, at exactly
        the same cost, and no row gets metadata."""
        spec = CampaignSpec(experiment="sweep2", scale=0.05,
                            engine=engine)  # 18 cells
        url = _url(tmp_path)
        init_queue(url, spec)
        statements: list[str] = []
        connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        locks: list[str] = []
        enter = _FileLock.__enter__

        def counted_enter(self):
            locks.append(self.path)
            return enter(self)

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        monkeypatch.setattr(_FileLock, "__enter__", counted_enter)
        monkeypatch.setattr("repro.eval.queue.run_cell",
                            lambda cell, config, programs: 1.0)
        report = run_worker(url, worker_id="w1")
        cells = len(spec.cells())
        assert report.executed == cells == 18
        assert len(statements) == 5 * cells + 8, statements
        claims = cells + 1  # the last claim finds the queue empty
        assert len(locks) == claims
        assert sum("ON CONFLICT" in sql for sql in statements) == cells
        monkeypatch.undo()
        backend = QueueBackend(str(tmp_path / "camp.db"))
        assert backend.load_cell_meta(spec.experiment) == {}
        backend.close()

    def test_store_write_costs_at_most_three_statements_per_cell(
            self, tmp_path, monkeypatch):
        """A ``sqlite:`` sweep records each cell's value in one
        ``save_cells`` transaction (BEGIN IMMEDIATE, upsert, COMMIT); 3
        more statements read the cells and update the manifest."""
        monkeypatch.setattr("repro.eval.runner.run_cell",
                            lambda cell, config, programs: 1.0)
        session = Session(scale=0.05, store=f"sqlite:{tmp_path / 'c.db'}")
        statements: list[str] = []
        session.store.backend._conn.set_trace_callback(statements.append)
        session.sweep(2)
        cells = session.last_grid.executed
        assert cells == 18
        assert len(statements) <= 3 * cells + 3, statements
        assert session.store.load_cell_meta("sweep2") == {}
        session.close()


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestQueueCli:
    def _init(self, tmp_path, capsys) -> str:
        from repro.eval.cli import main
        url = _url(tmp_path)
        assert main(["queue-init", url, "-e", "sweep2", "--scale", "0.05",
                     "--workloads", "LLLL"]) == 0
        out = capsys.readouterr().out
        assert "enqueued 2 new cells" in out
        return url

    def test_init_worker_status_cycle(self, tmp_path, capsys):
        from repro.eval.cli import main
        url = self._init(tmp_path, capsys)
        assert main(["worker", url, "--id", "w1"]) == 0
        assert "2 cells executed" in capsys.readouterr().out
        assert main(["queue-status", url]) == 0
        out = capsys.readouterr().out
        assert "done 2 (100%)" in out and "queue drained" in out
        # the campaign's own verb assembles the artifact with 0 sims
        assert main(["sweep", "-t", "2", "--workloads", "LLLL",
                     "--scale", "0.05", "--store", url]) == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_bare_path_means_queue_url(self, tmp_path, capsys):
        from repro.eval.cli import main
        self._init(tmp_path, capsys)
        assert main(["queue-status", str(tmp_path / "camp.db")]) == 0
        assert "open 2" in capsys.readouterr().out

    def test_reset_failed_verb(self, tmp_path, capsys):
        from repro.eval.cli import main
        url = self._init(tmp_path, capsys)
        assert main(["reset-failed", url]) == 0
        assert "reopened 0 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["queue-status", "reset-failed"])
    def test_missing_queue_is_refused_and_not_created(
            self, tmp_path, capsys, verb):
        from repro.eval.cli import main
        path = tmp_path / "nothere.db"
        assert main([verb, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"no queue database at {str(path)!r}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_store_written_without_init_still_reports(self, tmp_path,
                                                      capsys):
        """A ``--store queue:`` run needs no ``queue-init``; its file
        is a queue the read and repair verbs accept."""
        from repro.eval.cli import main
        url = _url(tmp_path)
        assert main(["sweep", "-t", "2", "--workloads", "LLLL",
                     "--scale", "0.05", "--store", url]) == 0
        capsys.readouterr()
        assert main(["queue-status", url]) == 0
        assert "cells: 0 total" in capsys.readouterr().out
        assert main(["reset-failed", url]) == 0
        assert "reopened 0 cells" in capsys.readouterr().out

    def test_wrong_scheme_is_a_clean_error(self, tmp_path, capsys):
        from repro.eval.cli import main
        assert main(["queue-status", f"sqlite:{tmp_path / 's.db'}"]) == 1
        err = capsys.readouterr().err
        assert "queue:PATH.db" in err and "Traceback" not in err

    def test_unknown_experiment_is_a_clean_error(self, tmp_path, capsys):
        from repro.eval.cli import main
        assert main(["queue-init", _url(tmp_path), "-e", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_duplicate_machines_are_a_clean_error(self, tmp_path, capsys):
        from repro.eval.cli import main
        url = _url(tmp_path)
        assert main(["queue-init", url, "-e", "sweep2", "--scale", "0.05",
                     "--machines", "2c4w,2c4w"]) == 1
        err = capsys.readouterr().err
        assert "duplicate machine tag '2c4w'" in err
        assert "Traceback" not in err
        self._init(tmp_path, capsys)  # the refused init wrote nothing

    @pytest.mark.parametrize("bad", ["sweep0", "sweep02", "fig9"])
    def test_failed_init_leaves_the_queue_free(self, tmp_path, capsys, bad):
        """An init that fails (a malformed sweep id, a static
        experiment) writes nothing: the file still takes a campaign."""
        from repro.eval.cli import main
        url = _url(tmp_path)
        assert main(["queue-init", url, "-e", bad, "--scale", "0.05"]) == 1
        capsys.readouterr()
        self._init(tmp_path, capsys)
