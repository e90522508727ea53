"""Batch engine: grouped lockstep differential suite and properties.

The batch engine's contract is stronger than "fast": a group of N
compatible cells run through :func:`run_workloads_batch` must be
*bit-identical* — ``SimStats``, per-thread counters, cache counters —
to the same N cells run one at a time through the reference engine.
This file is that contract:

* a differential sweep over the full scheme registry, including mixed
  machine shapes in one group;
* a hypothesis property over randomly composed groups (any subset, any
  order, duplicates allowed) against precomputed solo fingerprints;
* the same sweep with ``REPRO_NO_NATIVE=1``, pinning the pure-numpy
  fallback paths to the same bits as the native kernels;
* fallback semantics: unbatchable tasks yield ``None`` without
  disturbing their group-mates.

Everything here skips cleanly when numpy is absent — the batch
engine's solo path (delegation to fast) is covered by test_engine.py
and needs no numpy.
"""

from __future__ import annotations

import dataclasses

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_machine, scaled_machine
from repro.merge import PAPER_SCHEMES
from repro.sim import SimConfig, run_workload
from repro.sim.batch import run_workloads_batch
from repro.workloads import workload_programs

# every repro import above is numpy-safe; only the grouped lockstep
# path under test here needs it.
pytest.importorskip("numpy")

ALL_SCHEMES = ["ST", "1S"] + PAPER_SCHEMES

#: small but representative: real caches, warmup, timeslice switching.
DIFF_CONFIG = SimConfig(instr_limit=300, timeslice=150, warmup_instrs=60)


def _fingerprint(result):
    """Everything the simulator reports, in comparable form."""
    return (
        dataclasses.asdict(result.stats),
        result.per_thread(),
        (result.icache.hits, result.icache.misses),
        (result.dcache.hits, result.dcache.misses),
    )


def _solo(programs, scheme, engine="reference", config=DIFF_CONFIG):
    return _fingerprint(run_workload(
        programs, scheme, dataclasses.replace(config, engine=engine)))


class TestGroupDifferential:
    """run_workloads_batch == per-cell reference, bit for bit."""

    def test_full_registry_group_matches_reference(self):
        machine = paper_machine()
        programs = workload_programs("LLMH", machine)
        tasks = [(programs, s) for s in ALL_SCHEMES]
        results = run_workloads_batch(tasks, DIFF_CONFIG)
        for (progs, scheme), res in zip(tasks, results):
            assert res is not None, f"{scheme} unexpectedly unbatchable"
            assert _fingerprint(res) == _solo(progs, scheme), \
                f"batch diverged from reference on {scheme}"

    def test_mixed_machines_in_one_group(self):
        """One group may span machine shapes; each cell's machine is
        implied by its compiled programs."""
        tasks = []
        for clusters, width in ((2, 4), (4, 4), (6, 5)):
            machine = scaled_machine(clusters, width)
            progs = workload_programs("HHHH", machine)
            tasks += [(progs, s) for s in ("1S", "2SC3", "3CCC", "3SSS")]
        results = run_workloads_batch(tasks, DIFF_CONFIG)
        for (progs, scheme), res in zip(tasks, results):
            assert _fingerprint(res) == _solo(progs, scheme)

    def test_numpy_fallback_paths_match_native(self, monkeypatch):
        """REPRO_NO_NATIVE pins the pure-numpy probe/merge paths to the
        same bits (on boxes without a C compiler they are the only
        paths, and this test compares numpy to reference)."""
        machine = paper_machine()
        programs = workload_programs("LLLL", machine)
        tasks = [(programs, s) for s in ("1S", "2SC3", "3SSS", "3CCC")]
        native = [_fingerprint(r)
                  for r in run_workloads_batch(tasks, DIFF_CONFIG)]
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        numpy_only = [_fingerprint(r)
                      for r in run_workloads_batch(tasks, DIFF_CONFIG)]
        assert native == numpy_only
        assert native[0] == _solo(programs, "1S")

    def test_small_refills_read_on_from_the_cursor(self, monkeypatch):
        """Each refill of a stream converts the records after its
        cursor: tiny chunks make every stream refill many times from
        the walk it shares with the group's other cells."""
        from repro.sim import batch
        from repro.trace.stream import release_walks

        machine = paper_machine()
        programs = workload_programs("LLMH", machine)
        tasks = [(programs, s) for s in ("1S", "2SC3", "3SSS")]
        monkeypatch.setattr(batch, "CHUNK", 50)
        release_walks()
        results = run_workloads_batch(tasks, DIFF_CONFIG)
        for (progs, scheme), res in zip(tasks, results):
            assert _fingerprint(res) == _solo(progs, scheme)

    def test_streams_materialize_only_what_they_take(self):
        """A refill asks the walk for at most the records the stream's
        buffer has room for, not a whole ``CHUNK``."""
        from repro.sim import batch
        from repro.trace import stream

        programs = workload_programs("LLMH", paper_machine())
        stream.release_walks()
        run_workloads_batch([(programs, "1S"), (programs, "2SC3")],
                            DIFF_CONFIG)
        room = DIFF_CONFIG.warmup_instrs + DIFF_CONFIG.instr_limit + 8
        walks = list(stream._WALKS.values())
        assert walks
        # the filler stops at a block boundary: a block past the room
        assert max(len(w.records) for w in walks) < 2 * room < batch.CHUNK
        stream.release_walks()

    def test_group_is_freed_without_the_cycle_collector(self, monkeypatch):
        """The lockstep sim's per-cell controllers point back at it;
        the group must not wait for a cyclic collection to free its
        arrays."""
        import gc
        import weakref

        from repro.sim import batch

        sims = []
        init = batch._LockstepSim.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sims.append(weakref.ref(self))

        monkeypatch.setattr(batch._LockstepSim, "__init__", spy)
        programs = workload_programs("LLLL", paper_machine())
        gc.disable()
        try:
            run_workloads_batch([(programs, "1S")], DIFF_CONFIG)
            assert len(sims) == 1 and sims[0]() is None
        finally:
            gc.enable()

    def test_unbatchable_task_yields_none_without_harm(self):
        machine = paper_machine()
        programs = workload_programs("LLLL", machine)
        tasks = [(programs, "1S"), ([], "1S"), (programs, "3CCC")]
        results = run_workloads_batch(tasks, DIFF_CONFIG)
        assert results[1] is None  # no programs: caller falls back
        assert _fingerprint(results[0]) == _solo(programs, "1S")
        assert _fingerprint(results[2]) == _solo(programs, "3CCC")

    def test_all_unbatchable_group_is_all_none(self):
        assert run_workloads_batch([([], "1S")] * 3, DIFF_CONFIG) \
            == [None, None, None]

    def test_results_carry_batch_engine_stats(self):
        machine = paper_machine()
        programs = workload_programs("LLLL", machine)
        tasks = [(programs, s) for s in ("1S", "2SC3", "3CCC")]
        for res in run_workloads_batch(tasks, DIFF_CONFIG):
            es = res.engine_stats
            assert es["engine"] == "batch"
            assert es["batch_cells"] == len(tasks)
            assert es["batch_groups"] == 1


# -- property: any compatible group == its solo runs ------------------------

_MACHINE = paper_machine()
_PROGRAMS = {wl: workload_programs(wl, _MACHINE) for wl in ("LLLL", "LLMH")}
_PROP_CONFIG = SimConfig(instr_limit=150, timeslice=100, warmup_instrs=30)
_CELL_POOL = [(wl, s) for wl in _PROGRAMS
              for s in ("ST", "1S", "2SC3", "3CCC", "3SSS", "2CS")]
_SOLO_CACHE: dict = {}


def _solo_cached(cell):
    if cell not in _SOLO_CACHE:
        wl, scheme = cell
        _SOLO_CACHE[cell] = _solo(_PROGRAMS[wl], scheme,
                                  config=_PROP_CONFIG)
    return _SOLO_CACHE[cell]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(_CELL_POOL), min_size=1, max_size=8))
def test_any_group_equals_its_solo_runs(group):
    """Group composition is free: any subset, any order, duplicates
    allowed — each member's stats equal its solo reference run."""
    tasks = [(_PROGRAMS[wl], s) for wl, s in group]
    results = run_workloads_batch(tasks, _PROP_CONFIG)
    for cell, res in zip(group, results):
        assert res is not None
        assert _fingerprint(res) == _solo_cached(cell), \
            f"{cell} diverged in group {group}"


# -- native kernel module ---------------------------------------------------

class TestNativeModule:
    def test_no_native_env_disables_kernels(self, monkeypatch):
        from repro.sim import native

        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert native.get_native() is None

    def test_get_native_is_memoized(self, monkeypatch):
        from repro.sim import native

        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        first = native.get_native()
        assert native.get_native() is first  # built or failed once
