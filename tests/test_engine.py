"""Engine layer: protocol, differential bit-identity, fast-path guards.

The differential suite is the contract that makes the engine layer safe:
``FastEngine`` must produce bit-identical ``SimStats``, per-thread
counters and cache counters to ``ReferenceEngine`` for every scheme in
the registry on every Table 2 workload, including OS-scheduler
multiprogramming runs (schemes with fewer ports than software threads
context-switch every timeslice) and every scheme the 2..8-thread sweep
enumerator emits.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import paper_machine
from repro.kernels import SUITE, by_name, compile_spec
from repro.merge import PAPER_SCHEMES, get_scheme
from repro.sim import (
    ENGINES,
    FastEngine,
    MTCore,
    ReferenceEngine,
    SimConfig,
    ThreadState,
    make_engine,
    run_workload,
)
from repro.sim.cache import Cache, CacheConfig, PerfectCache
from repro.sim.os_sched import RunResult
from repro.workloads import WORKLOAD_ORDER, workload_programs

MACHINE = paper_machine()

#: the full scheme registry: both baselines plus the fifteen 4-thread
#: schemes of Figure 8 (parallel-CSMT variants included verbatim).
ALL_SCHEMES = ["ST", "1S"] + PAPER_SCHEMES

#: small but representative: real caches, warmup, timeslice switching.
DIFF_CONFIG = SimConfig(instr_limit=300, timeslice=150, warmup_instrs=60)

#: tiny but complete (real caches, warmup, timeslice switching), for
#: properties that simulate many drawn schemes.
TINY_CONFIG = SimConfig(instr_limit=120, timeslice=60, warmup_instrs=20)

#: every accelerated engine is differentially tested against reference.
ACCEL_ENGINES = ("fast",)


def _fingerprint(result):
    """Everything the simulator reports, in comparable form."""
    return (
        dataclasses.asdict(result.stats),
        result.per_thread(),
        (result.icache.hits, result.icache.misses),
        (result.dcache.hits, result.dcache.misses),
    )


class _OddCache(Cache):
    """A Cache subclass: the fast engine cannot inline its LRU
    bookkeeping and calls ``access()`` instead."""


@functools.lru_cache(maxsize=None)
def _eight_programs() -> list:
    """Eight software threads: enough for every scheme up to 8 ports."""
    return workload_programs("LLMH", MACHINE) \
        + workload_programs("HHHH", MACHINE)


def _run(programs, scheme, config, engine):
    return _fingerprint(
        run_workload(programs, scheme, dataclasses.replace(config, engine=engine))
    )


class TestDifferential:
    """FastEngine == ReferenceEngine, bit for bit."""

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    def test_full_registry_on_workload(self, workload, engine):
        programs = workload_programs(workload, MACHINE)
        for scheme in ALL_SCHEMES:
            ref = _run(programs, scheme, DIFF_CONFIG, "reference")
            accel = _run(programs, scheme, DIFF_CONFIG, engine)
            assert ref == accel, f"{workload}/{scheme}/{engine} diverged"

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_multiprogramming_context_switches(self, engine):
        """ST and 1S run 4 software threads on 1-2 contexts: the OS
        scheduler swaps threads every timeslice on all engines."""
        programs = workload_programs("LLMH", MACHINE)
        for scheme in ("ST", "1S"):
            cfg = dataclasses.replace(DIFF_CONFIG, engine=engine)
            res = run_workload(programs, scheme, cfg)
            assert res.stats.context_switches > 0
            assert _run(programs, scheme, DIFF_CONFIG, "reference") == \
                _fingerprint(res)

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_perfect_caches(self, engine):
        programs = workload_programs("MMHH", MACHINE)
        cfg = dataclasses.replace(DIFF_CONFIG, perfect_icache=True,
                                  perfect_dcache=True)
        for scheme in ("ST", "1S", "2SC3", "3SSS"):
            assert _run(programs, scheme, cfg, "reference") == \
                _run(programs, scheme, cfg, engine)

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_no_warmup_and_other_seed(self, engine):
        programs = workload_programs("LLHH", MACHINE)
        cfg = SimConfig(instr_limit=250, timeslice=100, warmup_instrs=0,
                        seed=42)
        for scheme in ("1S", "3CCC", "2SS"):
            assert _run(programs, scheme, cfg, "reference") == \
                _run(programs, scheme, cfg, engine)

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_no_rotation(self, engine):
        programs = workload_programs("LLLL", MACHINE)
        cfg = dataclasses.replace(DIFF_CONFIG, rotate_priority=False)
        for scheme in ("3CCC", "3SSS"):
            assert _run(programs, scheme, cfg, "reference") == \
                _run(programs, scheme, cfg, engine)

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_max_cycles_timeslice_boundary(self, engine):
        """All engines must consume cycle budgets identically."""
        programs = workload_programs("MMMM", MACHINE)
        for max_cycles in (1, 7, 150, 1543):
            cfg = dataclasses.replace(DIFF_CONFIG, max_cycles=max_cycles)
            assert _run(programs, "1S", cfg, "reference") == \
                _run(programs, "1S", cfg, engine)

    def test_eight_thread_enumerator_sample(self):
        """8-thread schemes from the sweep enumerator (``@8``-qualified
        names parse to the same trees) run 8 software threads on up to
        8 ports — the wide-merge path no 4-thread test reaches."""
        programs = _eight_programs()
        from repro.eval.sweep import enumerate_names
        names = enumerate_names(8)
        sample = [names[i] for i in range(0, len(names), len(names) // 7)]
        sample += ["C8@8", "2SC7@8", "7SSSSSSS@8"]  # explicit qualifiers
        for scheme in sample:
            ref = _run(programs, scheme, DIFF_CONFIG, "reference")
            for engine in ACCEL_ENGINES:
                accel = _run(programs, scheme, DIFF_CONFIG, engine)
                assert ref == accel, f"8T/{scheme}/{engine} diverged"

    @settings(max_examples=30, deadline=5_000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_enumerated_schemes_match_reference(self, data):
        """Any scheme the 2..8-thread enumerator emits runs in bounded
        time and memory, bit-identical to the reference."""
        from repro.eval.sweep import enumerate_names

        n = data.draw(st.integers(min_value=2, max_value=8), label="n")
        scheme = data.draw(st.sampled_from(enumerate_names(n)),
                           label="scheme")
        programs = _eight_programs()
        ref = _run(programs, scheme, TINY_CONFIG, "reference")
        for engine in ACCEL_ENGINES:
            assert _run(programs, scheme, TINY_CONFIG, engine) == ref, \
                f"{scheme}/{engine} diverged"

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_partially_occupied_contexts(self, engine):
        """One program on a 4-port scheme leaves three contexts empty."""
        prog = compile_spec(by_name("mcf"), MACHINE)
        assert _run([prog], "3SSS", DIFF_CONFIG, "reference") == \
            _run([prog], "3SSS", DIFF_CONFIG, engine)

    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_unspecialized_cache_type(self, engine):
        """A Cache subclass skips the inlined LRU paths and goes through
        plain ``access()`` calls — results stay bit-identical."""
        programs = workload_programs("LLLL", MACHINE)
        scheme = get_scheme("3CCC")

        def build(engine):
            core = MTCore(MACHINE, scheme, _OddCache(CacheConfig()),
                          _OddCache(CacheConfig()), engine=engine)
            ts = [ThreadState(p, sw_id=i, seed=1 + 17 * i)
                  for i, p in enumerate(programs)]
            core.set_contexts(ts)
            core.run(2_000, instr_limit=400)
            return dataclasses.asdict(core.stats)

        assert build(ReferenceEngine()) == build(make_engine(engine))

    @pytest.mark.parametrize("cache_cls", [Cache, _OddCache])
    @pytest.mark.parametrize("engine", ACCEL_ENGINES)
    def test_zero_icache_miss_penalty(self, engine, cache_cls):
        """With a zero ICache miss penalty a fetch that misses stalls its
        thread only until the current cycle, so the thread still takes
        part in that cycle's merge — on the inlined LRU path and through
        plain ``access()`` calls alike."""
        programs = workload_programs("LLMH", MACHINE)
        icfg = CacheConfig(miss_penalty=0)

        def build(engine, scheme):
            core = MTCore(MACHINE, get_scheme(scheme), cache_cls(icfg),
                          cache_cls(CacheConfig()), engine=engine)
            ts = [ThreadState(p, sw_id=i, seed=1 + 17 * i)
                  for i, p in enumerate(programs[:core.n_ports])]
            core.set_contexts(ts)
            core.run(3_000, instr_limit=600)
            return _fingerprint(RunResult(core.stats, ts, core.icache,
                                          core.dcache))

        for scheme in ("3CCC", "3SSS", "2SC3", "1S"):
            ref = build(ReferenceEngine(), scheme)
            assert ref[2][1] > 0  # the ICache does miss
            assert build(make_engine(engine), scheme) == ref, scheme

    @pytest.mark.parametrize("i_penalty", [CacheConfig().miss_penalty, 0])
    def test_sixteen_port_cascade_fills_table_on_demand(self, i_penalty):
        """A 16-port cascade (the widest the grammar accepts) with 16
        programs: fast equals reference, and the dispatch table holds
        only ready masks the simulation actually reached — never the
        16 x 65,536 entries an eager table would."""
        name = "15" + "C" * 15
        programs = _eight_programs() * 2
        icfg = CacheConfig(miss_penalty=i_penalty)

        def core_for(engine):
            core = MTCore(MACHINE, get_scheme(name), Cache(icfg),
                          Cache(CacheConfig()), engine=engine)
            ts = [ThreadState(p, sw_id=i, seed=1 + 17 * i)
                  for i, p in enumerate(programs)]
            core.set_contexts(ts)
            return core, ts

        fast, fast_ts = core_for("fast")
        table = fast.scheme.dispatch()
        table.clear()  # shared per rotation schedule: start it empty
        fast.run(4_000, instr_limit=400)

        # step the reference one cycle at a time and record each cycle's
        # (rotation, ready mask): a context is ready iff it was unstalled
        # at the cycle's start and is still unstalled after its fetch —
        # a fetch that misses stalls it until cycle + miss_penalty.
        ref, ref_ts = core_for("reference")
        seen = set()
        while ref.cycle < fast.cycle:
            cycle, rot = ref.cycle, ref._rot
            before = [(t.stall_until, t.icache_misses) for t in ref_ts]
            status = ref.run(1, instr_limit=400)
            mask = 0
            for c, (t, (stall, imiss)) in enumerate(zip(ref_ts, before)):
                missed = t.icache_misses != imiss
                if stall <= cycle and not (missed and
                                           cycle + i_penalty > cycle):
                    mask |= 1 << c
            if mask:
                seen.add((rot << 16) | mask)
            if status == "limit":
                break
        assert ref.cycle == fast.cycle
        assert _fingerprint(RunResult(ref.stats, ref_ts, ref.icache,
                                      ref.dcache)) == \
            _fingerprint(RunResult(fast.stats, fast_ts, fast.icache,
                                   fast.dcache))

        assert 0 < len(table) <= len(seen)
        assert set(table) <= seen


class TestEngineHandoff:
    """Engines share all core state, so they can take turns on one core
    across timeslices and still match a pure reference run."""

    @staticmethod
    def _run(order):
        programs = [compile_spec(spec, MACHINE) for spec in SUITE[:4]]
        cfg = SimConfig()
        core = MTCore(MACHINE, get_scheme("3CCC"), Cache(cfg.icache),
                      Cache(cfg.dcache))
        ts = [ThreadState(p, sw_id=i, seed=5)
              for i, p in enumerate(programs)]
        core.set_contexts(ts)
        for engine in order:
            core.engine = make_engine(engine)
            core.run(300)
        return _fingerprint(RunResult(core.stats, ts, core.icache,
                                      core.dcache))

    @pytest.mark.parametrize("first,second", [("fast", "reference"),
                                              ("reference", "fast")])
    def test_alternating_engines_equal_pure_reference(self, first, second):
        assert self._run([first, second] * 3) == \
            self._run(["reference"] * 6)


class TestEngineProtocol:
    def test_registry_contents(self):
        assert set(ENGINES) == {"reference", "fast", "batch"}

    def test_make_engine_from_name_class_instance(self):
        assert isinstance(make_engine("fast"), FastEngine)
        assert isinstance(make_engine("reference"), ReferenceEngine)
        assert isinstance(make_engine(FastEngine), FastEngine)
        engine = FastEngine()
        assert make_engine(engine) is engine

    def test_make_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine.*fast"):
            make_engine("warp")
        with pytest.raises(TypeError):
            make_engine(42)

    def test_config_rejects_unknown_engine_at_construction(self):
        with pytest.raises(ValueError, match="unknown engine.*fast"):
            SimConfig(engine="warp")

    def test_core_default_engine_is_fast(self):
        core = MTCore(MACHINE, get_scheme("ST"), PerfectCache(),
                      PerfectCache())
        assert core.engine.name == "fast"

    def test_config_threads_engine_to_core(self):
        prog = compile_spec(by_name("mcf"), MACHINE)
        cfg = SimConfig(instr_limit=50, timeslice=50, warmup_instrs=0,
                        engine="reference")
        res = run_workload([prog], "ST", cfg)
        assert res.stats.cycles > 0  # ran through the reference engine

    def test_run_result_carries_no_engine_stats(self):
        """A run yields its statistics only: no engine sets the
        ``engine_stats`` field, which stays ``None``."""
        programs = workload_programs("LLLL", MACHINE)
        for name in ENGINES:
            cfg = dataclasses.replace(DIFF_CONFIG, engine=name)
            assert run_workload(programs, "3CCC", cfg).engine_stats is None


class TestFastPaths:
    """Direct checks of the fast engine's batching behaviors."""

    def _single(self, engine, **cache_kw):
        prog = compile_spec(by_name("mcf"), MACHINE)
        core = MTCore(MACHINE, get_scheme("ST"),
                      cache_kw.get("icache") or PerfectCache(),
                      cache_kw.get("dcache") or Cache(CacheConfig()),
                      engine=engine)
        t = ThreadState(prog, 0, seed=3)
        core.set_contexts([t])
        return core, t

    def test_idle_skip_accounts_vertical_waste(self):
        """mcf stalls constantly; the fast engine must report exactly
        the reference's vertical waste despite skipping those cycles."""
        ref_core, _ = self._single("reference")
        fast_core, _ = self._single("fast")
        ref_core.run(5_000, instr_limit=400)
        fast_core.run(5_000, instr_limit=400)
        assert ref_core.stats.vertical_waste > 0
        assert dataclasses.asdict(ref_core.stats) == \
            dataclasses.asdict(fast_core.stats)

    def test_empty_core_burns_budget_as_vertical_waste(self):
        for engine in ("reference", "fast"):
            core = MTCore(MACHINE, get_scheme("1S"), PerfectCache(),
                          PerfectCache(), engine=engine)
            assert core.run(123) == "timeslice"
            assert core.stats.cycles == 123
            assert core.stats.vertical_waste == 123
            assert core.cycle == 123

    def test_cycle_and_rotation_state_shared_across_runs(self):
        """Engines persist cycle/rotation on the core between calls."""
        cores = {}
        for engine in ("reference", "fast"):
            core, _ = self._single(engine)
            for _ in range(5):
                core.run(137, instr_limit=None)
            cores[engine] = core
        a, b = cores["reference"], cores["fast"]
        assert a.cycle == b.cycle == 5 * 137
        assert a._rot == b._rot

    def test_zero_budget_is_a_noop(self):
        core, t = self._single("fast")
        assert core.run(0, instr_limit=10) == "timeslice"
        assert core.stats.cycles == 0
        assert t.issued_instrs == 0
