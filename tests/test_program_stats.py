"""VLIWProgram helpers, SimStats arithmetic, SimConfig scaling."""

import pytest

from repro.arch import paper_machine
from repro.compiler import compile_kernel
from repro.sim import CacheConfig, SimConfig
from repro.sim.stats import SimStats
from tests.conftest import build_saxpy

MACHINE = paper_machine()


class TestVLIWProgram:
    @pytest.fixture(scope="class")
    def prog(self):
        return compile_kernel(build_saxpy(), MACHINE, unroll_hints={"loop": 2})

    def test_counts(self, prog):
        assert prog.n_static_instrs == sum(len(b.mops) for b in prog.blocks)
        assert prog.n_static_ops == sum(b.n_ops for b in prog.blocks)

    def test_static_ipc_definition(self, prog):
        assert prog.static_ipc() == pytest.approx(
            prog.n_static_ops / prog.n_static_instrs)

    def test_pattern_index_roundtrip(self, prog):
        for i, p in enumerate(prog.patterns):
            assert prog.pattern_index(p.name) == i
        with pytest.raises(KeyError):
            prog.pattern_index("ghost")

    def test_reassigning_addresses_is_stable(self, prog):
        before = [m.address for b in prog.blocks for m in b.mops]
        prog.assign_addresses()
        after = [m.address for b in prog.blocks for m in b.mops]
        assert before == after

    def test_custom_base_address(self, prog):
        prog.assign_addresses(base=0x40000)
        assert prog.blocks[0].mops[0].address == 0x40000
        prog.assign_addresses()  # restore default for other tests

    def test_block_accessors(self, prog):
        blk = prog.blocks[0]
        assert blk.n_cycles == len(blk.mops)
        assert blk.n_ops > 0


class TestSimStats:
    def test_ipc_zero_when_empty(self):
        assert SimStats().ipc == 0.0

    def test_record_issue_accumulates(self):
        s = SimStats()
        s.record_issue(2, 10)
        s.record_issue(1, 3)
        s.cycles = 4
        assert s.ops == 13
        assert s.instrs == 3
        assert s.merged_hist == {2: 1, 1: 1}
        assert s.ipc == pytest.approx(13 / 4)

    def test_avg_threads(self):
        s = SimStats()
        s.record_issue(4, 16)
        s.record_issue(2, 8)
        assert s.avg_threads_per_cycle() == pytest.approx(3.0)

    def test_avg_threads_empty(self):
        assert SimStats().avg_threads_per_cycle() == 0.0

    def test_horizontal_waste(self):
        s = SimStats()
        s.cycles = 10
        s.vertical_waste = 2
        s.ops = 64
        # 8 issuing cycles x 16 slots = 128 slots, 64 used
        assert s.horizontal_waste(16) == pytest.approx(0.5)

    def test_horizontal_waste_no_issue(self):
        s = SimStats()
        s.cycles = 5
        s.vertical_waste = 5
        assert s.horizontal_waste(16) == 0.0

    def test_summary_keys(self):
        s = SimStats()
        s.cycles = 2
        s.record_issue(1, 4)
        out = s.summary(issue_width=16)
        for key in ("cycles", "ops", "ipc", "vertical_waste_frac",
                    "horizontal_waste_frac", "context_switches"):
            assert key in out


class TestSimConfig:
    def test_scaled_preserves_ratio(self):
        cfg = SimConfig(instr_limit=20_000, timeslice=4_000)
        half = cfg.scaled(0.5)
        assert half.instr_limit == 10_000
        assert half.timeslice == 2_000
        assert half.instr_limit / half.timeslice == \
            cfg.instr_limit / cfg.timeslice

    def test_scaled_floors_at_one(self):
        tiny = SimConfig(instr_limit=10, timeslice=10).scaled(0.001)
        assert tiny.instr_limit >= 1 and tiny.timeslice >= 1

    def test_scaled_scales_warmup_with_measurement(self):
        """Regression: scaled(0.04) used to keep the full 2000-instr
        warmup in front of an 800-instruction measurement."""
        cfg = SimConfig(instr_limit=20_000, timeslice=4_000,
                        warmup_instrs=2_000)
        small = cfg.scaled(0.04)
        assert small.instr_limit == 800
        assert small.warmup_instrs == 80
        assert small.warmup_instrs / small.instr_limit == \
            cfg.warmup_instrs / cfg.instr_limit

    def test_scaled_keeps_zero_warmup_zero(self):
        assert SimConfig(warmup_instrs=0).scaled(0.5).warmup_instrs == 0

    @pytest.mark.parametrize("factor", [0, -1, float("nan"), float("inf")])
    def test_scaled_rejects_a_factor_that_is_not_positive_and_finite(
            self, factor):
        """Regression: scaled(-1) clamped to a 1-instruction quota with
        a negative warmup and simulated a meaningless IPC."""
        with pytest.raises(ValueError, match="positive finite"):
            SimConfig().scaled(factor)

    def test_frozen(self):
        cfg = SimConfig()
        with pytest.raises(Exception):
            cfg.instr_limit = 5

    def test_cache_configs_independent(self):
        cfg = SimConfig(icache=CacheConfig(size=32 * 1024))
        assert cfg.icache.size == 32 * 1024
        assert cfg.dcache.size == 64 * 1024
