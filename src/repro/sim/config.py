"""Simulation configuration and the one-call runner.

``SimConfig`` gathers every knob an experiment touches.  The paper runs
100M instructions per thread with 1M-cycle timeslices; pure-Python
simulation scales both down (defaults: 20k instructions, 4k-cycle slices
- the slice:quota ratio is preserved) without changing any steady-state
rate, since IPC converges within a few thousand cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.merge.registry import get_scheme
from repro.sim.cache import CacheConfig, make_cache
from repro.sim.core import MTCore
from repro.sim.engine import ENGINES
from repro.sim.os_sched import Multitasker, RunResult
from repro.sim.thread import ThreadState

__all__ = ["SimConfig", "run_workload"]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulation run."""

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    perfect_icache: bool = False
    perfect_dcache: bool = False
    timeslice: int = 4_000
    instr_limit: int = 20_000
    #: instructions (per fastest thread) executed before statistics are
    #: reset: amortizes cold-cache compulsory misses that the paper's
    #: 100M-instruction runs never see.
    warmup_instrs: int = 2_000
    seed: int = 1
    rotate_priority: bool = True
    max_cycles: int | None = None
    #: simulation engine ('reference', 'fast' or 'batch', the fast
    #: engine under the name older stores carry).  All are
    #: bit-identical in every reported statistic (enforced by the
    #: differential suite in tests/test_engine.py); the choice affects
    #: wall-clock speed only, so it is not part of the config's
    #: identity: a run may resume with another engine.
    engine: str = field(default="fast", metadata={"identity": False})

    def __post_init__(self) -> None:
        # fail at construction, not at first run: a typo'd engine name
        # inside a campaign spec should not surface cells later.
        if isinstance(self.engine, str) and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"choose from {sorted(ENGINES)}"
            )

    def scaled(self, factor: float) -> "SimConfig":
        """Scale run length (quota + slice + warmup together) by ``factor``.

        Warmup scales with the same factor as the measured quota so the
        warmup:measurement ratio is scale-invariant — ``scaled(0.04)``
        warms 80 instructions before an 800-instruction measurement, not
        the unscaled 2000 (which would out-run the measurement itself).
        ``factor`` must be a positive finite number: anything else would
        clamp to a 1-instruction quota (or a negative warmup) and
        simulate garbage.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"scale factor must be a positive finite "
                             f"number, got {factor!r}")
        return replace(
            self,
            timeslice=max(1, int(self.timeslice * factor)),
            instr_limit=max(1, int(self.instr_limit * factor)),
            warmup_instrs=int(self.warmup_instrs * factor),
        )


def run_workload(programs, scheme_name: str, config: SimConfig | None = None
                 ) -> RunResult:
    """Simulate a multiprogrammed workload under one merging scheme.

    Args:
        programs: compiled :class:`VLIWProgram` per software thread
            (typically 4; fewer threads than hardware contexts is fine).
        scheme_name: any name :func:`repro.merge.parse_scheme` accepts
            ('ST', '1S', '2SC3', '3SSS', ...).
        config: simulation parameters (defaults reproduce the paper's
            setup at reduced scale).

    Returns:
        :class:`RunResult` with machine-wide stats and per-thread detail.
    """
    config = config or SimConfig()
    scheme = get_scheme(scheme_name)
    if not programs:
        raise ValueError("need at least one program")
    machine = programs[0].machine
    for p in programs:
        if p.machine is not machine and p.machine != machine:
            raise ValueError("all programs must target the same machine")
    threads = [
        ThreadState(p, sw_id=i, seed=config.seed + 17 * i)
        for i, p in enumerate(programs)
    ]
    core = MTCore(
        machine,
        scheme,
        icache=make_cache(config.icache, config.perfect_icache),
        dcache=make_cache(config.dcache, config.perfect_dcache),
        rotate=config.rotate_priority,
        engine=config.engine,
    )
    tasker = Multitasker(core, threads, timeslice=config.timeslice,
                         seed=config.seed)
    return tasker.run(config.instr_limit, max_cycles=config.max_cycles,
                      warmup_instrs=config.warmup_instrs)
