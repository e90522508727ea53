"""Multitasking OS model (paper, Section 5.1).

The processor exposes its hardware thread contexts as virtual CPUs; the
OS schedules that many workload threads per timeslice (1M cycles in the
paper, scaled here).  At timeslice expiry the running threads are
replaced; to improve fairness and remove bias, replacements are drawn at
random - preferring threads that were not just running - exactly as the
paper describes.  Execution stops when any thread completes the per-run
instruction quota.

The scheduler drives the core through the engine protocol only
(``core.run(budget, instr_limit) -> "limit" | "timeslice"``): every
piece of state it touches between slices — thread contexts, counters,
caches, stats — is shared by all engines, so timeslicing works
identically whether the core runs the reference or the fast engine.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

__all__ = ["Multitasker", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one multiprogrammed run.

    ``engine_stats`` is the engine's acceleration-counter snapshot
    (:meth:`repro.sim.engine.EngineStats.as_dict`): the engine's name
    and, for the batch engine, its lockstep-group counters.  It is
    diagnostic metadata — never part of the bit-identity contract
    between engines — recorded so result stores can explain how a cell
    ran.
    """

    stats: object
    threads: list
    icache: object
    dcache: object
    engine_stats: dict | None = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def per_thread(self) -> dict:
        return {
            t.name: {
                "instrs": t.issued_instrs,
                "ops": t.issued_ops,
                "dcache_misses": t.dcache_misses,
                "icache_misses": t.icache_misses,
                "taken_branches": t.taken_branches,
            }
            for t in self.threads
        }


class Multitasker:
    """Timeslice scheduler binding software threads to a core."""

    def __init__(self, core, threads, timeslice: int = 20_000, seed: int = 0):
        if not threads:
            raise ValueError("workload must contain at least one thread")
        self.core = core
        self.threads = list(threads)
        self.timeslice = timeslice
        self.rng = random.Random(seed ^ 0x5EED)

    def _pick(self, running):
        """Random replacement, preferring threads not just running."""
        n = self.core.n_ports
        k = min(n, len(self.threads))
        not_running = [t for t in self.threads if t not in running]
        self.rng.shuffle(not_running)
        pick = not_running[:k]
        if len(pick) < k:
            rest = [t for t in self.threads if t not in pick]
            self.rng.shuffle(rest)
            pick += rest[: k - len(pick)]
        return pick

    def run(self, instr_limit: int, max_cycles: int | None = None,
            warmup_instrs: int = 0) -> RunResult:
        """Run until one thread issues ``instr_limit`` instructions.

        ``warmup_instrs`` executes first and is then discarded from every
        statistic (caches stay warm) - the scaled-down equivalent of the
        paper's 100M-instruction runs, where compulsory misses are noise.
        ``max_cycles`` is a safety net for tests; production runs rely on
        the instruction quota like the paper does.  It bounds the
        *measured* window only: warmup cycles are never charged against
        it, so ``warmup_instrs=1000, max_cycles=500`` measures exactly
        500 post-warmup cycles instead of silently measuring none.

        A :class:`RuntimeWarning` is issued when the warmup cycle budget
        runs out before ``warmup_instrs`` instructions issue (caches are
        then under-warmed) and when the measured window ends with zero
        issued operations (IPC would otherwise read 0.0 with no hint
        that nothing was measured).
        """
        core = self.core
        running = self.threads[: core.n_ports]
        core.set_contexts(running)
        if max_cycles is not None and max_cycles <= 0:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        if warmup_instrs > 0:
            reason = core.run(64 * warmup_instrs + 1024, warmup_instrs)
            if reason != "limit":
                warnings.warn(
                    f"warmup cycle budget exhausted before any thread "
                    f"issued {warmup_instrs} instructions; caches may be "
                    f"under-warmed",
                    RuntimeWarning, stacklevel=2)
            core.stats.reset()
            for t in self.threads:
                t.issued_instrs = 0
                t.issued_ops = 0
                t.dcache_misses = 0
                t.icache_misses = 0
                t.taken_branches = 0
            for c in (core.icache, core.dcache):
                c.hits = 0
                c.misses = 0
        # measurement-window origin: core.cycle keeps counting through
        # warmup (thread stall timestamps are absolute), so the window
        # is measured relative to this point, never against the total.
        start = core.cycle
        while True:
            budget = self.timeslice
            if max_cycles is not None:
                budget = min(budget, max_cycles - (core.cycle - start))
                if budget <= 0:
                    break
            reason = core.run(budget, instr_limit)
            if reason == "limit":
                break
            if max_cycles is not None and core.cycle - start >= max_cycles:
                break
            running = self._pick(running)
            core.set_contexts(running)
            core.stats.context_switches += 1
        if core.stats.ops == 0:
            warnings.warn(
                f"empty measurement window: {core.stats.cycles} cycles "
                f"measured after warmup and no operations issued "
                f"(IPC reads 0.0); raise max_cycles or lower "
                f"warmup_instrs",
                RuntimeWarning, stacklevel=2)
        engine = getattr(core, "engine", None)
        return RunResult(
            stats=core.stats,
            threads=self.threads,
            icache=core.icache,
            dcache=core.dcache,
            engine_stats=(engine.engine_stats().as_dict()
                          if engine is not None else None),
        )
