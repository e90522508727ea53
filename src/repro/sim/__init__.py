"""Cycle-level multithreaded clustered-VLIW simulator."""

from repro.sim.batch import BatchEngine, run_workloads_batch
from repro.sim.cache import Cache, CacheConfig, PerfectCache, make_cache
from repro.sim.config import SimConfig, run_workload
from repro.sim.core import MTCore
from repro.sim.engine import (
    ENGINES,
    Engine,
    EngineStats,
    FastEngine,
    ReferenceEngine,
    make_engine,
)
from repro.sim.os_sched import Multitasker, RunResult
from repro.sim.stats import SimStats
from repro.sim.thread import ThreadState

__all__ = [
    "BatchEngine",
    "Cache",
    "CacheConfig",
    "ENGINES",
    "Engine",
    "EngineStats",
    "FastEngine",
    "MTCore",
    "Multitasker",
    "PerfectCache",
    "ReferenceEngine",
    "RunResult",
    "SimConfig",
    "SimStats",
    "ThreadState",
    "make_cache",
    "make_engine",
    "run_workload",
]
