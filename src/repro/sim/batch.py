"""Kept only because ``perfbench/rep.py:232-249`` and
``perfbench/spans.py:121,157,159`` import it; no ``repro`` module does.

``--engine batch`` runs every cell on :class:`~repro.sim.engine.BatchEngine`.
"""

from repro.sim.config import run_workload


def run_workloads_batch(tasks, config=None):
    """One :class:`~repro.sim.os_sched.RunResult` per ``(programs,
    scheme_name)`` task, each bit-identical to :func:`run_workload`."""
    return [run_workload(programs, scheme, config)
            for programs, scheme in tasks]
