"""Kernel specifications: the reproduction's stand-ins for Table 1.

Each paper benchmark is re-authored as an IR kernel that preserves the
properties the merging experiments are sensitive to:

* dependence-chain depth and operation mix (sets achievable ILP, and via
  BUG, how many clusters each instruction touches);
* unrollability (high-ILP media kernels unroll; control-bound ones don't);
* working-set size and access patterns (sets the real-vs-perfect cache
  gap of Table 1's IPCr vs IPCp);
* branch behaviour (taken-branch penalties bound low-ILP IPC).

``paper_ipcr``/``paper_ipcp`` record the published Table 1 values so
EXPERIMENTS.md can print paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.options import CompilerOptions

__all__ = ["KernelSpec", "compile_spec"]


@dataclass(frozen=True)
class KernelSpec:
    """One Table 1 benchmark."""

    name: str
    ilp_class: str  # 'L', 'M' or 'H'
    description: str
    paper_ipcr: float
    paper_ipcp: float
    build: object  # () -> IRFunction
    unroll: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ilp_class not in ("L", "M", "H"):
            raise ValueError(f"{self.name}: ilp_class must be L/M/H")


def compile_spec(spec: KernelSpec, machine, options: CompilerOptions | None = None):
    """Compile a kernel spec (memoized per machine + options identity).

    Routes through the process-wide in-memory
    :class:`~repro.kernels.cache.ProgramCache`.
    """
    from repro.kernels.cache import get_default_cache

    return get_default_cache().get(spec, machine, options)
