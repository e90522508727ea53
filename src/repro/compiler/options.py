"""Compiler configuration knobs.

These exist both for normal use and for the ablations in
``tests/test_paper_claims.py`` (e.g. BUG vs round-robin cluster
assignment, unrolling factor sweeps, speculation on/off).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CompilerOptions"]

_CLUSTER_POLICIES = ("bug", "roundrobin", "single")


@dataclass(frozen=True)
class CompilerOptions:
    """Options controlling the compilation pipeline.

    Attributes:
        unroll: per-loop-label unroll factors; overrides the kernel's own
            hints when non-empty.
        unroll_scale: multiplies every unroll factor (rounded, min 1);
            handy for ILP ablations without naming loops.
        iv_split: enable induction-variable splitting during unrolling
            (without it, unrolled iterations serialize on ``i += c``).
        speculate: allow hoisting safe ops above side-exit branches
            (superblock-style upward code motion).
        cluster_policy: ``bug`` (Bottom-Up Greedy, the paper's algorithm),
            ``roundrobin`` (spread ops blindly) or ``single`` (everything
            on cluster 0).
        dce: run dead-code elimination after unrolling.
        max_branches_per_instr: VLIW-wide branch limit per cycle.
    """

    unroll: dict = field(default_factory=dict)
    unroll_scale: float = 1.0
    iv_split: bool = True
    speculate: bool = True
    cluster_policy: str = "bug"
    dce: bool = True
    max_branches_per_instr: int = 1

    def __post_init__(self) -> None:
        if self.cluster_policy not in _CLUSTER_POLICIES:
            raise ValueError(
                f"cluster_policy must be one of {_CLUSTER_POLICIES}, "
                f"got {self.cluster_policy!r}"
            )
        if self.unroll_scale <= 0:
            raise ValueError("unroll_scale must be positive")
        if self.max_branches_per_instr < 1:
            raise ValueError("max_branches_per_instr must be >= 1")

    def factor_for(self, label: str, kernel_hint: int) -> int:
        """Effective unroll factor for loop ``label``."""
        base = self.unroll.get(label, kernel_hint)
        return max(1, round(base * self.unroll_scale))
