"""Per-cluster linear-scan register allocation.

Each cluster owns a private register file (``machine.regs_per_cluster``
registers).  Virtual registers live in exactly one cluster: normal values
in their defining op's cluster, ``xcopy`` shadows in the consumer cluster
(remote-write).  Liveness is computed function-wide (including the
implicit restart edge - kernels re-execute forever - so loop-carried and
parameter values stay live across the back edge), then one interval per
virtual register is allocated with a classic linear scan.

Physical registers are numbered globally: cluster ``c`` owns numbers
``[c * R, (c+1) * R)``, which makes the owning cluster recoverable from
the number alone.

Spilling is intentionally not implemented: the kernels fit comfortably in
64 registers per cluster, and a spill would perturb the schedule shape
this reproduction depends on.  Exhaustion raises :class:`RegPressureError`
with a per-cluster report instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = ["RegAllocation", "RegPressureError", "allocate_registers"]


class RegPressureError(RuntimeError):
    """Raised when a cluster's register file is exhausted."""


@dataclass
class RegAllocation:
    """Mapping from virtual register name to global physical number."""

    phys: dict
    max_pressure: dict


def _block_order(ops, schedule):
    """Op indices of a block in execution (cycle, slot) order."""
    return sorted(range(len(ops)), key=lambda i: (schedule.placement[i][0],
                                                  schedule.placement[i][1],
                                                  schedule.placement[i][2]))


def compute_liveness(blocks, successors, live_out_fn):
    """Backward may-liveness over scheduled blocks.

    Args:
        blocks: list of (ops, schedule) per block, layout order.
        successors: block index -> list of successor block indices
            (the caller includes the restart edge).
        live_out_fn: registers live at function end (folded into every
            block that reaches the restart edge; conservatively added to
            all blocks' live-out to model perpetual re-execution).

    Returns:
        (live_in, live_out): lists of sets per block.
    """
    n = len(blocks)
    use = [set() for _ in range(n)]
    defs = [set() for _ in range(n)]
    for b, (ops, schedule) in enumerate(blocks):
        order = _block_order(ops, schedule)
        seen_def = set()
        for i in order:
            op = ops[i]
            for s in op.reg_srcs():
                if s not in seen_def:
                    use[b].add(s)
            if op.dest is not None:
                seen_def.add(op.dest)
                defs[b].add(op.dest)
    live_in = [set() for _ in range(n)]
    live_out = [set(live_out_fn) for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for b in range(n - 1, -1, -1):
            lo = set(live_out_fn)
            for s in successors[b]:
                lo |= live_in[s]
            li = use[b] | (lo - defs[b])
            if lo != live_out[b] or li != live_in[b]:
                live_out[b] = lo
                live_in[b] = li
                changed = True
    return live_in, live_out


def allocate_registers(blocks, successors, reg_cluster, machine,
                       live_out_fn=frozenset()) -> RegAllocation:
    """Allocate physical registers for all virtual registers.

    Args:
        blocks: list of (ops, schedule) in layout order.
        successors: CFG successor map (with restart edge).
        reg_cluster: virtual register -> owning cluster.
        machine: target machine (register file size).
        live_out_fn: function-level live-out registers.
    """
    live_in, live_out = compute_liveness(blocks, successors, live_out_fn)

    start: dict[str, int] = {}
    end: dict[str, int] = {}

    def touch(reg: str, point: int) -> None:
        if reg not in start or point < start[reg]:
            start[reg] = point
        if reg not in end or point > end[reg]:
            end[reg] = point

    base = 0
    for b, (ops, schedule) in enumerate(blocks):
        order = _block_order(ops, schedule)
        length = max(1, len(order))
        for r in live_in[b]:
            touch(r, base)
        for r in live_out[b]:
            touch(r, base + length - 1)
        for pos, i in enumerate(order):
            op = ops[i]
            for s in op.reg_srcs():
                touch(s, base + pos)
            if op.dest is not None:
                touch(op.dest, base + pos)
        base += length

    intervals = sorted(
        ((start[r], end[r], r) for r in start), key=lambda t: (t[0], t[1], t[2])
    )
    nregs = machine.regs_per_cluster
    free = {c: list(range(nregs)) for c in range(machine.n_clusters)}
    for c in free:
        heapq.heapify(free[c])
    active: list[tuple[int, int, str]] = []  # (end, phys_local, reg)
    phys: dict[str, int] = {}
    pressure = {c: 0 for c in range(machine.n_clusters)}
    peak = {c: 0 for c in range(machine.n_clusters)}

    for s, e, r in intervals:
        while active and active[0][0] < s:
            _, freed, rr = heapq.heappop(active)
            c = reg_cluster[rr]
            heapq.heappush(free[c], freed)
            pressure[c] -= 1
        c = reg_cluster.get(r)
        if c is None:
            raise KeyError(f"virtual register {r!r} has no owning cluster")
        if not free[c]:
            raise RegPressureError(
                f"cluster {c} out of registers at interval {r!r} "
                f"(file size {nregs}); peak pressure {peak}"
            )
        local = heapq.heappop(free[c])
        phys[r] = c * nregs + local
        pressure[c] += 1
        peak[c] = max(peak[c], pressure[c])
        heapq.heappush(active, (e, local, r))

    return RegAllocation(phys=phys, max_pressure=peak)
