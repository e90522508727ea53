"""Cycle-driven list scheduling onto the clustered VLIW.

Classic list scheduling with critical-path priority.  Resources are
modelled exactly as the merge hardware later sees them: per cluster and
cycle, at most ``issue_width`` operations, 1 memory op, 2 multiplies, 1
branch (the paper's fixed-slot model), plus a machine-wide limit of one
branch per long instruction.

The block terminator is pinned to the last cycle: in a VLIW there is no
"after the branch" inside a block, so the terminator issues only once
every other operation has been placed.  Side-exit branches float freely
subject to their DDG edges (which already pin unsafe code motion).

Slot numbers are assigned after each cycle closes: memory ops take the
memory slots, branches the branch slot, multiplies the multiply slots,
and ALU/copy ops fill what remains.  Count-feasibility guarantees this
routing always succeeds (each restricted class owns dedicated slots).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.compiler.ddg import DDG
from repro.ir.nodes import IROp
from repro.isa.operation import OpClass

__all__ = ["Schedule", "list_schedule", "validate_schedule", "ScheduleError"]


class ScheduleError(RuntimeError):
    """Raised when the scheduler cannot make progress (internal error)."""


@dataclass
class Schedule:
    """Result of scheduling one block.

    Attributes:
        n_cycles: block length in cycles (VLIW instructions incl. NOPs).
        placement: per op index, ``(cycle, cluster, slot)``.
        rows: per cycle, list of op indices issued that cycle.
    """

    n_cycles: int
    placement: list
    rows: list


def list_schedule(ops: list[IROp], clusters: list[int], ddg: DDG, machine,
                  max_branches_per_instr: int = 1) -> Schedule:
    """Schedule ``ops`` (pre-assigned to ``clusters``) respecting ``ddg``."""
    n = len(ops)
    if n == 0:
        return Schedule(1, [], [[]])

    lat = [machine.latency_of(op.opcode.op_class) for op in ops]
    heights = ddg.heights(lambda i: lat[i])
    caps = machine.caps
    n_clusters = machine.n_clusters

    term_idx = n - 1 if ops[-1].is_branch and ops[-1].behavior is not None else -1
    # a terminator mid-block is impossible by IR construction; the last op
    # is the terminator iff it is a branch.

    indeg = [len(p) for p in ddg.pred_edges]
    earliest = [0] * n
    #: ops whose predecessors are all scheduled, keyed by earliest cycle
    pending: list[tuple[int, int, int]] = []  # (earliest, -height, idx)
    for i in range(n):
        if indeg[i] == 0:
            heapq.heappush(pending, (0, -heights[i], i))

    placement: list = [None] * n
    rows: list[list[int]] = []
    scheduled = 0
    cycle = 0
    guard = 0

    while scheduled < n:
        guard += 1
        if guard > 16 * n + 64:
            raise ScheduleError("scheduler failed to converge")
        # per-cluster resource counters for this cycle: [ops, mem, mul, br]
        res = [[0, 0, 0, 0] for _ in range(n_clusters)]
        brs = 0
        row: list[int] = []
        deferred: list[tuple[int, int, int]] = []
        while pending and pending[0][0] <= cycle:
            e, nh, i = heapq.heappop(pending)
            op = ops[i]
            if i == term_idx and scheduled + len(row) < n - 1:
                deferred.append((cycle + 1, nh, i))
                continue
            c = clusters[i]
            klass = op.opcode.op_class
            r = res[c]
            need_br = klass is OpClass.BR
            ok = r[0] < caps[0]
            if ok and klass is OpClass.MEM:
                ok = r[1] < caps[1]
            elif ok and klass is OpClass.MUL:
                ok = r[2] < caps[2]
            elif ok and need_br:
                ok = r[3] < caps[3] and brs < max_branches_per_instr
            if not ok:
                deferred.append((cycle + 1, nh, i))
                continue
            r[0] += 1
            if klass is OpClass.MEM:
                r[1] += 1
            elif klass is OpClass.MUL:
                r[2] += 1
            elif need_br:
                r[3] += 1
                brs += 1
            placement[i] = (cycle, c, -1)
            row.append(i)
            scheduled += 1
            for j, edge_lat in ddg.succ_edges[i]:
                t = cycle + edge_lat
                if t > earliest[j]:
                    earliest[j] = t
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(pending, (earliest[j], -heights[j], j))
        for item in deferred:
            heapq.heappush(pending, item)
        rows.append(row)
        cycle += 1

    _assign_slots(ops, clusters, placement, rows, machine)
    return Schedule(len(rows), placement, rows)


def _assign_slots(ops, clusters, placement, rows, machine) -> None:
    """Route each cycle's ops to concrete issue slots (in-place)."""
    spec = machine.cluster
    for cycle, row in enumerate(rows):
        taken: dict[tuple[int, int], bool] = {}
        # restricted classes first so ALU ops cannot squat their slots
        order = sorted(
            row,
            key=lambda i: 0 if ops[i].opcode.op_class in
            (OpClass.MEM, OpClass.BR, OpClass.MUL) else 1,
        )
        for i in order:
            c = clusters[i]
            klass = ops[i].opcode.op_class
            slot = None
            for s in spec.slots_for(klass):
                if not taken.get((c, s)):
                    slot = s
                    break
            if slot is None:
                # ALU fallback: any free slot (slots_for(ALU) is all slots,
                # so this can only mean a bookkeeping bug)
                raise ScheduleError(
                    f"no free slot for op {i} ({ops[i]}) cluster {c} cycle {cycle}"
                )
            taken[(c, slot)] = True
            placement[i] = (cycle, c, slot)


def validate_schedule(ops, ddg: DDG, schedule: Schedule) -> None:
    """Independent check that a schedule respects every DDG edge.

    Used by tests and by the pipeline's paranoia mode; raises
    :class:`ScheduleError` on any violated latency constraint.
    """
    for a in range(ddg.n):
        ca = schedule.placement[a][0]
        for b, lat in ddg.succ_edges[a]:
            cb = schedule.placement[b][0]
            if cb < ca + lat:
                raise ScheduleError(
                    f"dependence violated: op {a} ({ops[a]}) @cycle {ca} -> "
                    f"op {b} ({ops[b]}) @cycle {cb}, latency {lat}"
                )
    if ops and ops[-1].is_branch:
        term_cycle = schedule.placement[len(ops) - 1][0]
        for i in range(len(ops) - 1):
            if schedule.placement[i][0] > term_cycle:
                raise ScheduleError(
                    f"op {i} ({ops[i]}) scheduled after the terminator"
                )
