"""VLIW instructions (MultiOps) and packed resource-usage vectors.

A :class:`MultiOp` is one long instruction of a single thread: a set of
operations, each bound to a ``(cluster, slot)``.  For merging, the only
information the hardware inspects is

* the **cluster-usage bitmask** (bit ``c`` set iff any op uses cluster
  ``c``) - this is all CSMT looks at; and
* the **per-cluster resource counts** ``(ops, mem, mul, br)`` - what SMT's
  operation-level conflict check looks at.

Counts are additionally packed into a single integer, one byte per
``(cluster, field)`` pair, so the simulator's inner loop can test the SMT
merge condition with two integer operations (a SWAR add + compare) instead
of a Python loop; see :func:`packed_fits`.
"""

from __future__ import annotations

from repro.isa.operation import OpClass, Operation

__all__ = [
    "FIELDS_PER_CLUSTER",
    "MultiOp",
    "high_mask",
    "pack_caps",
    "packed_fits",
]

#: byte fields per cluster in the packed usage vector: ops, mem, mul, br.
FIELDS_PER_CLUSTER = 4

#: index of each field within a cluster's byte group.
_F_OPS, _F_MEM, _F_MUL, _F_BR = range(FIELDS_PER_CLUSTER)


def high_mask(n_clusters: int) -> int:
    """0x80 replicated over every usage byte of an ``n_clusters`` machine."""
    n_bytes = n_clusters * FIELDS_PER_CLUSTER
    mask = 0
    for i in range(n_bytes):
        mask |= 0x80 << (8 * i)
    return mask


def pack_caps(caps: tuple[int, int, int, int], n_clusters: int) -> int:
    """Pack per-cluster caps ``(ops, mem, mul, br)`` for every cluster."""
    word = 0
    for c in range(n_clusters):
        for f, v in enumerate(caps):
            word |= v << (8 * (c * FIELDS_PER_CLUSTER + f))
    return word


def packed_fits(usage: int, caps_high: int, high: int) -> bool:
    """True iff every usage byte is <= the corresponding caps byte.

    ``caps_high`` must be ``pack_caps(...) | high``.  With all bytes below
    0x80 the per-byte test ``0x80 + cap - use`` keeps bit 7 set iff
    ``use <= cap`` and never borrows across byte boundaries, so a single
    subtraction checks all clusters and resource classes at once.
    """
    return (caps_high - usage) & high == high


class MultiOp:
    """A single thread's VLIW instruction with precomputed merge metadata.

    Attributes:
        ops: the scheduled operations (no NOPs are stored).
        mask: cluster-usage bitmask.
        packed: SWAR-packed per-cluster ``(ops, mem, mul, br)`` counts.
        counts: unpacked counts, ``counts[c] = (ops, mem, mul, br)``.
        n_ops: number of real operations (IPC numerator contribution).
        mem_ops: memory operations, in op order.
        branch: the branch operation, if any.
        address: static byte address (assigned at program layout;
            -1 = unset).
        size: encoded size in bytes (4 bytes per syllable, min 4).
    """

    __slots__ = (
        "ops",
        "mask",
        "packed",
        "counts",
        "n_ops",
        "mem_ops",
        "mem_is_load",
        "branch",
        "address",
        "size",
    )

    def __init__(self, ops: tuple[Operation, ...], n_clusters: int):
        counts = [[0, 0, 0, 0] for _ in range(n_clusters)]
        mem_ops: list[Operation] = []
        branch: Operation | None = None
        for op in ops:
            if not 0 <= op.cluster < n_clusters:
                raise ValueError(f"op {op} uses cluster outside machine")
            cc = counts[op.cluster]
            cc[_F_OPS] += 1
            klass = op.op_class
            if klass is OpClass.MEM:
                cc[_F_MEM] += 1
                mem_ops.append(op)
            elif klass is OpClass.MUL:
                cc[_F_MUL] += 1
            elif klass is OpClass.BR:
                cc[_F_BR] += 1
                if branch is not None:
                    raise ValueError("a MultiOp may contain at most one branch")
                branch = op
        packed = 0
        mask = 0
        for c, cc in enumerate(counts):
            if cc[_F_OPS]:
                mask |= 1 << c
            for f in range(FIELDS_PER_CLUSTER):
                packed |= cc[f] << (8 * (c * FIELDS_PER_CLUSTER + f))
        self.ops = ops
        self.mask = mask
        self.packed = packed
        self.counts = tuple(tuple(cc) for cc in counts)
        self.n_ops = len(ops)
        self.mem_ops = tuple(mem_ops)
        self.mem_is_load = tuple(op.opcode.is_load for op in mem_ops)
        self.branch = branch
        self.address = -1
        self.size = max(4, 4 * len(ops))

    def validate(self, machine) -> None:
        """Raise ValueError unless this instruction is legal on ``machine``.

        Checks slot bounds, slot-class compatibility, one op per
        ``(cluster, slot)`` and the per-cluster resource caps.
        """
        width = machine.cluster.issue_width
        seen: set[tuple[int, int]] = set()
        for op in self.ops:
            if not 0 <= op.slot < width:
                raise ValueError(f"{op}: slot out of range")
            legal = machine.cluster.slots_for(op.op_class)
            if op.slot not in legal:
                raise ValueError(f"{op}: class {op.op_class.name} cannot use slot {op.slot}")
            key = (op.cluster, op.slot)
            if key in seen:
                raise ValueError(f"{op}: duplicate issue slot {key}")
            seen.add(key)
        caps = machine.caps
        for c, cc in enumerate(self.counts):
            for f, cap in enumerate(caps):
                if cc[f] > cap:
                    raise ValueError(
                        f"cluster {c}: field {f} count {cc[f]} exceeds cap {cap}"
                    )

    def clusters_used(self) -> tuple[int, ...]:
        """Indices of clusters with at least one operation."""
        return tuple(c for c in range(len(self.counts)) if self.mask >> c & 1)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        names = "; ".join(str(o) for o in self.ops) or "nop"
        return f"<MultiOp @{self.address:#x} [{names}]>"
