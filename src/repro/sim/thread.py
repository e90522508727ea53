"""Software thread state.

A :class:`ThreadState` is one benchmark instance in the multiprogrammed
workload: its instruction stream, progress counters and any in-flight
stall.  All of it survives context switches - the OS moves threads on and
off hardware contexts, but fetched-not-yet-issued instructions and
outstanding miss stalls belong to the thread.
"""

from __future__ import annotations

from repro.merge.packet import ExecPacket
from repro.trace.stream import InstructionStream

__all__ = ["ThreadState"]


class ThreadState:
    """One software thread of the workload."""

    __slots__ = (
        "name",
        "sw_id",
        "program",
        "stream",
        "pending",
        "packet",
        "stall_until",
        "issued_instrs",
        "issued_ops",
        "dcache_misses",
        "icache_misses",
        "taken_branches",
    )

    def __init__(self, program, sw_id: int, seed: int = 0, name: str | None = None):
        self.name = name or f"{program.name}#{sw_id}"
        self.sw_id = sw_id
        self.program = program
        self.stream = InstructionStream(program, sw_id, seed)
        #: fetched but not yet issued instruction, if any: a stream
        #: record ``(mop, taken, addrs, branch)`` (see repro.trace.stream)
        self.pending = None
        #: ExecPacket for the pending instruction, built on demand by the
        #: reference engine; None whenever the fast engine fetched it
        self.packet = None
        #: absolute core cycle until which this thread cannot issue
        self.stall_until = 0
        self.issued_instrs = 0
        self.issued_ops = 0
        self.dcache_misses = 0
        self.icache_misses = 0
        self.taken_branches = 0

    def fetch(self) -> None:
        """Pull the next instruction from the stream into ``pending``."""
        rec = next(self.stream)
        self.pending = rec
        # the packet is owned by the thread object, not a port index:
        # port positions rotate every cycle, thread identity does not.
        self.packet = ExecPacket.from_mop(rec[0], self)

    def ipc(self, cycles: int) -> float:
        return self.issued_ops / cycles if cycles else 0.0

    def __repr__(self) -> str:
        return (f"<ThreadState {self.name}: {self.issued_instrs} instrs, "
                f"{self.issued_ops} ops>")
