"""Trace-generation tests: determinism, control flow, addresses."""

from collections import Counter

from repro.arch import paper_machine
from repro.compiler import compile_kernel
from repro.ir import KernelBuilder
from repro.trace import InstructionStream
from repro.trace.addrgen import make_generator
from repro.ir.patterns import AccessPattern
import random

MACHINE = paper_machine()


def _take(stream, n):
    return [next(stream) for _ in range(n)]


def _mini_loop(trip=4, prob=0.0):
    b = KernelBuilder("mini")
    b.pattern("d", "stream", 1024, stride=4)
    b.param("i")
    b.live_out("i")
    b.block("loop")
    v = b.ld(None, "i", "d")
    if prob:
        c0 = b.cmp(None, v, 0)
        b.br_if(c0, "rare", prob=prob)
    b.add("i", "i", 4)
    c = b.cmp(None, "i", 4 * trip)
    b.br_loop(c, "loop", trip=trip)
    b.block("rare") if prob else None
    if prob:
        b.add("i", "i", 8)
        b.goto("loop")
    return compile_kernel(b.build(), MACHINE)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        prog = _mini_loop(prob=0.3)
        a = _take(InstructionStream(prog, 0, seed=7), 200)
        b = _take(InstructionStream(prog, 0, seed=7), 200)
        assert [(mop.address, taken, addrs) for mop, taken, addrs, _ in a] == \
            [(mop.address, taken, addrs) for mop, taken, addrs, _ in b]

    def test_different_seed_different_branches(self):
        prog = _mini_loop(prob=0.5)
        a = _take(InstructionStream(prog, 0, seed=1), 300)
        b = _take(InstructionStream(prog, 0, seed=2), 300)
        assert [f[1] for f in a] != [f[1] for f in b]


class TestControlFlow:
    def test_loop_executes_trip_times_per_round(self):
        prog = _mini_loop(trip=4)
        blk = prog.blocks[0]
        per_round = len(blk.mops) * 4
        fetches = _take(InstructionStream(prog, 0, seed=0), per_round * 3)
        term = [f for f in fetches if f[3] and f[3].is_terminator]
        takens = [taken for _, taken, _, _ in term]
        # pattern: taken,taken,taken,not - repeated
        assert takens[:8] == [True, True, True, False] * 2

    def test_restart_after_falloff(self):
        prog = _mini_loop(trip=2)
        stream = InstructionStream(prog, 0, seed=0)
        first = next(stream)[0].address
        seen = [next(stream)[0].address for _ in range(100)]
        assert first in seen  # wrapped back to the entry

    def test_bernoulli_rate_matches_probability(self):
        prog = _mini_loop(prob=0.4)
        fetches = _take(InstructionStream(prog, 0, seed=3), 6000)
        side = [(taken, br) for _, taken, _, br in fetches
                if br is not None and not br.is_terminator
                and br.behavior.kind == "bernoulli"
                and br.behavior.prob < 1.0]
        rate = sum(taken for taken, _ in side) / len(side)
        assert 0.3 < rate < 0.5

    def test_side_exit_skips_block_tail(self):
        prog = _mini_loop(prob=1.0)  # always exits
        stream = InstructionStream(prog, 0, seed=0)
        fetches = _take(stream, 50)
        # after a taken side exit, next fetch is the rare block's address
        rare_base = prog.blocks[1].mops[0].address
        for i, (_, taken, _, br) in enumerate(fetches[:-1]):
            if taken and br and not br.is_terminator:
                assert fetches[i + 1][0].address == rare_base
                break
        else:
            raise AssertionError("no side exit observed")


class TestAddresses:
    def test_stream_addresses_stride_and_wrap(self):
        pat = AccessPattern("s", "stream", footprint=16, stride=4)
        g = make_generator(pat, 0, 0, random.Random(0))
        offs = [g.next_address() for _ in range(6)]
        assert [o - offs[0] for o in offs[:4]] == [0, 4, 8, 12]
        assert offs[4] == offs[0]  # wrapped

    def test_random_addresses_within_footprint_aligned(self):
        pat = AccessPattern("r", "rand", footprint=256, align=8)
        g = make_generator(pat, 0, 0, random.Random(0))
        for _ in range(100):
            a = g.next_address()
            assert a % 8 == 0
            assert 0 <= a - g.base < 256

    def test_thread_spaces_disjoint(self):
        pat = AccessPattern("r", "rand", footprint=1 << 20, align=4)
        g0 = make_generator(pat, 0, 0, random.Random(0))
        g1 = make_generator(pat, 1, 0, random.Random(0))
        a0 = {g0.next_address() >> 32 for _ in range(10)}
        a1 = {g1.next_address() >> 32 for _ in range(10)}
        assert a0.isdisjoint(a1)

    def test_pattern_regions_disjoint_within_thread(self):
        p0 = AccessPattern("a", "rand", footprint=1 << 20, align=4)
        p1 = AccessPattern("b", "rand", footprint=1 << 20, align=4)
        g0 = make_generator(p0, 0, 0, random.Random(0))
        g1 = make_generator(p1, 0, 1, random.Random(0))
        r0 = {g0.next_address() >> 24 for _ in range(10)}
        r1 = {g1.next_address() >> 24 for _ in range(10)}
        assert r0.isdisjoint(r1)

    def test_fetch_addr_count_matches_mem_ops(self):
        prog = _mini_loop()
        for mop, _, addrs, _ in _take(InstructionStream(prog, 0, seed=0), 60):
            assert len(addrs) == len(mop.mem_ops)


class TestFetchDistribution:
    def test_every_static_instr_fetched(self):
        prog = _mini_loop(trip=4)
        static = {m.address for b in prog.blocks for m in b.mops}
        fetched = {f[0].address for f in
                   _take(InstructionStream(prog, 0, seed=0), 400)}
        assert static <= fetched

    def test_fetch_counts_weighted_by_loop(self):
        prog = _mini_loop(trip=4)
        fetches = _take(InstructionStream(prog, 0, seed=0), 400)
        counts = Counter(f[0].address for f in fetches)
        most = counts.most_common()
        # loop-body instructions dominate the fetch stream
        assert most[0][1] > 10


class TestMaterialize:
    """The bulk walk behind materialize() must produce the identical
    record sequence to the per-record generator walk."""

    def _fields(self, recs):
        return [(mop.address, taken, addrs, None if br is None else id(br))
                for mop, taken, addrs, br in recs]

    def test_bulk_equals_lazy_walk(self):
        prog = _mini_loop(trip=4, prob=0.3)
        lazy = InstructionStream(prog, 0, seed=11)
        bulk = InstructionStream(prog, 0, seed=11)
        a = self._fields(_take(lazy, 500))
        bulk.materialize(500)
        b = self._fields(_take(bulk, 500))
        assert a == b

    def test_mixed_batch_sizes_equal_lazy_walk(self):
        prog = _mini_loop(trip=3, prob=0.5)
        lazy = InstructionStream(prog, 2, seed=5)
        bulk = InstructionStream(prog, 2, seed=5)
        expect = self._fields(_take(lazy, 341))
        got = []
        for n in (1, 2, 7, 64, 3, 200, 64):
            bulk.materialize(n)
            assert bulk.buffered >= n
            got.extend(self._fields([next(bulk) for _ in range(n)]))
        assert got == expect[:len(got)]

    def test_buffered_counts_down_as_consumed(self):
        prog = _mini_loop()
        s = InstructionStream(prog, 0, seed=0)
        assert s.buffered == 0
        s.materialize(10)
        # the batch walk stops at a basic-block boundary, so at least
        # the requested count is buffered (possibly a few more).
        n = s.buffered
        assert n >= 10
        next(s)
        assert s.buffered == n - 1

    def test_materialize_after_lazy_consumption(self):
        """A stream already walked by next() keeps its position when a
        batch is requested afterwards."""
        prog = _mini_loop(trip=4, prob=0.2)
        ref = InstructionStream(prog, 1, seed=9)
        mixed = InstructionStream(prog, 1, seed=9)
        expect = self._fields(_take(ref, 120))
        got = self._fields(_take(mixed, 40))
        mixed.materialize(50)
        got += self._fields(_take(mixed, 80))
        assert got == expect

    def test_memory_free_records_are_reused(self):
        """Bulk mode shares immutable records for memory-free mops."""
        b = KernelBuilder("pure")
        b.param("i")
        b.live_out("i")
        b.block("loop")
        b.add("i", "i", 1)
        b.add(None, "i", 2)
        c = b.cmp(None, "i", 8)
        b.br_loop(c, "loop", trip=8)
        prog = compile_kernel(b.build(), MACHINE)
        s = InstructionStream(prog, 0, seed=0)
        s.materialize(100)
        recs = [next(s) for _ in range(100)]
        no_mem = [r for r in recs if not r[2] and r[3] is None]
        assert no_mem and len({id(r) for r in no_mem}) < len(no_mem)
