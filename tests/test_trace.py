"""Trace-generation tests: determinism, control flow, addresses."""

import gc
import weakref
from collections import Counter
from itertools import cycle, islice

import pytest

from repro.arch import paper_machine
from repro.compiler import compile_kernel
from repro.ir import KernelBuilder
from repro.kernels import SUITE, compile_spec
from repro.trace import InstructionStream
from repro.trace import stream as stream_mod
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


def _bulk_take(stream, n, batch):
    """Consume ``n`` records the way the fast engine does: index the
    materialized list from the stream's cursor, refill when it runs
    out."""
    out = []
    buf = stream._buf
    pos = stream._pos
    while len(out) < n:
        if pos >= len(buf):
            stream._pos = pos
            buf = stream.materialize(batch)
            pos = stream._pos
        out.append(buf[pos])
        pos += 1
    stream._pos = pos
    return out


class TestSharedWalk:
    """Bulk streams of one ``(program, thread_id, seed)`` read one shared
    walk; each must still see exactly a fresh lazy walk of its key."""

    def setup_method(self):
        stream_mod.release_walks()

    def teardown_method(self):
        stream_mod.release_walks()

    _fields = TestMaterialize._fields

    def _expect(self, prog, n, thread_id=0, seed=4):
        return self._fields(_take(InstructionStream(prog, thread_id, seed), n))

    def test_interleaved_uneven_consumers_share_one_walk(self):
        prog = _mini_loop(trip=3, prob=0.4)
        expect = self._expect(prog, 3100)
        a = InstructionStream(prog, 0, seed=4)
        b = InstructionStream(prog, 0, seed=4)
        got_a, got_b = [], []
        while len(got_b) < 3000:
            got_a += _bulk_take(a, 3, 5)
            got_b += _bulk_take(b, 11, 64)
        assert a._walk is b._walk
        assert self._fields(got_a) == expect[:len(got_a)]
        assert self._fields(got_b) == expect[:len(got_b)]

    def test_late_stream_reads_from_record_zero(self):
        prog = _mini_loop(trip=4, prob=0.3)
        expect = self._expect(prog, 2000)
        early = InstructionStream(prog, 0, seed=4)
        got_early = _bulk_take(early, 1500, 512)
        late = InstructionStream(prog, 0, seed=4)
        got_late = _bulk_take(late, 300, 7)
        got_early += _bulk_take(early, 500, 512)
        assert late._walk is early._walk
        assert self._fields(got_late) == expect[:300]
        assert self._fields(got_early) == expect

    def test_release_and_eviction_mid_consumption(self):
        prog = _mini_loop(trip=4, prob=0.3)
        expect = self._expect(prog, 1200)
        first = InstructionStream(prog, 0, seed=4)
        got_first = _bulk_take(first, 100, 64)
        stream_mod.release_walks()
        second = InstructionStream(prog, 0, seed=4)
        got_second = _bulk_take(second, 50, 64)
        assert second._walk is not first._walk
        # other keys push this one out of the memo
        for tid in range(1, stream_mod._MEMO_WALKS + 1):
            _bulk_take(InstructionStream(prog, tid, seed=4), 10, 64)
        assert all(w is not second._walk for w in stream_mod._WALKS.values())
        third = InstructionStream(prog, 0, seed=4)
        got_third = _bulk_take(third, 400, 64)
        assert third._walk is not second._walk
        got_first += _bulk_take(first, 1100, 64)
        got_second += _bulk_take(second, 1150, 64)
        for got in (got_first, got_second, got_third):
            assert self._fields(got) == expect[:len(got)]

    def test_fork_continues_the_walk_from_any_block(self):
        prog = _mini_loop(trip=3, prob=0.4)
        for n in range(1, 40):
            walk = stream_mod._Walk.start(prog, 0, 4)
            walk.fill(n)
            at = len(walk.records)
            twin = walk.fork()
            walk.fill(200)
            twin.fill(200)
            assert twin.records[:200] == walk.records[at:at + 200]

    def test_stream_past_the_cap_continues_on_a_private_walk(self):
        prog = _mini_loop(trip=3, prob=0.4)
        cap, batch = stream_mod.SHARE_CAP, 512
        total = cap + 5 * batch
        expect = self._expect(prog, total)
        lead = InstructionStream(prog, 0, seed=4)
        trail = InstructionStream(prog, 0, seed=4)
        got_lead = _bulk_take(lead, batch, batch)
        got_trail = _bulk_take(trail, batch, batch)
        shared = lead._walk
        assert trail._walk is shared
        while len(got_lead) < total:
            got_lead += _bulk_take(lead, batch, batch)
            got_trail += _bulk_take(trail, batch // 2, batch)
            assert len(lead._buf) <= cap + batch
        got_trail += _bulk_take(trail, total - len(got_trail), batch)
        ahead = InstructionStream(prog, 0, seed=4)
        got_ahead = []
        while len(got_ahead) < total - batch:  # refill before running out
            ahead.materialize(batch)
            got_ahead += [next(ahead) for _ in range(batch // 3)]
        assert not ahead._shared
        assert self._fields(got_ahead) == expect[:len(got_ahead)]
        assert not lead._shared and not trail._shared
        assert lead._walk is not trail._walk
        assert len(trail._buf) <= cap + batch
        assert len(shared.records) <= cap + batch
        assert self._fields(got_lead) == expect
        assert self._fields(got_trail) == expect


class TestSuiteWalks:
    """The table-driven bulk walk equals the lazy reference walk on every
    Table 1 kernel: every address-pattern kind, loop and Bernoulli
    branches, and unconditional (``prob == 1.0``) jumps."""

    _fields = TestMaterialize._fields
    BATCHES = (1, 7, 64, 512, 3, 100, 2048)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("thread_id", [0, 3])
    @pytest.mark.parametrize("spec", SUITE, ids=lambda s: s.name)
    def test_fill_in_uneven_batches_equals_lazy(self, spec, thread_id,
                                                 seed):
        prog = compile_spec(spec, MACHINE)
        n = 20_000
        expect = self._fields(islice(
            stream_mod._Walk.start(prog, thread_id, seed).lazy(), n))
        walk = stream_mod._Walk.start(prog, thread_id, seed)
        batches = cycle(self.BATCHES)
        while len(walk.records) < n:
            walk.fill(next(batches))
        assert self._fields(walk.records[:n]) == expect

    @pytest.mark.parametrize("spec", SUITE, ids=lambda s: s.name)
    def test_fork_at_block_boundaries_continues_the_walk(self, spec):
        prog = compile_spec(spec, MACHINE)
        expect = self._fields(islice(
            stream_mod._Walk.start(prog, 1, 5).lazy(), 6_000))
        walk = stream_mod._Walk.start(prog, 1, 5)
        for n in (1, 5, 13, 200, 1_000, 3_000):
            walk.fill(n)
            at = len(walk.records)
            twin = walk.fork()
            twin.fill(500)
            assert self._fields(twin.records[:500]) == expect[at:at + 500]
        assert self._fields(walk.records) == expect[:len(walk.records)]


def test_released_walks_keep_no_program_alive():
    stream_mod.release_walks()
    prog = _mini_loop(trip=4, prob=0.3)  # compile_kernel: no program cache
    ref = weakref.ref(prog)
    s = InstructionStream(prog, 0, seed=1)
    s.materialize(300)
    del s, prog
    stream_mod.release_walks()
    gc.collect()
    assert ref() is None
