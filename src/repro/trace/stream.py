"""Dynamic instruction streams.

A stream walks a compiled :class:`~repro.compiler.program.VLIWProgram`'s
control flow forever (kernels restart when they fall off the end, exactly
like the paper's benchmarks running 100M instructions) and yields one
fetch record per VLIW instruction.  A record is a plain tuple
``(mop, taken, addrs, branch)``:

* ``mop`` — the static :class:`~repro.isa.instruction.MultiOp`;
* ``taken`` — this execution's branch outcome (``False`` without a
  branch);
* ``addrs`` — this execution's memory addresses, one per memory
  operation in ``mop.mem_ops`` order (``()`` for memory-free words);
* ``branch`` — the contained branch's ``BranchInfo``, or ``None``.

Records are immutable and may be shared: the bulk walk prebuilds the
memory-free records once per walk and reuses them for every execution.
Hot loops unpack them (``mop, taken, addrs, _ = rec``) or index them
(``rec[0]``).

Branch outcomes:

* ``loop`` branches count executions modulo their trip count - taken
  ``trip-1`` times, then not taken - which is entry-point agnostic and
  therefore correct for loops re-entered from outer loops;
* ``bernoulli`` branches sample their taken probability from the
  thread-private seeded RNG (deterministic per seed).

The record sequence is a pure function of ``(program, thread_id,
seed)``: the walk's state (RNG, address generators, loop counters, next
block) lives in a :class:`_Walk` that nothing outside the stream
reaches.  Two consumption modes produce the identical sequence (locked
together by ``tests/test_trace.py``):

* ``next(stream)`` walks the control flow with a plain generator, one
  record per resume — the reference engine's per-fetch path.  The
  stream owns a private walk.
* :meth:`InstructionStream.materialize` batch-generates records into a
  list the fast and batch engines index directly from the stream's
  cursor ``_pos``.  The batch walk (:meth:`_Walk.fill`) interprets a
  step table each walk builds over its own address generators: per
  basic block, one step per word, holding the generators the word
  draws from, its branch behaviour and its prebuilt records (appended
  as they are when the word draws no address).  It stops at a
  basic-block boundary, so it may overfill past the requested count.

A stream in bulk mode is a *cursor over a shared walk*: one process-wide
memo holds the walk of each recently used ``(program, thread_id,
seed)``, and every bulk stream of that key reads the same grow-only
record list from its own position, so a grid's cells generate each
thread's records once instead of once per cell.  The memo is a small
LRU (:data:`_MEMO_WALKS` walks, the program pinned so its ``id`` stays
unique) that :func:`release_walks` empties; grid and queue-drain
drivers call it when they finish, so a finished campaign holds no
records.  A walk is shared only up to :data:`SHARE_CAP` records: a
stream reading past that continues on a private copy of the walk's
state and trims what it consumed, so memory stays bounded at any scale.
Dropping a walk from the memo never changes a stream: streams keep the
walk they hold, and a new stream of the key starts a new walk that
produces the same records.

A stream commits to whichever mode touches it first; mixing afterwards
stays correct (buffered records always drain before the walk advances).
"""

from __future__ import annotations

import random
from itertools import islice

from repro.trace.addrgen import make_generator

__all__ = ["InstructionStream", "release_walks"]

#: records one walk shares across streams; a stream reading past them
#: continues on a private walk (bounds the memo at any scale).
SHARE_CAP = 16_384
#: walks the shared memo keeps, least recently attached dropped first.
_MEMO_WALKS = 4


class _Walk:
    """One thread's walk over a program: RNG, address generators, loop
    counters, the next block, the step table and the records produced
    so far."""

    __slots__ = ("program", "thread_id", "rng", "gens", "counters", "bi",
                 "records", "steps")

    def __init__(self, program, thread_id: int, rng: random.Random):
        self.program = program
        self.thread_id = thread_id
        self.rng = rng
        self.gens = [make_generator(p, thread_id, i, rng)
                     for i, p in enumerate(program.patterns)]
        self.counters: dict[int, int] = {}
        #: bulk-mode position: the next block to fetch (fill() always
        #: stops at a block boundary).
        self.bi = 0
        self.records: list[tuple] = []
        #: per block, one step per word: ``(mop, nexts, br, trip, prob,
        #: rec, rec_taken)``, with ``nexts`` the bound ``next_address``
        #: of this walk's generators in ``mop.mem_ops`` order, ``trip``
        #: the loop trip (``None`` unless a loop branch), ``prob`` the
        #: Bernoulli probability, and ``rec``/``rec_taken`` the shared
        #: not-taken/taken records of a memory-free word.
        self.steps = []
        for blk in program.blocks:
            block = []
            for mop, br in zip(blk.mops, blk.branches):
                trip = None
                prob = 0.0
                if br is not None:
                    beh = br.behavior
                    if beh.kind == "loop":
                        trip = beh.trip
                    else:
                        prob = beh.prob
                nexts = tuple(self.gens[op.pattern].next_address
                              for op in mop.mem_ops)
                block.append((mop, nexts, br, trip, prob,
                              (mop, False, (), br), (mop, True, (), br)))
            self.steps.append(tuple(block))

    @classmethod
    def start(cls, program, thread_id: int, seed: int) -> "_Walk":
        """The walk of ``(program, thread_id, seed)`` at record 0."""
        return cls(program, thread_id,
                   random.Random((seed << 20) ^ (thread_id * 0x9E3779B9)))

    def fork(self) -> "_Walk":
        """A private walk continuing from this walk's last record, with
        no records of its own."""
        rng = random.Random()
        rng.setstate(self.rng.getstate())
        twin = _Walk(self.program, self.thread_id, rng)
        for mine, theirs in zip(self.gens, twin.gens):
            if hasattr(mine, "pos"):
                theirs.pos = mine.pos
        twin.counters.update(self.counters)
        twin.bi = self.bi
        return twin

    def fill(self, n: int) -> None:
        """Append at least the next ``n`` records of the walk to
        :attr:`records` by interpreting :attr:`steps` block by block; it
        stops at a basic-block boundary, so it may run a few records
        past ``n``.

        Produces exactly :meth:`lazy`'s sequence: a record's memory
        addresses are drawn before its branch outcome (address
        generators and branch sampling share the thread RNG), loop
        counters follow :meth:`_take_loop`, and a Bernoulli branch with
        ``prob >= 1.0`` draws nothing.
        """
        records = self.records
        append = records.append
        rng_random = self.rng.random
        counters = self.counters
        steps = self.steps
        bi = self.bi
        stop = len(records) + n
        while len(records) < stop:
            if bi >= len(steps):
                bi = 0  # kernel restarts
            nxt = bi + 1
            for mop, nexts, br, trip, prob, rec, rec_taken in steps[bi]:
                if nexts:
                    k = len(nexts)
                    if k == 1:
                        addrs = (nexts[0](),)
                    elif k == 2:
                        addrs = (nexts[0](), nexts[1]())
                    else:
                        addrs = tuple([f() for f in nexts])
                    if br is None:
                        append((mop, False, addrs, None))
                        continue
                elif br is None:
                    append(rec)
                    continue
                if trip is not None:
                    c = counters.get(bi, trip)
                    taken = c > 1
                    counters[bi] = c - 1 if taken else trip
                else:
                    taken = prob >= 1.0 or rng_random() < prob
                if nexts:
                    append((mop, taken, addrs, br))
                else:
                    append(rec_taken if taken else rec)
                if taken:
                    nxt = br.target
                    break
            bi = nxt
        self.bi = bi

    def _take_loop(self, block_idx: int, trip: int) -> bool:
        c = self.counters.get(block_idx, trip)
        c -= 1
        if c <= 0:
            self.counters[block_idx] = trip
            return False
        self.counters[block_idx] = c
        return True

    def lazy(self):
        """The walk as a plain generator, one resume per record (the
        reference).  Not recorded in :attr:`records`."""
        program = self.program
        blocks = program.blocks
        gens = self.gens
        rng_random = self.rng.random
        while True:  # kernel restarts forever
            bi = 0
            while bi < len(blocks):
                blk = blocks[bi]
                redirect = None
                branches = blk.branches
                for idx, mop in enumerate(blk.mops):
                    if mop.mem_ops:
                        addrs = tuple(
                            gens[op.pattern].next_address()
                            for op in mop.mem_ops
                        )
                    else:
                        addrs = ()
                    br = branches[idx]
                    taken = False
                    if br is not None:
                        beh = br.behavior
                        if beh.kind == "loop":
                            taken = self._take_loop(bi, beh.trip)
                        else:
                            taken = beh.prob >= 1.0 or rng_random() < beh.prob
                    yield (mop, taken, addrs, br)
                    if taken:
                        redirect = br.target
                        break
                bi = redirect if redirect is not None else bi + 1


#: (id(program), thread_id, seed) -> shared _Walk, in attach order (LRU
#: last); the walk's ``program`` pins the id.
_WALKS: dict = {}


def _shared_walk(program, thread_id: int, seed: int) -> _Walk:
    key = (id(program), thread_id, seed)
    walk = _WALKS.pop(key, None)
    if walk is None:
        walk = _Walk.start(program, thread_id, seed)
        if len(_WALKS) >= _MEMO_WALKS:
            del _WALKS[next(iter(_WALKS))]
    _WALKS[key] = walk
    return walk


def release_walks() -> None:
    """Drop every shared walk from the memo.

    Streams keep the walks they hold; new streams start new walks,
    which produce the same records.  Called when a grid or a queue
    drain finishes, so the memo never outlives the work that used it.
    """
    _WALKS.clear()


class InstructionStream:
    """Restartable, deterministic instruction stream for one thread."""

    def __init__(self, program, thread_id: int, seed: int = 0):
        self.program = program
        self.thread_id = thread_id
        self.seed = seed
        #: the walk this stream reads (attached on first touch: shared
        #: by materialize(), private by next()).
        self._walk = None
        self._shared = False
        #: lazy-mode walk generator (created on first ``next()``).
        self._gen = None
        #: the records the cursor ``_pos`` reads: the walk's record list.
        self._buf: list[tuple] = []
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        pos = self._pos
        buf = self._buf
        if pos < len(buf):
            self._pos = pos + 1
            return buf[pos]
        gen = self._gen
        if gen is None:
            if self._walk is not None:
                # the bulk walk already advanced: keep producing through
                # it so the position stays consistent.
                buf = self.materialize(1)
                pos = self._pos
                self._pos = pos + 1
                return buf[pos]
            walk = self._walk = _Walk.start(self.program, self.thread_id,
                                            self.seed)
            self._buf = walk.records
            gen = self._gen = walk.lazy()
        return next(gen)

    @property
    def buffered(self) -> int:
        """Number of materialized records not yet consumed."""
        return len(self._buf) - self._pos

    def materialize(self, n: int) -> list[tuple]:
        """Pre-generate records so the next ``n`` fetches index a
        prebuilt list instead of walking the control flow per fetch.

        Purely a batching hint: the table-driven :meth:`_Walk.fill`
        produces the records of the ``next()`` walk in the same order,
        and ``next()`` always drains the buffer first, so the observed
        stream is identical whether or not (and however often) this is
        called.  May buffer more than ``n`` (the walk stops at
        basic-block boundaries, and other streams of a shared walk may
        have gone further).  Returns the record list of ``(mop, taken,
        addrs, branch)`` tuples (see the module docstring) whose entries
        from index ``_pos`` on are the upcoming fetches; ``_pos`` may
        move on a call.  A consumer that indexes the list directly
        advances ``_pos`` past the records it took.
        """
        walk = self._walk
        if walk is None:
            walk = self._walk = _shared_walk(self.program, self.thread_id,
                                             self.seed)
            self._shared = True
            self._buf = walk.records
        buf = self._buf
        need = self._pos + n - len(buf)
        if need <= 0:
            return buf
        if self._shared:
            if len(buf) < SHARE_CAP:
                walk.fill(need)
                return buf
            self._detach()
            buf = self._buf
        # private walk: trim what was consumed, then extend
        if self._pos:
            del buf[: self._pos]
            self._pos = 0
        need = n - len(buf)
        if need > 0:
            if self._gen is not None:
                # stream already committed to the lazy generator walk:
                # batch through it rather than forking the position.
                buf.extend(islice(self._gen, need))
            else:
                self._walk.fill(need)
        return buf

    def _detach(self) -> None:
        """Continue past the shared walk's cap on a private copy of its
        state, keeping the records not yet consumed."""
        shared = self._walk
        walk = self._walk = shared.fork()
        walk.records.extend(shared.records[self._pos:])
        self._buf = walk.records
        self._pos = 0
        self._shared = False
