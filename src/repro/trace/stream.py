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

Records are immutable and may be shared: memory-free records are
prebuilt once per program and reused by every execution.  Hot loops
unpack them (``mop, taken, addrs, _ = rec``) or index them (``rec[0]``).

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
  cursor ``_pos``.  The batch walk is *generated per program*
  (:func:`_fill_source`): each basic block becomes straight-line code —
  prebuilt records appended directly, memory records built as tuple
  literals, address arithmetic and branch sampling inlined with the
  pattern constants baked in — dispatched by a block-index ``if``
  chain, so the fill loop pays no per-record plan lookups.  It may
  overfill past the requested count to the end of a basic block.

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
    counters, the next block and the records produced so far."""

    __slots__ = ("program", "thread_id", "rng", "gens", "counters", "bi",
                 "records", "_fill_fn")

    def __init__(self, program, thread_id: int, rng: random.Random):
        self.program = program
        self.thread_id = thread_id
        self.rng = rng
        self.gens = [make_generator(p, thread_id, i, rng)
                     for i, p in enumerate(program.patterns)]
        self.counters: dict[int, int] = {}
        #: bulk-mode position: the next block to fetch (the specialized
        #: filler always stops at a block boundary).
        self.bi = 0
        self.records: list[tuple] = []
        #: program-specialized batch filler (resolved on first fill).
        self._fill_fn = None

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
        :attr:`records` (the specialized filler stops at basic-block
        boundaries, so it may run a few records past ``n``).

        RNG discipline: a record's memory addresses are always drawn
        before its branch outcome (address generators and branch
        sampling share the thread RNG), exactly like :meth:`lazy`.
        """
        fn = self._fill_fn
        if fn is None:
            fn = self._fill_fn = _fill_fn_for(self.program)
        fn(self, n)

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

        Purely a batching hint: records are produced by the same walk in
        the same order, and ``next()`` always drains the buffer first, so
        the observed stream is identical whether or not (and however
        often) this is called.  May buffer more than ``n`` (the
        specialized filler stops at basic-block boundaries, and other
        streams of a shared walk may have gone further).  Returns the
        record list of ``(mop, taken, addrs, branch)`` tuples (see the
        module docstring) whose entries from index ``_pos`` on are the
        upcoming fetches; ``_pos`` may move on a call.  A consumer that
        indexes the list directly advances ``_pos`` past the records it
        took.
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


# ----------------------------------------------------------------------
# program-specialized batch filler
# ----------------------------------------------------------------------
def _fill_source(program) -> tuple[str, list]:
    """Generate a straight-line batch filler for one program.

    Emits ``_fill_compiled(self, n)``: an outer ``while produced < n``
    over a block-index dispatch chain, each basic block unrolled into
    literal appends.  Memory-free records are prebuilt constants
    (returned in ``consts``, unpacked into locals by the prologue);
    address draws inline the generator arithmetic with the pattern's
    stride/footprint/alignment baked in (``_Stream`` positions are
    hoisted into locals and flushed on exit); branch sampling inlines
    the loop-counter or Bernoulli draw.  Taken branches exit the block
    with a statically counted ``produced`` bump; the not-taken path
    falls through linearly, so no code is duplicated.  RNG order
    (addresses before branch outcome, shared thread RNG) is identical
    to :meth:`_Walk.lazy`.
    """
    consts: list = []
    names: list[str] = []

    def bind(obj, tag: str) -> str:
        name = f"_K{tag}_{len(consts)}"
        consts.append(obj)
        names.append(name)
        return name

    kinds = [p.kind for p in program.patterns]
    blocks = program.blocks
    nb = len(blocks)
    L: list[str] = ["def _fill_compiled(self, n):"]
    e = L.append
    e("    append = self.records.append")
    e("    rng_random = self.rng.random")
    e("    grb = self.rng.getrandbits")
    e("    counters = self.counters")
    e("    gens = self.gens")
    for gi, kind in enumerate(kinds):
        e(f"    g{gi} = gens[{gi}]")
        e(f"    b{gi} = g{gi}.base")
        if kind == "stream":
            e(f"    pos{gi} = g{gi}.pos")
    e("    produced = 0")
    e("    bi = self.bi")
    e("    while produced < n:")
    e(f"        if bi >= {nb}:")
    e("            bi = 0")

    def emit_block(bidx: int, pad: str) -> None:
        blk = blocks[bidx]
        cnt = 0
        for mop, br in zip(blk.mops, blk.branches):
            cnt += 1
            if br is not None:
                beh = br.behavior
                is_loop = beh.kind == "loop"
                always = (not is_loop) and beh.prob >= 1.0
            if not mop.mem_ops:
                if br is None:
                    k = bind((mop, False, (), None), "r")
                    e(f"{pad}append({k})")
                    continue
                kn = bind((mop, False, (), br), "n")
                kt = bind((mop, True, (), br), "t")
                if always:
                    e(f"{pad}append({kt})")
                    e(f"{pad}produced += {cnt}")
                    e(f"{pad}bi = {br.target}")
                    e(f"{pad}continue")
                    return  # rest of block unreachable
                if is_loop:
                    e(f"{pad}_c = counters.get({bidx}, {beh.trip})")
                    e(f"{pad}if _c > 1:")
                    e(f"{pad}    counters[{bidx}] = _c - 1")
                    e(f"{pad}    append({kt})")
                    e(f"{pad}    produced += {cnt}")
                    e(f"{pad}    bi = {br.target}")
                    e(f"{pad}    continue")
                    e(f"{pad}counters[{bidx}] = {beh.trip}")
                    e(f"{pad}append({kn})")
                else:
                    e(f"{pad}if rng_random() < {beh.prob!r}:")
                    e(f"{pad}    append({kt})")
                    e(f"{pad}    produced += {cnt}")
                    e(f"{pad}    bi = {br.target}")
                    e(f"{pad}    continue")
                    e(f"{pad}append({kn})")
                continue
            # memory instruction: draw addresses, then the branch.
            for x, op in enumerate(mop.mem_ops):
                gi = op.pattern
                pat = program.patterns[gi]
                if kinds[gi] == "stream":
                    e(f"{pad}_a{x} = b{gi} + pos{gi}")
                    e(f"{pad}pos{gi} = (pos{gi} + {pat.stride})"
                      f" % {pat.footprint}")
                else:
                    n_slots = pat.footprint // pat.align
                    bits = n_slots.bit_length()
                    e(f"{pad}_r = grb({bits})")
                    e(f"{pad}while _r >= {n_slots}:")
                    e(f"{pad}    _r = grb({bits})")
                    e(f"{pad}_a{x} = b{gi} + _r * {pat.align}")
            addrs = "(" + ", ".join(f"_a{x}" for x in
                                    range(len(mop.mem_ops))) + ",)"
            km = bind(mop, "m")
            if br is None:
                e(f"{pad}append(({km}, False, {addrs}, None))")
                continue
            kb = bind(br, "b")
            if always:
                e(f"{pad}append(({km}, True, {addrs}, {kb}))")
                e(f"{pad}produced += {cnt}")
                e(f"{pad}bi = {br.target}")
                e(f"{pad}continue")
                return
            if is_loop:
                e(f"{pad}_c = counters.get({bidx}, {beh.trip})")
                e(f"{pad}if _c > 1:")
                e(f"{pad}    counters[{bidx}] = _c - 1")
                e(f"{pad}    append(({km}, True, {addrs}, {kb}))")
                e(f"{pad}    produced += {cnt}")
                e(f"{pad}    bi = {br.target}")
                e(f"{pad}    continue")
                e(f"{pad}counters[{bidx}] = {beh.trip}")
                e(f"{pad}append(({km}, False, {addrs}, {kb}))")
            else:
                e(f"{pad}if rng_random() < {beh.prob!r}:")
                e(f"{pad}    append(({km}, True, {addrs}, {kb}))")
                e(f"{pad}    produced += {cnt}")
                e(f"{pad}    bi = {br.target}")
                e(f"{pad}    continue")
                e(f"{pad}append(({km}, False, {addrs}, {kb}))")
        e(f"{pad}produced += {cnt}")
        e(f"{pad}bi = {bidx + 1}")
        e(f"{pad}continue")

    if nb == 1:
        emit_block(0, "        ")
    else:
        for bidx in range(nb):
            kw = "if" if bidx == 0 else (
                "elif" if bidx < nb - 1 else "else")
            cond = f" bi == {bidx}" if kw != "else" else ""
            e(f"        {kw}{cond}:")
            emit_block(bidx, "            ")
    for gi, kind in enumerate(kinds):
        if kind == "stream":
            e(f"    g{gi}.pos = pos{gi}")
    e("    self.bi = bi")
    # patch in the constant unpack now that every record is bound.
    if names:
        L[1:1] = [f"    ({', '.join(names)},) = _CONSTS"]
    return "\n".join(L) + "\n", consts


#: id(program) -> (program, compiled filler); the ref pins the id.
_FILL_FNS: dict = {}


def _fill_fn_for(program):
    """Resolve (building if needed) the specialized filler for a
    program; the compiled function is shared by every walk over it."""
    ent = _FILL_FNS.get(id(program))
    if ent is not None:
        return ent[1]
    src, consts = _fill_source(program)
    namespace = {"_CONSTS": tuple(consts)}
    exec(src, namespace)  # noqa: S102 - self-generated source
    fn = namespace["_fill_compiled"]
    if len(_FILL_FNS) >= 256:
        _FILL_FNS.clear()
    _FILL_FNS[id(program)] = (program, fn)
    return fn
