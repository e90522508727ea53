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

Two consumption modes produce the identical record sequence (locked
together by ``tests/test_trace.py``):

* ``next(stream)`` walks the control flow with a plain generator, one
  record per resume — the reference engine's per-fetch path;
* :meth:`InstructionStream.materialize` batch-generates records into a
  buffer the fast engine indexes directly, amortizing the walk overhead
  and reusing the prebuilt records of memory-free instructions.  The
  batch walk is *generated per program* (:func:`_fill_source`): each
  basic block becomes straight-line code — prebuilt records appended
  directly, memory records built as tuple literals, address arithmetic
  and branch sampling inlined with the pattern constants baked in —
  dispatched by a block-index ``if`` chain, so the fill loop pays no
  per-record plan lookups.  Bulk mode
  may overfill past the requested count to the end of a basic block;
  records are produced by the same walk in the same order, so this is
  invisible to consumers (the buffer drains before the walk advances).

A stream commits to whichever mode touches it first; mixing afterwards
stays correct (the buffer always drains before the walk advances).
"""

from __future__ import annotations

import random
from itertools import islice

from repro.trace.addrgen import make_generator

__all__ = ["InstructionStream"]


class InstructionStream:
    """Restartable, deterministic instruction stream for one thread."""

    def __init__(self, program, thread_id: int, seed: int = 0):
        self.program = program
        self.thread_id = thread_id
        self.rng = random.Random((seed << 20) ^ (thread_id * 0x9E3779B9))
        self.gens = [
            make_generator(p, thread_id, i, self.rng)
            for i, p in enumerate(program.patterns)
        ]
        self._counters: dict[int, int] = {}
        #: lazy-mode walk generator (created on first ``next()``).
        self._gen = None
        #: bulk-mode walk position: the next block to fetch (the
        #: specialized filler always stops at a block boundary).
        self._bi = 0
        #: materialized-but-not-yet-consumed records (see materialize()).
        self._buf: list[tuple] = []
        self._pos = 0
        #: program-specialized batch filler (resolved on first _fill).
        self._fill_fn = None

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
            if self._bi or buf:
                # the bulk walk already advanced: keep producing through
                # it so the position stays consistent.
                if pos:
                    buf.clear()
                    self._pos = pos = 0
                self._fill(1)
                self._pos = pos + 1
                return buf[pos]
            gen = self._gen = self._walk()
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
        often) this is called.  May buffer slightly more than ``n`` (the
        specialized filler stops at basic-block boundaries).  Returns
        the internal buffer of ``(mop, taken, addrs, branch)`` record
        tuples (see the module docstring), whose first :attr:`buffered`
        entries are the upcoming fetches.  A consumer that indexes the
        buffer directly advances ``_pos`` past the records it took.
        """
        buf = self._buf
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
                self._fill(need)
        return buf

    def _take_loop(self, block_idx: int, trip: int) -> bool:
        c = self._counters.get(block_idx, trip)
        c -= 1
        if c <= 0:
            self._counters[block_idx] = trip
            return False
        self._counters[block_idx] = c
        return True

    # ------------------------------------------------------------------
    # lazy mode: the walk as a plain generator, one resume per record
    # ------------------------------------------------------------------
    def _walk(self):
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

    # ------------------------------------------------------------------
    # bulk mode: the program-specialized batch walk feeding the buffer
    # ------------------------------------------------------------------
    def _fill(self, n: int) -> None:
        """Append at least the next ``n`` records of the walk to the
        buffer (the specialized filler stops at basic-block boundaries,
        so it may run a few records past ``n``).

        RNG discipline: a record's memory addresses are always drawn
        before its branch outcome (address generators and branch
        sampling share the thread RNG), exactly like :meth:`_walk`.
        """
        fn = self._fill_fn
        if fn is None:
            fn = self._fill_fn = _fill_fn_for(self.program)
        fn(self, n)


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
    to :meth:`InstructionStream._walk`.
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
    e("    append = self._buf.append")
    e("    rng_random = self.rng.random")
    e("    grb = self.rng.getrandbits")
    e("    counters = self._counters")
    e("    gens = self.gens")
    for gi, kind in enumerate(kinds):
        e(f"    g{gi} = gens[{gi}]")
        e(f"    b{gi} = g{gi}.base")
        if kind == "stream":
            e(f"    pos{gi} = g{gi}.pos")
    e("    produced = 0")
    e("    bi = self._bi")
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
    e("    self._bi = bi")
    # patch in the constant unpack now that every record is bound.
    if names:
        L[1:1] = [f"    ({', '.join(names)},) = _CONSTS"]
    return "\n".join(L) + "\n", consts


#: id(program) -> (program, compiled filler); the ref pins the id.
_FILL_FNS: dict = {}


def _fill_fn_for(program):
    """Resolve (building if needed) the specialized filler for a
    program; the compiled function is shared by every stream over it."""
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
