"""Pluggable simulation engines.

An :class:`Engine` advances an :class:`~repro.sim.core.MTCore` through
cycles.  All engines operate on the *shared* mutable simulation state —
the core's :class:`~repro.sim.thread.ThreadState` contexts, caches,
:class:`~repro.sim.stats.SimStats` and rotation counter — so the OS
scheduler can drive any engine across timeslices and context switches
without knowing which one is plugged in.

Two per-cell implementations ship here, plus the ``batch`` name:

* :class:`ReferenceEngine` — the executable specification: a literal
  cycle-by-cycle loop (fetch, merge via the recursive scheme AST, issue)
  that transcribes the paper's Sections 2 and 5.1.
* :class:`FastEngine` — **bit-identical in every reported statistic**
  (machine-wide :class:`SimStats`, per-thread counters, cache hit/miss
  counts, timeslice accounting) but several times faster, via

  1. *slot-indexed state*: for the length of one ``run`` call each
     resident context's pending record, ``stall_until``, counters and
     stream cursor live in local lists indexed by context
     slot, and the cache counters and merged-width histogram in locals;
     everything is flushed back to the threads, caches and stats on
     exit;
  2. *ready-mask dispatch*: one pass over the resident contexts fetches
     and builds a bitmask of ready contexts; ``(rotation, mask)``
     indexes a :class:`~repro.merge.scheme.DispatchTable` shared by
     every scheme with the same rotation schedule and filled on demand,
     which yields the ready ports in port order (for two ready ports,
     directly the plan's pair-table key);
  3. *idle-cycle skipping*: when every resident thread is stalled the
     engine jumps straight to the earliest ``stall_until`` and accounts
     the skipped cycles as vertical waste in one step;
  4. *materialized instruction streams*: each stream is a cursor over
     a record list of ``(mop, taken, addrs, branch)`` tuples that the
     hot loop indexes instead of resuming a generator per fetch; a
     refill (:meth:`~repro.trace.stream.InstructionStream.materialize`)
     extends the list by at least ``STREAM_BATCH`` records by
     interpreting the walk's step table, where the reference engine
     resumes the walk's per-record ``lazy()`` generator.  The list is
     the walk shared by every stream of the same program, thread and
     seed, so the cells of a grid generate each thread's records once;
  5. *compiled scheme plans*: :meth:`~repro.merge.scheme.Scheme.compile`
     lowers the merge AST once into a generated straight-line selection
     function over the ready ports' packed summaries, with a
     precomputed pair table answering two-ready cycles in one predicate.

* :class:`BatchEngine` — ``FastEngine`` under the ``batch`` name, which
  stores, queue campaign specs and ``--engine batch`` carry.

The differential suite (``tests/test_engine.py``) locks the engines
together across the full scheme registry and every Table 2 workload.
"""

from __future__ import annotations

from repro.merge.packet import ExecPacket
from repro.sim.cache import Cache, PerfectCache

__all__ = [
    "BatchEngine",
    "ENGINES",
    "Engine",
    "FastEngine",
    "ReferenceEngine",
    "make_engine",
]


class Engine:
    """Protocol for simulation engines (duck-typed; subclassing optional).

    An engine owns no simulation state of its own beyond private
    acceleration structures (plans, buffers): everything observable lives
    on the core and its threads, which is what makes engines swappable
    mid-experiment and bit-comparable to each other.
    """

    #: registry name, reported by benchmarks and the CLI.
    name: str = "abstract"

    def run(self, core, max_cycles: int, instr_limit: int | None = None) -> str:
        """Advance ``core`` by up to ``max_cycles`` cycles.

        Returns ``"limit"`` as soon as any thread has issued
        ``instr_limit`` instructions (the paper's termination rule), or
        ``"timeslice"`` when the cycle budget is exhausted first.
        """
        raise NotImplementedError


class ReferenceEngine(Engine):
    """The executable specification: one literal loop iteration per cycle."""

    name = "reference"

    def run(self, core, max_cycles: int, instr_limit: int | None = None) -> str:
        machine = core.machine
        scheme = core.scheme
        rules = core.rules
        icache = core.icache
        dcache = core.dcache
        stats = core.stats
        contexts = core.contexts
        n = core.n_ports
        br_penalty = machine.taken_branch_penalty
        perms = core._perms
        ports = [None] * n

        for _ in range(max_cycles):
            cycle = core.cycle
            # ---------------------------------------------------- fetch
            for ctx in contexts:
                if ctx is None or ctx.stall_until > cycle:
                    continue
                if ctx.pending is None:
                    ctx.fetch()
                    if not icache.access(ctx.pending[0].address):
                        ctx.icache_misses += 1
                        ctx.stall_until = cycle + icache.miss_penalty

            # ---------------------------------------------------- merge
            perm = perms[core._rot]
            any_ready = False
            for p in range(n):
                ctx = contexts[perm[p]]
                if (ctx is not None and ctx.pending is not None
                        and ctx.stall_until <= cycle):
                    packet = ctx.packet
                    if packet is None:
                        # fetched by another engine, which builds no
                        # packets: wrap the pending instruction now
                        packet = ctx.packet = ExecPacket.from_mop(
                            ctx.pending[0], ctx)
                    ports[p] = packet
                    any_ready = True
                else:
                    ports[p] = None

            selected = scheme.select(ports, rules) if any_ready else None

            # ---------------------------------------------------- issue
            if selected is None:
                stats.vertical_waste += 1
                finished = None
            else:
                threads = selected.ports
                stats.record_issue(len(threads), selected.n_ops)
                finished = None
                for ctx in threads:
                    mop, taken, addrs, _ = ctx.pending
                    ctx.issued_instrs += 1
                    ctx.issued_ops += mop.n_ops
                    pen = 0
                    is_load = mop.mem_is_load
                    for k, addr in enumerate(addrs):
                        if not dcache.access(addr):
                            ctx.dcache_misses += 1
                            # only load misses stall the thread: store
                            # misses drain through the write buffer
                            if is_load[k]:
                                pen += dcache.miss_penalty
                    if taken:
                        ctx.taken_branches += 1
                        pen += br_penalty
                    if pen:
                        ctx.stall_until = cycle + 1 + pen
                    ctx.pending = None
                    ctx.packet = None
                    if instr_limit is not None and ctx.issued_instrs >= instr_limit:
                        finished = ctx

            stats.cycles += 1
            core.cycle += 1
            if core.rotate and n > 1:
                core._rot = (core._rot + 1) % len(perms)
            if finished is not None:
                return "limit"
        return "timeslice"


class FastEngine(Engine):
    """Bit-identical to :class:`ReferenceEngine`, several times faster.

    Safe by construction, mechanism by mechanism:

    * *slot-indexed state*: each resident context's pending record,
      ``stall_until``, counters and stream cursor live in local
      lists indexed by context slot, and cache hit/miss counters and
      statistics in locals; all of it is flushed to the
      :class:`~repro.sim.thread.ThreadState` objects, caches and
      :class:`SimStats` on every exit.  Nobody observes that state
      mid-run (the OS scheduler reads it between timeslices only).
    * *ready-mask dispatch*: one pass over the resident contexts, in
      context order, does the fetch and sets bit ``c`` of a ready mask
      for every context left unstalled.  That is exactly the reference's
      ready set: after its fetch phase an unstalled context always holds
      a pending instruction (it either had one or just fetched one).  An
      ICache miss sets ``stall_until = cycle + miss_penalty``, so the
      context drops out of the mask only for a nonzero penalty; with a
      zero penalty it stays ready in the same cycle, as in the
      reference, whose merge tests ``stall_until <= cycle``.  The
      port binding is a pure function of the rotation step, so
      ``(rotation, mask)`` determines the ready ports in port order; the
      rotation schedule's :class:`~repro.merge.scheme.DispatchTable`
      caches that answer per combination reached.
    * *idle skipping*: an empty mask means every resident thread is
      stalled, and nothing can change before the earliest
      ``stall_until``, so those cycles are accounted as vertical waste in
      one step.
    * *single-ready bypass*: with exactly one valid port every merge
      block passes it through unchanged (``Node.eval`` semantics), so
      the selection is that port — no plan evaluation needed.  When every
      other resident thread stays stalled for a few more cycles, a
      dedicated single-thread loop runs until the earliest of those
      stalls expires (*solo burst*).
    * *pair table*: with exactly two ready ports the selection is one
      precomputed ancestor predicate over the two instructions'
      ``(mask, packed)``; three or more ready ports evaluate the
      compiled plan.
    * *guaranteed-hit caches*: an access to the cache line touched by
      the immediately preceding access of the same cache is a hit and
      leaves the true-LRU state unchanged (the MRU entry is re-appended
      in place), so only the hit counter is bumped; a
      :class:`PerfectCache` always hits by definition.

    The fast path never builds :class:`~repro.merge.packet.ExecPacket`
    objects: it leaves ``ThreadState.packet`` at ``None`` and the
    reference engine builds the packet on demand, so the two engines can
    take turns on one core.
    """

    name = "fast"

    #: least fetch records a stream refill adds to its record list.
    STREAM_BATCH = 512

    def run(self, core, max_cycles: int, instr_limit: int | None = None) -> str:
        contexts = core.contexts
        icache = core.icache
        dcache = core.dcache
        stats = core.stats
        n = core.n_ports
        br_penalty = core.machine.taken_branch_penalty
        d_penalty = dcache.miss_penalty
        i_penalty = icache.miss_penalty
        perms = core.scheme.port_permutations()
        n_perms = len(perms)
        rotate = core.rotate and n > 1
        plan = core.scheme.compile(core.rules)
        batch = self.STREAM_BATCH
        caps_high = core.rules.caps_high
        high = core.rules.high
        limit = (1 << 62) if instr_limit is None else instr_limit

        # cache specialization: known types get the guaranteed-hit fast
        # paths and fully inlined LRU bookkeeping; anything else goes
        # through plain access() calls, which count for themselves.
        icache_access = icache.access
        dcache_access = dcache.access
        i_perf = type(icache) is PerfectCache
        d_perf = type(dcache) is PerfectCache
        i_shift = d_shift = None
        i_sets = d_sets = ()
        i_set_mask = d_set_mask = -1
        i_nsets = d_nsets = i_assoc = d_assoc = 0
        if type(icache) is Cache:
            i_shift = icache._line_shift
            i_sets = icache.sets
            i_set_mask = icache._set_mask
            i_nsets = len(i_sets)
            i_assoc = icache.cfg.assoc
        if type(dcache) is Cache:
            d_shift = dcache._line_shift
            d_sets = dcache.sets
            d_set_mask = dcache._set_mask
            d_nsets = len(d_sets)
            d_assoc = dcache.cfg.assoc
        last_iline = -1
        last_dline = -1

        cycle = start = core.cycle
        end = cycle + max_cycles
        rot = core._rot
        live = tuple(c for c, ctx in enumerate(contexts) if ctx is not None)
        if not live:
            # nothing resident: the reference burns the whole budget as
            # vertical waste, one cycle at a time.  Do it in one step.
            waste = max(0, max_cycles)
            stats.cycles += waste
            stats.vertical_waste += waste
            core.cycle = cycle + waste
            if rotate:
                core._rot = (rot + waste) % n_perms
            return "timeslice"

        # ------------------------------------------ slot-indexed state
        # one entry per context slot; empty slots' entries stay unused
        streams = [None] * n
        bufs = [None] * n
        poss = [0] * n
        pend = [None] * n
        stall = [0] * n
        instrs = [0] * n
        ops = [0] * n
        imiss = [0] * n
        dmiss = [0] * n
        takens = [0] * n
        # the resident contexts other than c (the solo-burst horizon)
        others = [()] * n
        for i, c in enumerate(live):
            t = contexts[c]
            stream = streams[c] = t.stream
            bufs[c] = stream._buf
            poss[c] = stream._pos
            pend[c] = t.pending
            stall[c] = t.stall_until
            instrs[c] = t.issued_instrs
            ops[c] = t.issued_ops
            others[c] = live[:i] + live[i + 1:]

        def refill(c: int, pos: int) -> list:
            # slot c read every record its list holds (pos == len); the
            # refilled list holds the next fetch at the stream's _pos
            stream = streams[c]
            stream._pos = pos
            buf = bufs[c] = stream.materialize(batch)
            return buf

        # ready-mask dispatch: key = (rot << n) | mask
        table = core.scheme.dispatch()
        pair_table = plan.pair_table
        rkey = rot << n
        rstep = 1 << n
        rwrap = n_perms << n
        select_ports = plan.select_ports
        blank = [-1, 0] * n

        # local stats accumulators, flushed at every exit.
        i_hits = i_misses = d_hits = d_misses = 0
        waste_acc = 0
        hist = [0] * (n + 1)
        finished = False

        while cycle < end:
            # ------------------------------------------- fetch + ready
            # in context order: programs may share address ranges, so
            # the icache must see fetches in exactly the reference's order
            mask = 0
            for c in live:
                if stall[c] > cycle:
                    continue
                if pend[c] is None:
                    pos = poss[c]
                    buf = bufs[c]
                    if pos >= len(buf):
                        buf = refill(c, pos)
                        pos = streams[c]._pos
                    rec = pend[c] = buf[pos]
                    poss[c] = pos + 1
                    if i_shift is not None:
                        line = rec[0].address >> i_shift
                        if line == last_iline:
                            i_hits += 1
                        else:
                            last_iline = line
                            if i_set_mask >= 0:
                                ways = i_sets[line & i_set_mask]
                            else:
                                ways = i_sets[line % i_nsets]
                            if line in ways:
                                ways.remove(line)
                                ways.append(line)
                                i_hits += 1
                            else:
                                ways.append(line)
                                if len(ways) > i_assoc:
                                    ways.pop(0)
                                i_misses += 1
                                imiss[c] += 1
                                stall[c] = cycle + i_penalty
                                if i_penalty:
                                    continue
                    elif i_perf:
                        i_hits += 1
                    elif not icache_access(rec[0].address):
                        imiss[c] += 1
                        stall[c] = cycle + i_penalty
                        if i_penalty:
                            continue
                mask |= 1 << c

            if not mask:
                # ------------------------------------------- idle skip
                nxt = min([stall[c] for c in live])
                skip = nxt - cycle
                remaining = end - cycle
                if skip >= remaining:
                    skip = remaining
                waste_acc += skip
                cycle += skip
                if rotate:
                    rkey = (((rkey >> n) + skip) % n_perms) << n
                continue

            nready, perm, ready = table[rkey | mask]
            if nready == 1:
                c = perm[ready[0]]
                until = end
                for o in others[c]:
                    su = stall[o]
                    if su < until:
                        until = su
                if until - cycle >= 4:
                    # ------------------------------------ solo burst
                    # Every other resident thread is stalled (an
                    # unstalled one would be in the mask).  Until the
                    # earliest of those stalls expires only this thread
                    # can make progress: run it in a single-thread loop.
                    burst_start = cycle
                    buf = bufs[c]
                    pos = poss[c]
                    pending = pend[c]
                    t_stall = stall[c]
                    t_instrs = instrs[c]
                    t_ops = ops[c]
                    t_dmiss = t_takens = 0
                    while cycle < until:
                        if t_stall > cycle:
                            st = t_stall if t_stall < until else until
                            waste_acc += st - cycle
                            cycle = st
                            continue
                        if pending is None:
                            if pos >= len(buf):
                                buf = refill(c, pos)
                                pos = streams[c]._pos
                            pending = buf[pos]
                            pos += 1
                            if i_shift is not None:
                                line = pending[0].address >> i_shift
                                if line == last_iline:
                                    i_hits += 1
                                else:
                                    last_iline = line
                                    if i_set_mask >= 0:
                                        ways = i_sets[line & i_set_mask]
                                    else:
                                        ways = i_sets[line % i_nsets]
                                    if line in ways:
                                        ways.remove(line)
                                        ways.append(line)
                                        i_hits += 1
                                    else:
                                        ways.append(line)
                                        if len(ways) > i_assoc:
                                            ways.pop(0)
                                        i_misses += 1
                                        imiss[c] += 1
                                        t_stall = cycle + i_penalty
                                        continue
                            elif i_perf:
                                i_hits += 1
                            elif not icache_access(pending[0].address):
                                imiss[c] += 1
                                t_stall = cycle + i_penalty
                                continue
                        mop, taken, addrs, _ = pending
                        pending = None
                        t_instrs += 1
                        t_ops += mop.n_ops
                        pen = 0
                        if addrs:
                            if d_shift is not None:
                                is_load = mop.mem_is_load
                                for k, addr in enumerate(addrs):
                                    line = addr >> d_shift
                                    if line == last_dline:
                                        d_hits += 1
                                        continue
                                    last_dline = line
                                    if d_set_mask >= 0:
                                        ways = d_sets[line & d_set_mask]
                                    else:
                                        ways = d_sets[line % d_nsets]
                                    if line in ways:
                                        ways.remove(line)
                                        ways.append(line)
                                        d_hits += 1
                                    else:
                                        ways.append(line)
                                        if len(ways) > d_assoc:
                                            ways.pop(0)
                                        d_misses += 1
                                        t_dmiss += 1
                                        if is_load[k]:
                                            pen += d_penalty
                            elif d_perf:
                                d_hits += len(addrs)
                            else:
                                is_load = mop.mem_is_load
                                for k, addr in enumerate(addrs):
                                    if not dcache_access(addr):
                                        t_dmiss += 1
                                        if is_load[k]:
                                            pen += d_penalty
                        if taken:
                            t_takens += 1
                            pen += br_penalty
                        cycle += 1
                        if pen:
                            # cycle already advanced: old cycle + 1 + pen
                            t_stall = cycle + pen
                        if t_instrs >= limit:
                            finished = True
                            break
                    # -------------------------------- flush burst state
                    hist[1] += t_instrs - instrs[c]
                    poss[c] = pos
                    pend[c] = pending
                    stall[c] = t_stall
                    instrs[c] = t_instrs
                    ops[c] = t_ops
                    if t_dmiss:
                        dmiss[c] += t_dmiss
                    if t_takens:
                        takens[c] += t_takens
                    if rotate:
                        rkey = (((rkey >> n) + (cycle - burst_start))
                                % n_perms) << n
                    if finished:
                        break
                    continue
                sel = ready
            elif nready == 2:
                # two ready ports: one precomputed ancestor predicate
                is_smt, pa, pb, sel_first, sel_both = pair_table[ready]
                ma = pend[perm[pa]][0]
                mb = pend[perm[pb]][0]
                if is_smt:
                    s = ma.packed + mb.packed
                    sel = sel_both if (caps_high - s) & high == high \
                        else sel_first
                else:
                    sel = sel_first if ma.mask & mb.mask else sel_both
            else:
                args = blank[:]
                for pp, c in ready:
                    mop = pend[c][0]
                    args[pp] = mop.mask
                    args[pp + 1] = mop.packed
                sel = select_ports(*args)

            # ---------------------------------------------------- issue
            for p in sel:
                c = perm[p]
                mop, taken, addrs, _ = pend[c]
                pend[c] = None
                ops[c] += mop.n_ops
                t_instrs = instrs[c] = instrs[c] + 1
                pen = 0
                if addrs:
                    if d_shift is not None:
                        is_load = mop.mem_is_load
                        for k, addr in enumerate(addrs):
                            line = addr >> d_shift
                            if line == last_dline:
                                d_hits += 1
                                continue
                            last_dline = line
                            if d_set_mask >= 0:
                                ways = d_sets[line & d_set_mask]
                            else:
                                ways = d_sets[line % d_nsets]
                            if line in ways:
                                ways.remove(line)
                                ways.append(line)
                                d_hits += 1
                            else:
                                ways.append(line)
                                if len(ways) > d_assoc:
                                    ways.pop(0)
                                d_misses += 1
                                dmiss[c] += 1
                                # store misses drain through the write
                                # buffer and do not stall
                                if is_load[k]:
                                    pen += d_penalty
                    elif d_perf:
                        d_hits += len(addrs)
                    else:
                        is_load = mop.mem_is_load
                        for k, addr in enumerate(addrs):
                            if not dcache_access(addr):
                                dmiss[c] += 1
                                if is_load[k]:
                                    pen += d_penalty
                if taken:
                    takens[c] += 1
                    pen += br_penalty
                if pen:
                    stall[c] = cycle + 1 + pen
                if t_instrs >= limit:
                    finished = True
            hist[len(sel)] += 1

            cycle += 1
            if rotate:
                rkey += rstep
                if rkey == rwrap:
                    rkey = 0
            if finished:
                break

        # ---------------------------------------------------- flush
        # issued words and operations are the threads' counter deltas
        issued_instrs = issued_ops = 0
        for c in live:
            t = contexts[c]
            issued_instrs += instrs[c] - t.issued_instrs
            issued_ops += ops[c] - t.issued_ops
            t.pending = pend[c]
            t.packet = None
            t.stall_until = stall[c]
            t.issued_instrs = instrs[c]
            t.issued_ops = ops[c]
            t.icache_misses += imiss[c]
            t.dcache_misses += dmiss[c]
            t.taken_branches += takens[c]
            streams[c]._pos = poss[c]
        if i_perf or i_shift is not None:
            icache.hits += i_hits
            icache.misses += i_misses
        if d_perf or d_shift is not None:
            dcache.hits += d_hits
            dcache.misses += d_misses
        stats.cycles += cycle - start
        stats.vertical_waste += waste_acc
        stats.ops += issued_ops
        stats.instrs += issued_instrs
        merged = stats.merged_hist
        for width in range(1, n + 1):
            if hist[width]:
                merged[width] = merged.get(width, 0) + hist[width]
        core.cycle = cycle
        core._rot = rkey >> n
        return "limit" if finished else "timeslice"


class BatchEngine(FastEngine):
    """``FastEngine`` under the ``batch`` name: one cell per simulation.

    ``--engine batch`` runs each cell here on every path — inline grids,
    ``--jobs N`` pool tasks and queue claims — so its values are the
    fast engine's.  The name stays because stores and queue campaign
    specs carry it.
    """

    name = "batch"


#: engine registry, keyed by CLI/config name.
ENGINES: dict[str, type[Engine]] = {
    ReferenceEngine.name: ReferenceEngine,
    FastEngine.name: FastEngine,
    BatchEngine.name: BatchEngine,
}


def make_engine(spec) -> Engine:
    """Resolve an engine from a name, class or ready instance.

    ``make_engine("fast")``, ``make_engine(FastEngine)`` and
    ``make_engine(FastEngine())`` are all accepted; unknown names raise
    ``ValueError`` listing the registry.
    """
    if isinstance(spec, str):
        cls = ENGINES.get(spec)
        if cls is None:
            raise ValueError(
                f"unknown engine {spec!r}; choose from {sorted(ENGINES)}"
            )
        return cls()
    if isinstance(spec, type) and issubclass(spec, Engine):
        return spec()
    if isinstance(spec, Engine) or hasattr(spec, "run"):
        return spec
    raise TypeError(f"cannot make an engine from {spec!r}")
