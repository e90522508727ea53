"""Pluggable simulation engines.

An :class:`Engine` advances an :class:`~repro.sim.core.MTCore` through
cycles.  All engines operate on the *shared* mutable simulation state —
the core's :class:`~repro.sim.thread.ThreadState` contexts, caches,
:class:`~repro.sim.stats.SimStats` and rotation counter — so the OS
scheduler can drive any engine across timeslices and context switches
without knowing which one is plugged in.

Two per-cell implementations ship here (the grouped lockstep engine
lives in :mod:`repro.sim.batch`):

* :class:`ReferenceEngine` — the executable specification: a literal
  cycle-by-cycle loop (fetch, merge via the recursive scheme AST, issue)
  that transcribes the paper's Sections 2 and 5.1.
* :class:`FastEngine` — **bit-identical in every reported statistic**
  (machine-wide :class:`SimStats`, per-thread counters, cache hit/miss
  counts, timeslice accounting) but several times faster, via

  1. *idle-cycle skipping*: when every resident thread is stalled the
     engine jumps straight to the earliest ``stall_until`` and accounts
     the skipped cycles as vertical waste in one step;
  2. *materialized instruction streams*:
     :meth:`~repro.trace.stream.InstructionStream.materialize` pre-builds
     batches of fetch records so the hot loop indexes a list instead of
     resuming a generator per fetch;
  3. *compiled scheme plans*: :meth:`~repro.merge.scheme.Scheme.compile`
     lowers the merge AST once into a generated straight-line selection
     function over the ready ports' packed summaries, with a
     precomputed pair table answering two-ready cycles in one predicate.

Every engine reports an :class:`EngineStats` snapshot
(:meth:`Engine.engine_stats`), which the eval layer surfaces as cell
metadata so campaign stores record which engine ran a cell and how.

The differential suite (``tests/test_engine.py``) locks the engines
together across the full scheme registry and every Table 2 workload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.sim.cache import Cache, PerfectCache

__all__ = [
    "ENGINES",
    "Engine",
    "EngineStats",
    "FastEngine",
    "ReferenceEngine",
    "make_engine",
]


@dataclass
class EngineStats:
    """Acceleration-structure counters one engine accumulated.

    All engines expose the same shape (per-cell engines report zeros),
    so cell metadata is uniform across engines.
    """

    engine: str
    #: grouped-lockstep activity (batch engine only, zeros elsewhere):
    #: cells sharing this cell's group, groups run, solo fallbacks.
    batch_cells: int = 0
    batch_groups: int = 0
    batch_fallback_cells: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


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

    def engine_stats(self) -> EngineStats:
        """Acceleration counters accumulated so far (zeros by default)."""
        return EngineStats(engine=self.name)


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
                    if not icache.access(ctx.pending.mop.address):
                        ctx.icache_misses += 1
                        ctx.stall_until = cycle + icache.miss_penalty

            # ---------------------------------------------------- merge
            perm = perms[core._rot]
            any_ready = False
            for p in range(n):
                ctx = contexts[perm[p]]
                if (ctx is not None and ctx.pending is not None
                        and ctx.stall_until <= cycle):
                    ports[p] = ctx.packet
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
                    rec = ctx.pending
                    ctx.issued_instrs += 1
                    ctx.issued_ops += rec.mop.n_ops
                    pen = 0
                    is_load = rec.mop.mem_is_load
                    for k, addr in enumerate(rec.addrs):
                        if not dcache.access(addr):
                            ctx.dcache_misses += 1
                            # only load misses stall the thread: store
                            # misses drain through the write buffer
                            if is_load[k]:
                                pen += dcache.miss_penalty
                    if rec.taken:
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

    * *idle skipping* only compresses cycles in which the reference
      provably does nothing: after the fetch phase every unstalled
      resident thread holds a pending instruction, so "no port ready"
      means every resident thread is stalled and nothing can change
      before the earliest ``stall_until``.
    * *single-ready bypass*: with exactly one valid port every merge
      block passes it through unchanged (``Node.eval`` semantics), so
      the selection is that port — no plan evaluation needed.  Measured
      on the paper's workloads this covers the large majority of cycles.
    * *pair table*: with exactly two ready ports the selection is one
      precomputed ancestor predicate over the two instructions'
      ``(mask, packed)``; three or more ready ports evaluate the
      compiled plan.
    * *guaranteed-hit caches*: an access to the cache line touched by
      the immediately preceding access of the same cache is a hit and
      leaves the true-LRU state unchanged (the MRU entry is re-appended
      in place), so only the hit counter is bumped; a
      :class:`PerfectCache` always hits by definition.
    * statistics are accumulated in locals and flushed on exit — nobody
      observes ``SimStats`` mid-run (the OS scheduler reads it between
      timeslices only).
    """

    name = "fast"

    #: fetch records materialized per stream refill.
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
        pair_table = plan.pair_table
        limit = (1 << 62) if instr_limit is None else instr_limit

        # cache specialization: known types get the guaranteed-hit fast
        # paths (and fully inlined LRU bookkeeping inside solo bursts);
        # anything else goes through plain access() calls.
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

        cycle = core.cycle
        end = cycle + max_cycles
        rot = core._rot
        live = [ctx for ctx in contexts if ctx is not None]
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

        # context tuple per rotation step: perm_ctxs[rot][p] is the
        # context bound to port p (contexts are fixed within one run).
        perm_ctxs = [tuple(contexts[p] for p in perm) for perm in perms]
        solo_sel = tuple((p,) for p in range(n))
        port_ctx = [None] * n
        select_ports = plan.select_ports
        args = [0] * (2 * n)
        # count of threads that may need a fetch; the scan itself stays
        # in context order — programs may share address ranges, so the
        # icache must see accesses in exactly the reference's order.
        n_unfetched = sum(1 for ctx in live if ctx.pending is None)

        # local stats accumulators, flushed at every exit.
        cycles_acc = 0
        waste_acc = 0
        ops_acc = 0
        instrs_acc = 0
        solo_issues = 0
        hist: dict = {}
        finished = None
        status = "timeslice"

        while cycle < end:
            # ---------------------------------------------------- fetch
            if n_unfetched:
                for ctx in live:
                    if ctx.pending is not None or ctx.stall_until > cycle:
                        continue
                    n_unfetched -= 1
                    stream = ctx.stream
                    pos = stream._pos
                    buf = stream._buf
                    if pos >= len(buf):
                        buf = stream.materialize(batch)
                        pos = 0
                    rec = buf[pos]
                    stream._pos = pos + 1
                    ctx.pending = rec
                    ctx.packet = None  # fast path never builds packets
                    addr = rec.mop.address
                    if i_perf:
                        icache.hits += 1
                    elif i_shift is not None:
                        line = addr >> i_shift
                        if line == last_iline:
                            icache.hits += 1
                        else:
                            last_iline = line
                            if i_set_mask >= 0:
                                ways = i_sets[line & i_set_mask]
                            else:
                                ways = i_sets[line % i_nsets]
                            if line in ways:
                                ways.remove(line)
                                ways.append(line)
                                icache.hits += 1
                            else:
                                ways.append(line)
                                if len(ways) > i_assoc:
                                    ways.pop(0)
                                icache.misses += 1
                                ctx.icache_misses += 1
                                ctx.stall_until = cycle + i_penalty
                    elif not icache_access(addr):
                        ctx.icache_misses += 1
                        ctx.stall_until = cycle + i_penalty

            # ---------------------------------------------------- merge
            pctx = perm_ctxs[rot]
            nready = 0
            solo = 0
            solo2 = 0
            for p in range(n):
                ctx = pctx[p]
                if (ctx is not None and ctx.pending is not None
                        and ctx.stall_until <= cycle):
                    port_ctx[p] = ctx
                    if nready == 0:
                        solo = p
                    elif nready == 1:
                        solo2 = p
                    nready += 1
                else:
                    port_ctx[p] = None

            if not nready:
                # ------------------------------------------- idle skip
                nxt = min(ctx.stall_until for ctx in live)
                skip = nxt - cycle
                remaining = end - cycle
                if skip >= remaining:
                    skip = remaining
                cycles_acc += skip
                waste_acc += skip
                cycle += skip
                if rotate:
                    rot = (rot + skip) % n_perms
                continue

            if nready == 1:
                # ------------------------------------------ solo burst
                # Every other resident thread is stalled (an unstalled
                # thread would hold a pending instruction after the
                # fetch phase and be ready).  Until the earliest of
                # those stalls expires, only this thread can make
                # progress, so run it in a dedicated single-thread loop.
                t = port_ctx[solo]
                until = end
                for ctx in live:
                    if ctx is not t:
                        su = ctx.stall_until
                        if su < until:
                            until = su
                if until - cycle >= 4:
                    # Thread state, cache counters and LRU bookkeeping
                    # are hoisted into locals for the burst and flushed
                    # once at its end — nothing else can observe them
                    # while the burst runs.
                    burst_start = cycle
                    stream = t.stream
                    t_instrs = t.issued_instrs
                    t_ops = t.issued_ops
                    t_stall = t.stall_until
                    pending = t.pending
                    t_imiss = t_dmiss = t_takens = 0
                    i_hits = i_misses = d_hits = d_misses = 0
                    while cycle < until:
                        if t_stall > cycle:
                            st = t_stall if t_stall < until else until
                            d = st - cycle
                            cycles_acc += d
                            waste_acc += d
                            cycle = st
                            continue
                        if pending is None:
                            pos = stream._pos
                            buf = stream._buf
                            if pos >= len(buf):
                                buf = stream.materialize(batch)
                                pos = 0
                            pending = buf[pos]
                            stream._pos = pos + 1
                            addr = pending.mop.address
                            if i_perf:
                                i_hits += 1
                            elif i_shift is not None:
                                line = addr >> i_shift
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
                                        t_imiss += 1
                                        t_stall = cycle + i_penalty
                                        continue
                            elif not icache_access(addr):
                                t_imiss += 1
                                t_stall = cycle + i_penalty
                                continue
                        mop = pending.mop
                        t_instrs += 1
                        nops = mop.n_ops
                        t_ops += nops
                        ops_acc += nops
                        pen = 0
                        addrs = pending.addrs
                        if addrs:
                            if d_perf:
                                d_hits += len(addrs)
                            elif d_shift is not None:
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
                            else:
                                is_load = mop.mem_is_load
                                for k, addr in enumerate(addrs):
                                    if not dcache_access(addr):
                                        t_dmiss += 1
                                        if is_load[k]:
                                            pen += d_penalty
                        if pending.taken:
                            t_takens += 1
                            pen += br_penalty
                        pending = None
                        solo_issues += 1
                        cycles_acc += 1
                        cycle += 1
                        if pen:
                            # cycle already advanced: old cycle + 1 + pen
                            t_stall = cycle + pen
                        if t_instrs >= limit:
                            finished = t
                            break
                    # -------------------------------- flush burst state
                    t.issued_instrs = t_instrs
                    t.issued_ops = t_ops
                    t.stall_until = t_stall
                    t.pending = pending
                    t.packet = None
                    if t_imiss:
                        t.icache_misses += t_imiss
                    if t_dmiss:
                        t.dcache_misses += t_dmiss
                    if t_takens:
                        t.taken_branches += t_takens
                    if i_hits:
                        icache.hits += i_hits
                    if i_misses:
                        icache.misses += i_misses
                    if d_hits:
                        dcache.hits += d_hits
                    if d_misses:
                        dcache.misses += d_misses
                    if rotate:
                        rot = (rot + (cycle - burst_start)) % n_perms
                    if pending is None:
                        n_unfetched += 1
                    if finished is not None:
                        status = "limit"
                        break
                    continue
                sel = solo_sel[solo]
            elif nready == 2:
                # two ready ports: one precomputed ancestor predicate
                is_smt, pa, pb, sel_first, sel_both = pair_table[solo, solo2]
                ma = port_ctx[pa].pending.mop
                mb = port_ctx[pb].pending.mop
                if is_smt:
                    s = ma.packed + mb.packed
                    sel = sel_both if (caps_high - s) & high == high \
                        else sel_first
                else:
                    sel = sel_first if ma.mask & mb.mask else sel_both
            else:
                for p in range(n):
                    ctx = port_ctx[p]
                    pp = p + p
                    if ctx is None:
                        args[pp] = -1
                        args[pp + 1] = 0
                    else:
                        mop = ctx.pending.mop
                        args[pp] = mop.mask
                        args[pp + 1] = mop.packed
                sel = select_ports(*args)

            # ---------------------------------------------------- issue
            n_ops = 0
            for p in sel:
                ctx = port_ctx[p]
                rec = ctx.pending
                mop = rec.mop
                ctx.issued_instrs += 1
                ctx.issued_ops += mop.n_ops
                n_ops += mop.n_ops
                pen = 0
                addrs = rec.addrs
                if addrs:
                    if d_perf:
                        dcache.hits += len(addrs)
                    elif d_shift is not None:
                        is_load = mop.mem_is_load
                        for k, addr in enumerate(addrs):
                            line = addr >> d_shift
                            if line == last_dline:
                                dcache.hits += 1
                                continue
                            last_dline = line
                            if d_set_mask >= 0:
                                ways = d_sets[line & d_set_mask]
                            else:
                                ways = d_sets[line % d_nsets]
                            if line in ways:
                                ways.remove(line)
                                ways.append(line)
                                dcache.hits += 1
                            else:
                                ways.append(line)
                                if len(ways) > d_assoc:
                                    ways.pop(0)
                                dcache.misses += 1
                                ctx.dcache_misses += 1
                                # store misses drain through the write
                                # buffer and do not stall
                                if is_load[k]:
                                    pen += d_penalty
                    else:
                        is_load = mop.mem_is_load
                        for k, addr in enumerate(addrs):
                            if not dcache_access(addr):
                                ctx.dcache_misses += 1
                                if is_load[k]:
                                    pen += d_penalty
                if rec.taken:
                    ctx.taken_branches += 1
                    pen += br_penalty
                if pen:
                    ctx.stall_until = cycle + 1 + pen
                ctx.pending = None
                n_unfetched += 1
                if ctx.issued_instrs >= limit:
                    finished = ctx
            ops_acc += n_ops
            nsel = len(sel)
            instrs_acc += nsel
            hist[nsel] = hist.get(nsel, 0) + 1

            cycles_acc += 1
            cycle += 1
            if rotate:
                rot += 1
                if rot == n_perms:
                    rot = 0
            if finished is not None:
                status = "limit"
                break

        # ---------------------------------------------------- flush
        if solo_issues:
            instrs_acc += solo_issues
            hist[1] = hist.get(1, 0) + solo_issues
        stats.cycles += cycles_acc
        stats.vertical_waste += waste_acc
        stats.ops += ops_acc
        stats.instrs += instrs_acc
        merged = stats.merged_hist
        for k, v in hist.items():
            merged[k] = merged.get(k, 0) + v
        core.cycle = cycle
        core._rot = rot
        return status


#: engine registry, keyed by CLI/config name.
ENGINES: dict[str, type[Engine]] = {
    ReferenceEngine.name: ReferenceEngine,
    FastEngine.name: FastEngine,
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
