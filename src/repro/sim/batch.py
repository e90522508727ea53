"""Batch engine: array-structured lockstep simulation of cell groups.

The per-cell engine (:class:`~repro.sim.engine.FastEngine`) accelerates
*one* cell at a time; every campaign still pays the Python interpreter
once per simulated cycle per cell.  :class:`BatchEngine` amortizes that
cost *across* the campaign: :func:`run_workloads_batch` takes a group of
independent cells — mixed machines and schemes are fine, only the
:class:`~repro.sim.SimConfig` must be shared — and steps them in
lockstep with array-structured state: per-cell cycle counters, fetch
cursors, cache tag arrays and ready masks laid out as numpy arrays, so
one Python-level loop iteration advances every active cell by at least
one cycle.

Bit-identity is preserved by transcription, not approximation: the
lockstep loop replays exactly the reference semantics per cell —

* fetch in context order, icache probes in that order, miss stalls of
  ``cycle + penalty``;
* merge through the compiled scheme plan, lowered at build time to a
  3-step register program over SWAR resource limbs (evaluated across
  lanes as table gathers, or natively, see below);
* issue in selection order: dcache probes per address in order, only
  load misses stall (``cycle + 1 + penalties``), taken branches add the
  machine's branch penalty, per-thread counters and the merge histogram
  accounted exactly as :class:`~repro.sim.stats.SimStats` does;
* true-LRU cache state as tag arrays, updated by a vectorized probe
  that de-duplicates same-(cell, set) accesses into ordered waves;
* per-cell OS scheduling (warmup, timeslices, random replacement) by a
  scalar controller replaying :class:`~repro.sim.os_sched.Multitasker`
  — including its RNG draw sequence — between lockstep waves.

Streams are shared: cells simulating the same workload under different
schemes read one materialized record array per (program, thread) pair,
so a 17-scheme sweep decodes each instruction trace once.

When a C compiler is available, the two innermost loops — the LRU tag
probe and the per-lane merge program — run as small native kernels
(:mod:`repro.sim.native`), compiled once and cached.  They are exact
transcriptions of the numpy paths, which remain as fallbacks (and can
be forced with ``REPRO_NO_NATIVE=1``).

numpy is an *optional* dependency: importing this module is always
safe, and :class:`BatchEngine` on a single cell delegates to an
internal :class:`~repro.sim.engine.FastEngine` (no numpy needed).  Only
the grouped path (:func:`run_workloads_batch`) requires numpy and
raises a clear error when it is missing.
"""

from __future__ import annotations

import random
import warnings

from repro.merge.registry import get_scheme
from repro.sim.engine import ENGINES, Engine, EngineStats, FastEngine
from repro.sim.os_sched import RunResult
from repro.sim.stats import SimStats

__all__ = ["BatchEngine", "run_workloads_batch"]

#: records materialized per stream refill.
CHUNK = 4096
#: widest scheme the lockstep loop models (ports per cell).
MAX_PORTS = 4
_INF = 1 << 62


def _numpy():
    """Import numpy or fail with an actionable message."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy present in CI
        raise ImportError(
            "the batch engine's grouped lockstep path needs numpy; "
            "install numpy or run with --engine fast/reference"
        ) from exc
    return numpy


class _Unbatchable(Exception):
    """Cell cannot join this lockstep group; run it solo instead."""


class _BatchThread:
    """Per-thread counters of one batched cell (RunResult view)."""

    __slots__ = ("name", "issued_instrs", "issued_ops", "dcache_misses",
                 "icache_misses", "taken_branches")

    def __init__(self, name, instrs, ops, dmiss, imiss, takens):
        self.name = name
        self.issued_instrs = instrs
        self.issued_ops = ops
        self.dcache_misses = dmiss
        self.icache_misses = imiss
        self.taken_branches = takens

    def ipc(self, cycles: int) -> float:
        return self.issued_ops / cycles if cycles else 0.0


class _BatchCache:
    """Hit/miss counters of one batched cell's cache (RunResult view)."""

    __slots__ = ("hits", "misses")

    def __init__(self, hits: int, misses: int):
        self.hits = hits
        self.misses = misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        n = self.accesses
        return self.misses / n if n else 0.0


class BatchEngine(Engine):
    """Lockstep groups; solo cells run on the fast engine.

    As a plain per-core engine (``MTCore(engine="batch")``) it delegates
    to an internal :class:`FastEngine` — a group of one gains nothing
    from arrays, and delegation keeps the solo path bit-identical by
    construction.  The grouped lockstep path is
    :func:`run_workloads_batch`, which the eval runner and queue workers
    use to advance many compatible cells per Python-level iteration.
    """

    name = "batch"

    def __init__(self):
        self._solo = FastEngine()

    def run(self, core, max_cycles: int, instr_limit: int | None = None) -> str:
        return self._solo.run(core, max_cycles, instr_limit)

    def engine_stats(self) -> EngineStats:
        st = self._solo.engine_stats()
        st.engine = self.name
        st.batch_cells = 0
        st.batch_groups = 0
        st.batch_fallback_cells = 1
        return st


class _TagCache:
    """Flat timestamp-LRU tag store for one cache level across all cells.

    Equivalent to the reference's ordered-way lists: membership is the
    same set of tags, a hit refreshes the way's stamp (MRU), and a miss
    evicts the minimum-stamp way — exactly the least recently touched
    line, i.e. the front of the ordered list.  Empty ways carry distinct
    negative stamps so a filling set allocates ways in index order.
    Same-(cell, set) accesses within one probe are serialized into
    rounds: a stable sort groups accesses by set, each access gets its
    distinct-line rank within the group, and rank ``r`` accesses probe
    in wave ``r``.  A run of consecutive same-line accesses to one set
    collapses to its first probe — the repeats are guaranteed hits that
    re-stamp the already-most-recent line, so dropping them preserves
    the relative stamp order exactly.
    """

    __slots__ = ("np", "nsets", "assoc", "tags", "stamps", "ctr", "arA",
                 "nat", "_ctr_io")

    def __init__(self, np, n_cells: int, nsets: int, assoc: int, nat=None):
        self.np = np
        self.nsets = nsets
        self.assoc = assoc
        self.tags = np.full(n_cells * nsets * assoc, -1, dtype=np.int64)
        self.stamps = np.tile(
            np.arange(assoc, dtype=np.int64) - assoc, n_cells * nsets)
        self.ctr = 0
        self.arA = np.arange(assoc, dtype=np.int64)[None, :]
        self.nat = nat
        self._ctr_io = np.zeros(1, dtype=np.int64)

    def probe(self, cells, sets, lines):
        """Probe in order; returns the per-access hit mask."""
        np = self.np
        if self.nat is not None:
            # Native kernel: same membership/eviction decisions, stamps
            # advance per access instead of per round — the relative
            # per-set stamp order (all that LRU compares) is identical,
            # so mixing native and numpy probes stays exact.
            n = cells.shape[0]
            hit = np.empty(n, dtype=bool)
            io = self._ctr_io
            io[0] = self.ctr
            self.nat.probe_lru(
                self.tags.ctypes.data, self.stamps.ctypes.data,
                io.ctypes.data, self.nsets, self.assoc,
                cells.ctypes.data, sets.ctypes.data, lines.ctypes.data,
                n, hit.ctypes.data)
            self.ctr = int(io[0])
            return hit
        return self._probe_np(cells, sets, lines)

    def probe_fetch(self, cells, sets, lines, fflat, cyc, penalty,
                    hits_c, misses_c, th_imiss_f, stall_f):
        """Fused native probe + fetch-side miss accounting (native only)."""
        io = self._ctr_io
        io[0] = self.ctr
        self.nat.fetch_probe(
            self.tags.ctypes.data, self.stamps.ctypes.data,
            io.ctypes.data, self.nsets, self.assoc,
            cells.ctypes.data, sets.ctypes.data, lines.ctypes.data,
            cells.shape[0], fflat.ctypes.data, cyc.ctypes.data, penalty,
            hits_c.ctypes.data, misses_c.ctypes.data,
            th_imiss_f.ctypes.data, stall_f.ctypes.data)
        self.ctr = int(io[0])

    def probe_data(self, cells, sets, lines, is_load, rows, iflat, penalty,
                   hits_c, misses_c, th_dmiss_f, pen):
        """Fused native probe + issue-side miss accounting (native only)."""
        io = self._ctr_io
        io[0] = self.ctr
        self.nat.dcache_probe(
            self.tags.ctypes.data, self.stamps.ctypes.data,
            io.ctypes.data, self.nsets, self.assoc,
            cells.ctypes.data, sets.ctypes.data, lines.ctypes.data,
            is_load.ctypes.data, rows.ctypes.data, iflat.ctypes.data,
            cells.shape[0], penalty,
            hits_c.ctypes.data, misses_c.ctypes.data,
            th_dmiss_f.ctypes.data, pen.ctypes.data)
        self.ctr = int(io[0])

    def _probe_np(self, cells, sets, lines):
        np = self.np
        A = self.assoc
        key = cells * self.nsets + sets
        n = key.shape[0]
        order = np.argsort(key, kind="stable")
        ks = key.take(order)
        ls = lines.take(order)
        idx = np.arange(n, dtype=np.int64)
        samek = ks[1:] == ks[:-1]
        run = np.zeros(n, dtype=np.int64)  # start index of each set run
        run[1:] = np.where(samek, 0, idx[1:])
        np.maximum.accumulate(run, out=run)
        dup = np.zeros(n, dtype=bool)  # consecutive same-line repeats
        dup[1:] = samek & (ls[1:] == ls[:-1])
        t = np.cumsum(~dup)
        occ = np.where(dup, -1, t - t.take(run))  # distinct-line rank - 1
        nrounds = int(occ.max()) + 1
        ro = np.argsort(occ, kind="stable")
        rc = np.bincount(occ + 1, minlength=nrounds + 1)
        hit_s = np.empty(n, dtype=bool)
        pos = int(rc[0])
        hit_s[ro[:pos]] = True  # collapsed repeats
        tags = self.tags
        stamps = self.stamps
        for r in range(nrounds):
            cnt = int(rc[r + 1])
            sl = ro[pos:pos + cnt]
            pos += cnt
            ck = ks.take(sl)
            ln = ls.take(sl)
            ixb = ck * A
            ix = ixb[:, None] + self.arA
            ways = tags[ix]
            eq = ways == ln[:, None]
            hit = eq.any(1)
            slot = np.where(hit, eq.argmax(1), stamps[ix].argmin(1))
            flat = ixb + slot
            self.ctr += 1
            tags[flat] = ln
            stamps[flat] = self.ctr
            hit_s[sl] = hit
        hit_out = np.empty(n, dtype=bool)
        hit_out[order] = hit_s
        return hit_out


class _PlanInfo:
    """Per-scheme lookup tables shared by every cell using the scheme."""

    __slots__ = ("pid", "n_ports", "perms", "npl", "select_ports",
                 "machine_idx")

    def __init__(self, pid, scheme, rotate: bool, machine_idx: int = 0):
        self.pid = pid
        self.machine_idx = machine_idx
        self.n_ports = scheme.n_ports
        perms = scheme.port_permutations()
        if not (rotate and scheme.n_ports > 1):
            perms = perms[:1]
        self.perms = perms
        self.npl = len(perms)
        self.select_ports = None  # bound once the plan compiles


class _CellCtl:
    """Scalar per-cell replay of the Multitasker between lockstep waves.

    Thread tokens are plain ints; ``random.Random.shuffle`` draws depend
    only on list length and ``in`` on unique ints is identity-equivalent,
    so the pick sequence matches the real scheduler draw for draw.
    """

    __slots__ = ("sim", "ci", "tokens", "running", "rng", "phase")

    def __init__(self, sim, ci: int, n_threads: int, seed: int):
        self.sim = sim
        self.ci = ci
        self.tokens = list(range(n_threads))
        self.running = []
        self.rng = random.Random(seed ^ 0x5EED)
        self.phase = "warmup"

    def _load(self, pick) -> None:
        sim, ci = self.sim, self.ci
        sim.ctx_thread[ci, :] = -1
        for slot, tok in enumerate(pick):
            sim.ctx_thread[ci, slot] = tok
        sim.resident[ci, :] = False
        sim.resident[ci, pick] = True
        sim.refresh_cell(ci)

    def _pick(self):
        running = self.running
        n = self.sim.cell_ports[self.ci]
        k = min(n, len(self.tokens))
        not_running = [t for t in self.tokens if t not in running]
        self.rng.shuffle(not_running)
        pick = not_running[:k]
        if len(pick) < k:
            rest = [t for t in self.tokens if t not in pick]
            self.rng.shuffle(rest)
            pick += rest[: k - len(pick)]
        return pick

    def begin(self) -> None:
        sim, ci = self.sim, self.ci
        cfg = sim.config
        self.running = self.tokens[: sim.cell_ports[ci]]
        self._load(self.running)
        if cfg.warmup_instrs > 0:
            self.phase = "warmup"
            sim.cur_limit[ci] = cfg.warmup_instrs
            sim.run_end[ci] = sim.cyc[ci] + 64 * cfg.warmup_instrs + 1024
        else:
            self._enter_measured(from_warmup=False)

    def _enter_measured(self, from_warmup: bool) -> None:
        sim, ci = self.sim, self.ci
        cfg = sim.config
        if from_warmup:
            sim.vw[ci] = sim.instrs_c[ci] = 0
            sim.ctxsw[ci] = 0
            sim.hist[ci, :] = 0
            sim.th_instr[ci, :] = 0
            sim.th_ops[ci, :] = 0
            sim.th_dmiss[ci, :] = 0
            sim.th_imiss[ci, :] = 0
            sim.th_takens[ci, :] = 0
            sim.ihits[ci] = sim.imisses[ci] = 0
            sim.dhits[ci] = sim.dmisses[ci] = 0
        self.phase = "measured"
        sim.finished[ci] = False
        sim.start[ci] = sim.cyc[ci]
        sim.cur_limit[ci] = cfg.instr_limit
        budget = sim.timeslice
        if cfg.max_cycles is not None:
            budget = min(budget, cfg.max_cycles)
        sim.run_end[ci] = sim.cyc[ci] + budget

    def on_event(self) -> None:
        sim, ci = self.sim, self.ci
        cfg = sim.config
        if self.phase == "warmup":
            if not sim.finished[ci]:
                warnings.warn(
                    f"warmup cycle budget exhausted before any thread "
                    f"issued {cfg.warmup_instrs} instructions; caches may "
                    f"be under-warmed",
                    RuntimeWarning, stacklevel=2)
            self._enter_measured(from_warmup=True)
            return
        if sim.finished[ci]:
            self._done()
            return
        elapsed = int(sim.cyc[ci] - sim.start[ci])
        if cfg.max_cycles is not None and elapsed >= cfg.max_cycles:
            self._done()
            return
        self.running = self._pick()
        self._load(self.running)
        sim.ctxsw[ci] += 1
        budget = sim.timeslice
        if cfg.max_cycles is not None:
            budget = min(budget, cfg.max_cycles - elapsed)
        sim.run_end[ci] = sim.cyc[ci] + budget

    def _done(self) -> None:
        sim, ci = self.sim, self.ci
        sim.active[ci] = False
        sim._lanes_dirty = True
        if not sim.th_ops[ci].any():
            warnings.warn(
                f"empty measurement window: {int(sim.cyc[ci] - sim.start[ci])}"
                f" cycles measured after warmup and no operations issued "
                f"(IPC reads 0.0); raise max_cycles or lower "
                f"warmup_instrs",
                RuntimeWarning, stacklevel=2)


class _LockstepSim:
    """The array-structured group simulator behind the batch engine."""

    def __init__(self, config, np):
        if config.max_cycles is not None and config.max_cycles <= 0:
            raise ValueError(
                f"max_cycles must be >= 1, got {config.max_cycles}")
        self.np = np
        self.config = config
        self.timeslice = config.timeslice
        self.machines: list = []       # interned by equality (unhashable)
        self.cells: list = []          # (programs, scheme, plan_info)
        self.plans: list[_PlanInfo] = []
        self._schemes: dict = {}       # (scheme name, machine idx) -> info
        # shared instruction streams: (id(program), sw_id) -> stream slot
        self._stream_ids: dict = {}
        self.streams: list = []
        self._stream_pins: list = []   # program refs pinning id()s
        # interned selections (tuples of ports, priority order)
        self._sel_ids: dict = {}
        self._sel_rows: list[tuple] = []
        # per-record conversion cache: id(mop) -> pinned entry
        self._mop_cache: dict = {}

    # ------------------------------------------------------------ build
    def add_cell(self, programs, scheme_name: str) -> int:
        if not programs:
            raise _Unbatchable("no programs")
        machine = programs[0].machine
        for p in programs:
            if p.machine is not machine and p.machine != machine:
                raise _Unbatchable("mixed machines in one cell")
        midx = None
        for k, m in enumerate(self.machines):
            if machine is m or machine == m:
                midx = k
                break
        if midx is None:
            midx = len(self.machines)
            self.machines.append(machine)
        try:
            scheme = get_scheme(scheme_name)
        except Exception as exc:
            raise _Unbatchable(str(exc)) from exc
        if scheme.n_ports > MAX_PORTS:
            raise _Unbatchable(f"{scheme.n_ports}-port scheme")
        info = self._schemes.get((scheme.name, midx))
        if info is None:
            info = _PlanInfo(len(self.plans), scheme,
                             self.config.rotate_priority, midx)
            self._schemes[(scheme.name, midx)] = info
            self.plans.append(info)
        for i, p in enumerate(programs):
            key = (id(p), i)
            if key not in self._stream_ids:
                from repro.trace.stream import InstructionStream
                self._stream_ids[key] = len(self.streams)
                self.streams.append(
                    InstructionStream(p, i, self.config.seed + 17 * i))
                self._stream_pins.append(p)
        self.cells.append((list(programs), scheme, info))
        return len(self.cells) - 1

    def _intern_sel(self, sel: tuple) -> int:
        sid = self._sel_ids.get(sel)
        if sid is None:
            sid = len(self._sel_rows)
            self._sel_ids[sel] = sid
            self._sel_rows.append(sel)
            np = self.np
            cap = len(self._sel_rows)
            sp = np.full((cap, self.N), -1, dtype=np.int64)
            sl = np.zeros(cap, dtype=np.int64)
            for k, row in enumerate(self._sel_rows):
                sp[k, : len(row)] = row
                sl[k] = len(row)
            self.SEL_PORT = sp
            self.SEL_LEN = sl
        return sid

    def build(self) -> None:
        np = self.np
        cfg = self.config
        C = len(self.cells)
        self.C = C
        self.N = max(info.n_ports for _, _, info in self.cells)
        self.T = max(len(progs) for progs, _, _ in self.cells)
        self.S = len(self.streams)
        # per-fetch budget headroom: one in-flight fetch per phase
        self.H = cfg.warmup_instrs + cfg.instr_limit + 8
        C, N, T = self.C, self.N, self.T

        from repro.merge.packet import MergeRules
        rules_by_m = [MergeRules(m) for m in self.machines]
        self.brp_c = np.array(
            [self.machines[info.machine_idx].taken_branch_penalty
             for _, _, info in self.cells], dtype=np.int64)

        # plan tables -------------------------------------------------
        P = len(self.plans)
        npl_max = max(info.npl for info in self.plans)
        self.PERM = np.full((P, npl_max, N), -1, dtype=np.int64)
        self.NPL = np.ones(P, dtype=np.int64)
        # Selection is evaluated as a 3-step register program over SWAR
        # summaries: registers 0..N-1 hold the per-port packets, N..N+2
        # the (padded) merge results, N+3 an always-invalid dummy.  The
        # packed resource vector is split into 64-bit limbs; byte sums
        # never overflow and the per-byte high bit absorbs each byte's
        # borrow, so limbs add and test independently (no carries).
        self.NREG = N + 4
        self.NL = max(1, max((r.caps_high.bit_length() + 63) // 64
                             for r in rules_by_m))
        NL = self.NL
        self.RA = np.full((P, 3), N + 3, dtype=np.int64)
        self.RB = np.full((P, 3), N + 3, dtype=np.int64)
        self.RSMT = np.zeros((P, 3), dtype=bool)
        self.CAPS_L = np.zeros((P, NL), dtype=np.uint64)
        self.HIGH_L = np.zeros((P, NL), dtype=np.uint64)
        self._vec_merge = True
        m64 = (1 << 64) - 1
        pair_tabs: dict = {}
        from repro.merge.scheme import OP_PORT, OP_SMT
        for info in self.plans:
            scheme = next(s for _, s, i in self.cells if i is info)
            rules = rules_by_m[info.machine_idx]
            plan = scheme.compile(rules)
            info.select_ports = plan.select_ports
            pair_tabs[info.pid] = plan.pair_table
            self.NPL[info.pid] = info.npl
            for r in range(npl_max):
                perm = info.perms[r % info.npl]
                for p in range(info.n_ports):
                    self.PERM[info.pid, r, p] = perm[p]
            for li in range(NL):
                self.CAPS_L[info.pid, li] = (rules.caps_high >> (64 * li)) & m64
                self.HIGH_L[info.pid, li] = (rules.high >> (64 * li)) & m64
            stack: list[int] = []
            span: dict[int, tuple] = {}
            ns = 0
            for op, port in plan.steps:
                if op == OP_PORT:
                    stack.append(port)
                    span[port] = (port, port)
                    continue
                b = stack.pop()
                a = stack.pop()
                if span[a][1] >= span[b][0]:
                    # selections would not be in ascending port order;
                    # no registered scheme does this, but stay correct
                    self._vec_merge = False
                reg = N + ns
                span[reg] = (span[a][0], span[b][1])
                self.RA[info.pid, ns] = a
                self.RB[info.pid, ns] = b
                self.RSMT[info.pid, ns] = op == OP_SMT
                ns += 1
                stack.append(reg)
            root = stack[0]
            while ns < 3:  # pad: merging with the dummy passes through
                span[N + ns] = span.get(root, (0, 0))
                self.RA[info.pid, ns] = root
                root = N + ns
                ns += 1
        self.SEL_PORT = np.full((0, N), -1, dtype=np.int64)
        self.SEL_LEN = np.zeros(0, dtype=np.int64)
        self.SOLO = np.array([self._intern_sel((p,)) for p in range(N)],
                             dtype=np.int64)
        # readiness bitmask tables: rb = ready @ POW2 indexes into these
        self._POW2 = (1 << np.arange(N, dtype=np.int64))
        self.SELSUB = np.zeros(1 << N, dtype=np.int64)
        self.SEL1 = np.zeros(1 << N, dtype=np.int64)
        self.MULTI = np.zeros(1 << N, dtype=bool)
        for bits in range(1, 1 << N):
            ports = tuple(p for p in range(N) if bits >> p & 1)
            self.SELSUB[bits] = self._intern_sel(ports)
            if len(ports) == 1:
                self.SEL1[bits] = self.SELSUB[bits]
            else:
                self.MULTI[bits] = True
        # two-ready-ports fast path: on most contested waves exactly two
        # ports are ready, and the whole plan collapses to one predicate
        # at the pair's lowest common ancestor (SchemePlan.pair_table)
        self.PC = np.array([bin(b).count("1") for b in range(1 << N)],
                           dtype=np.int64)
        self.B0 = np.zeros(1 << N, dtype=np.int64)
        self.B1 = np.zeros(1 << N, dtype=np.int64)
        for bits in range(1, 1 << N):
            self.B0[bits] = (bits & -bits).bit_length() - 1
            self.B1[bits] = bits.bit_length() - 1
        self.PT_SMT = np.zeros(P * N * N, dtype=bool)
        self.PT_A = np.zeros(P * N * N, dtype=np.int64)
        self.PT_AB = np.zeros(P * N * N, dtype=np.int64)
        for pid2, tab in pair_tabs.items():
            for (i, j), (is_smt, _f, _s, sel_a, sel_ab) in tab.items():
                k = pid2 * N * N + i * N + j
                self.PT_SMT[k] = is_smt
                self.PT_A[k] = self._intern_sel(sel_a)
                self.PT_AB[k] = self._intern_sel(sel_ab)

        # optional native kernels (exact; numpy paths remain fallback)
        from repro.sim.native import get_native
        nat = get_native()
        self._nat = nat
        self._nat_merge = None
        if nat is not None and self._vec_merge and N + 4 <= 12 and NL <= 8:
            self._nat_merge = nat.merge_multi

        # caches ------------------------------------------------------
        self.i_perf = cfg.perfect_icache
        self.d_perf = cfg.perfect_dcache
        self.i_penalty = 0 if self.i_perf else cfg.icache.miss_penalty
        self.d_penalty = 0 if self.d_perf else cfg.dcache.miss_penalty
        if not self.i_perf:
            self._i_shift = cfg.icache.line.bit_length() - 1
            self._i_nsets = cfg.icache.n_sets
            self._i_assoc = cfg.icache.assoc
            self.icache_t = _TagCache(np, C, self._i_nsets, self._i_assoc,
                                      nat=self._nat)
        if not self.d_perf:
            self._d_shift = cfg.dcache.line.bit_length() - 1
            self._d_nsets = cfg.dcache.n_sets
            self._d_assoc = cfg.dcache.assoc
            self.dcache_t = _TagCache(np, C, self._d_nsets, self._d_assoc,
                                      nat=self._nat)
        self.ihits = np.zeros(C, dtype=np.int64)
        self.imisses = np.zeros(C, dtype=np.int64)
        self.dhits = np.zeros(C, dtype=np.int64)
        self.dmisses = np.zeros(C, dtype=np.int64)

        # record arrays ----------------------------------------------
        self.A = max([1] + [
            len(mop.mem_ops)
            for progs, _, _ in self.cells
            for p in progs
            for blk in p.blocks
            for mop in blk.mops
        ])
        SH = self.S * self.H
        self.r_mask = np.zeros(SH, dtype=np.int64)
        self.r_plimb = np.zeros((SH, self.NL), dtype=np.uint64)
        self.r_nops = np.zeros(SH, dtype=np.int64)
        self.r_taken = np.zeros(SH, dtype=bool)
        self.r_na = np.zeros(SH, dtype=np.int64)
        if not self.i_perf:
            self.r_iline = np.zeros(SH, dtype=np.int64)
            self.r_iset = np.zeros(SH, dtype=np.int64)
        if not self.d_perf:
            self.r_dline = np.zeros((SH, self.A), dtype=np.int64)
            self.r_dset = np.zeros((SH, self.A), dtype=np.int64)
            self.r_dload = np.zeros((SH, self.A), dtype=bool)
        self.filled = np.zeros(self.S, dtype=np.int64)
        self.base = np.arange(self.S, dtype=np.int64) * self.H

        # per-cell / per-thread state --------------------------------
        self.cyc = np.zeros(C, dtype=np.int64)
        self.start = np.zeros(C, dtype=np.int64)
        self.run_end = np.zeros(C, dtype=np.int64)
        self.cur_limit = np.zeros(C, dtype=np.int64)
        self.rot = np.zeros(C, dtype=np.int64)
        self.active = np.ones(C, dtype=bool)
        self.finished = np.zeros(C, dtype=bool)
        self.pid_c = np.array([info.pid for _, _, info in self.cells],
                              dtype=np.int64)
        self.npl_c = self.NPL[self.pid_c]
        self.cell_ports = np.array(
            [info.n_ports for _, _, info in self.cells], dtype=np.int64)
        self.vw = np.zeros(C, dtype=np.int64)
        self.instrs_c = np.zeros(C, dtype=np.int64)
        self.ctxsw = np.zeros(C, dtype=np.int64)
        self.hist = np.zeros((C, N + 1), dtype=np.int64)
        self.ctx_thread = np.full((C, N), -1, dtype=np.int64)
        self.resident = np.zeros((C, T), dtype=bool)
        self.stall = np.zeros((C, T), dtype=np.int64)
        self.pending = np.zeros((C, T), dtype=bool)
        self.pend_rec = np.zeros((C, T), dtype=np.int64)
        self.cursor = np.zeros((C, T), dtype=np.int64)
        self.tsid = np.zeros((C, T), dtype=np.int64)
        for ci, (progs, _, _) in enumerate(self.cells):
            for i, p in enumerate(progs):
                self.tsid[ci, i] = self._stream_ids[(id(p), i)]
        self.th_instr = np.zeros((C, T), dtype=np.int64)
        self.th_ops = np.zeros((C, T), dtype=np.int64)
        self.th_dmiss = np.zeros((C, T), dtype=np.int64)
        self.th_imiss = np.zeros((C, T), dtype=np.int64)
        self.th_takens = np.zeros((C, T), dtype=np.int64)

        # event-maintained flat lookup rows: per-cell context -> flat
        # (cell, thread) fetch indices and per-rotation port -> thread
        # tables.  They change only at context switches, so the wave
        # loop gathers rows instead of recomputing the mapping.
        self.NPLX = npl_max
        self.CTF = np.zeros((C, N), dtype=np.int64)
        self.VALID = np.zeros((C, N), dtype=bool)
        self.TH2 = np.full((C * npl_max, N), -1, dtype=np.int64)
        self.VAL2 = np.zeros((C * npl_max, N), dtype=bool)
        self.FT2 = np.zeros((C * npl_max, N), dtype=np.int64)
        self._lanes_dirty = True

        self.ctls = [
            _CellCtl(self, ci, len(progs), cfg.seed)
            for ci, (progs, _, _) in enumerate(self.cells)
        ]
        for ctl in self.ctls:
            ctl.begin()

    def refresh_cell(self, ci: int) -> None:
        """Refresh one cell's flat lookup rows after a context switch."""
        np = self.np
        ct = self.ctx_thread[ci]
        self.VALID[ci] = ct >= 0
        self.CTF[ci] = ci * self.T + np.maximum(ct, 0)
        cs = self.PERM[self.pid_c[ci]]
        th = np.where(cs >= 0, ct[np.maximum(cs, 0)], -1)
        r0 = ci * self.NPLX
        r1 = r0 + self.NPLX
        self.TH2[r0:r1] = th
        self.VAL2[r0:r1] = th >= 0
        self.FT2[r0:r1] = ci * self.T + np.maximum(th, 0)

    # ----------------------------------------------------------- ingest
    def _ingest(self, sid: int) -> None:
        st = self.streams[sid]
        fill = int(self.filled[sid])
        room = self.H - fill
        buf = st.materialize(min(CHUNK, room))
        start = st._pos
        take = min(len(buf) - start, room)
        if take <= 0:
            raise RuntimeError(
                "batch record buffer exhausted: a thread fetched past the "
                "warmup+measurement instruction bound")
        g = sid * self.H + fill
        mc = self._mop_cache
        m64 = (1 << 64) - 1
        i_perf = self.i_perf
        d_perf = self.d_perf
        if not i_perf:
            ishift = self._i_shift
            insets = self._i_nsets
            ipow2 = insets & (insets - 1) == 0
            r_iline = self.r_iline
            r_iset = self.r_iset
        if not d_perf:
            dshift = self._d_shift
            dnsets = self._d_nsets
            dpow2 = dnsets & (dnsets - 1) == 0
            r_dline = self.r_dline
            r_dset = self.r_dset
            r_dload = self.r_dload
        r_mask = self.r_mask
        r_plimb = self.r_plimb
        r_nops = self.r_nops
        r_taken = self.r_taken
        r_na = self.r_na
        NL = self.NL
        for mop, taken, addrs, _ in buf[start:start + take]:
            ent = mc.get(id(mop))
            if ent is None:
                limbs = tuple((mop.packed >> (64 * li)) & m64
                              for li in range(NL))
                if i_perf:
                    iline = iset = 0
                else:
                    iline = mop.address >> ishift
                    iset = iline & (insets - 1) if ipow2 else iline % insets
                ent = (mop, mop.mask, limbs, mop.n_ops, iline, iset,
                       mop.mem_is_load)
                mc[id(mop)] = ent
            _, mask, limbs, nops, iline, iset, loads = ent
            r_mask[g] = mask
            r_plimb[g] = limbs
            r_nops[g] = nops
            r_taken[g] = taken
            r_na[g] = len(addrs)
            if not i_perf:
                r_iline[g] = iline
                r_iset[g] = iset
            if addrs and not d_perf:
                for k, addr in enumerate(addrs):
                    line = addr >> dshift
                    r_dline[g, k] = line
                    r_dset[g, k] = (line & (dnsets - 1) if dpow2
                                    else line % dnsets)
                    r_dload[g, k] = loads[k]
            g += 1
        self.filled[sid] = fill + take
        # mark converted records consumed; leftovers stay buffered
        st._pos = start + take

    # ------------------------------------------------------------ merge
    def _merge_multi(self, pid, recs, ready, rb):
        """Selection ids for lanes with >= 2 ready ports.

        Lanes with exactly two ready ports — the common contested case —
        collapse to one vectorized predicate at the pair's lowest common
        ancestor (``SchemePlan.pair_table``): the SMT capacity test and
        the CSMT overlap test run as elementwise limb arithmetic.  Lanes
        with three or more ready ports evaluate the plan's 3-step
        register program (:meth:`_merge_prog`).
        """
        np = self.np
        if not self._vec_merge:  # exotic port order: exact scalar path
            return self._merge_rest(pid, recs, ready)
        nm = self._nat_merge
        if nm is not None:  # native register program for every lane
            L = pid.shape[0]
            out = np.empty(L, dtype=np.int64)
            nm(pid.ctypes.data, recs.ctypes.data, ready.ctypes.data,
               L, self.N, self.NL,
               self.r_mask.ctypes.data, self.r_plimb.ctypes.data,
               self.RA.ctypes.data, self.RB.ctypes.data,
               self.RSMT.ctypes.data,
               self.CAPS_L.ctypes.data, self.HIGH_L.ctypes.data,
               out.ctypes.data)
            return self.SELSUB[out]
        pairm = self.PC[rb] == 2
        if not pairm.any():
            return self._merge_prog(pid, recs, ready)
        every = pairm.all()
        if every:
            pp, rbp, rp = pid, rb, recs
        else:
            pp = pid[pairm]
            rbp = rb[pairm]
            rp = recs[pairm]
        N = self.N
        i = self.B0[rbp]
        j = self.B1[rbp]
        fb = np.arange(pp.shape[0], dtype=np.int64) * N
        rpf = rp.reshape(-1)
        ga = rpf.take(fb + i)
        gb = rpf.take(fb + j)
        high = self.HIGH_L[pp]
        tl = self.r_plimb[ga] + self.r_plimb[gb]
        fit = ((self.CAPS_L[pp] - tl) & high) == high
        ok = fit[:, 0]
        for li in range(1, self.NL):
            ok = ok & fit[:, li]
        tix = pp * (N * N) + i * N + j
        ok = np.where(self.PT_SMT.take(tix), ok,
                      (self.r_mask.take(ga) & self.r_mask.take(gb)) == 0)
        res = np.where(ok, self.PT_AB.take(tix), self.PT_A.take(tix))
        if every:
            return res
        out = np.empty(pid.shape[0], dtype=np.int64)
        out[pairm] = res
        rest = ~pairm
        out[rest] = self._merge_prog(pid[rest], recs[rest], ready[rest])
        return out

    def _merge_prog(self, pid, recs, ready):
        """Register-program selection for lanes with >= 3 ready ports.

        Evaluates every lane's compiled scheme plan at once: each plan
        is a 3-step register program (see :meth:`build`) whose step
        operands are table-gathered per lane.
        """
        np = self.np
        L = pid.shape[0]
        N = self.N
        NL = self.NL
        NREG = self.NREG
        Rm = np.full((L, NREG), -1, dtype=np.int64)
        Rm[:, :N] = np.where(ready, self.r_mask[recs], -1)
        Rs = np.zeros((L, NREG), dtype=np.int64)
        Rs[:, :N] = ready * self._POW2
        Rl = np.zeros((L, NREG, NL), dtype=np.uint64)
        Rl[:, :N, :] = self.r_plimb[recs]  # invalid ports masked by Rm
        caps = self.CAPS_L[pid]
        high = self.HIGH_L[pid]
        Rm_f = Rm.reshape(-1)
        Rs_f = Rs.reshape(-1)
        Rl_f = Rl.reshape(-1, NL)
        rbase = np.arange(L, dtype=np.int64) * NREG
        for s in range(3):
            ia = rbase + self.RA[pid, s]
            ib = rbase + self.RB[pid, s]
            am = Rm_f[ia]
            bm = Rm_f[ib]
            asel = Rs_f[ia]
            bsel = Rs_f[ib]
            al = Rl_f[ia]
            bl = Rl_f[ib]
            tl = al + bl
            fit = ((caps - tl) & high) == high
            ok = fit[:, 0]
            for li in range(1, NL):
                ok = ok & fit[:, li]
            ok = np.where(self.RSMT[pid, s], ok, (am & bm) == 0)
            inva = am < 0
            mrg = ok & ~inva & (bm >= 0)
            Rm[:, N + s] = np.where(inva, bm, np.where(mrg, am | bm, am))
            Rs[:, N + s] = np.where(inva, bsel,
                                    np.where(mrg, asel | bsel, asel))
            Rl[:, N + s] = np.where(inva[:, None], bl,
                                    np.where(mrg[:, None], tl, al))
        return self.SELSUB[Rs[:, N + 2]]

    def _merge_rest(self, pid, recs, ready):
        """Per-lane exact fallback through the plans' ``select_ports``."""
        np = self.np
        NL = self.NL
        masks = np.where(ready, self.r_mask[recs], -1).tolist()
        limbs = self.r_plimb[recs].tolist()
        out = []
        plans = self.plans
        sel_ids = self._sel_ids
        for k, p in enumerate(pid.tolist()):
            info = plans[p]
            args = []
            mrow = masks[k]
            lrow = limbs[k]
            for q in range(info.n_ports):
                if mrow[q] >= 0:
                    pk = 0
                    for li in range(NL):
                        pk |= lrow[q][li] << (64 * li)
                    args.append(mrow[q])
                    args.append(pk)
                else:
                    args.append(-1)
                    args.append(0)
            sel = info.select_ports(*args)
            sid = sel_ids.get(sel)
            out.append(sid if sid is not None else self._intern_sel(sel))
        return np.array(out, dtype=np.int64)

    # -------------------------------------------------------------- run
    def run(self) -> None:
        np = self.np
        C = self.C
        N = self.N
        T = self.T
        A = self.A
        NH = N + 1
        cyc = self.cyc
        run_end = self.run_end
        active = self.active
        finished = self.finished
        rot = self.rot
        stall = self.stall
        # flat views: scatter/gather with precomputed flat indices is
        # much cheaper than 2D fancy indexing in the wave loop
        stall_f = stall.reshape(-1)
        pending_f = self.pending.reshape(-1)
        pend_rec_f = self.pend_rec.reshape(-1)
        cursor_f = self.cursor.reshape(-1)
        tsid_f = self.tsid.reshape(-1)
        th_instr_f = self.th_instr.reshape(-1)
        th_ops_f = self.th_ops.reshape(-1)
        th_imiss_f = self.th_imiss.reshape(-1)
        th_dmiss_f = self.th_dmiss.reshape(-1)
        th_takens_f = self.th_takens.reshape(-1)
        hist_f = self.hist.reshape(-1)
        filled = self.filled
        base = self.base
        i_perf = self.i_perf
        d_perf = self.d_perf
        i_penalty = self.i_penalty
        d_penalty = self.d_penalty
        brp_c = self.brp_c
        arangeA = np.arange(A, dtype=np.int64)[None, :]
        if not d_perf:
            r_dset_f = self.r_dset.reshape(-1)
            r_dline_f = self.r_dline.reshape(-1)
            r_dload_f = self.r_dload.reshape(-1)
        lanes = lanesnpl = None

        while True:
            ev = active & (finished | (cyc >= run_end))
            if ev.any():
                for ci in np.nonzero(ev)[0]:
                    self.ctls[ci].on_event()
            if self._lanes_dirty:
                lanes = np.nonzero(active)[0]
                if lanes.size == 0:
                    return
                lanesnpl = lanes * self.NPLX
                self._lanes_dirty = False
            cy = cyc.take(lanes)

            # ------------------------------------------------- fetch
            ftall = self.CTF[lanes]
            need = (self.VALID[lanes] & ~pending_f.take(ftall)
                    & (stall_f.take(ftall) <= cy[:, None]))
            nzf = np.nonzero(need.reshape(-1))[0]
            if nzf.size:
                fflat = ftall.reshape(-1).take(nzf)
                fc = lanes.take(nzf // N)
                sids = tsid_f.take(fflat)
                curs = cursor_f.take(fflat)
                lag = curs >= filled.take(sids)
                while lag.any():
                    for sid in np.unique(sids[lag]):
                        self._ingest(int(sid))
                    lag = curs >= filled.take(sids)
                recs = base.take(sids) + curs
                pending_f[fflat] = True
                pend_rec_f[fflat] = recs
                cursor_f[fflat] = curs + 1
                if i_perf:
                    self.ihits += np.bincount(fc, minlength=C)
                elif self.icache_t.nat is not None:
                    self.icache_t.probe_fetch(
                        fc, self.r_iset.take(recs), self.r_iline.take(recs),
                        fflat, cyc, i_penalty, self.ihits, self.imisses,
                        th_imiss_f, stall_f)
                else:
                    hit = self.icache_t.probe(
                        fc, self.r_iset.take(recs), self.r_iline.take(recs))
                    self.ihits += np.bincount(fc[hit], minlength=C)
                    im = ~hit
                    if im.any():
                        mflat = fflat[im]
                        mc_ = fc[im]
                        self.imisses += np.bincount(mc_, minlength=C)
                        th_imiss_f[mflat] += 1
                        stall_f[mflat] = cyc.take(mc_) + i_penalty

            # ------------------------------------------------- ready
            ri = rot.take(lanes)
            fidx = lanesnpl + ri
            th_p = self.TH2[fidx]
            ft = self.FT2[fidx]
            ready = (self.VAL2[fidx] & pending_f.take(ft)
                     & (stall_f.take(ft) <= cy[:, None]))
            recs2 = pend_rec_f.take(ft)
            rb = ready.astype(np.int8) @ self._POW2

            idle = rb == 0
            if idle.any():
                il = lanes[idle]
                stall_r = np.where(self.resident[il], stall[il], _INF)
                nxt = stall_r.min(1)
                tgt = np.minimum(nxt, run_end[il])
                skip = tgt - cyc[il]
                self.vw[il] += skip
                cyc[il] = tgt
                rot[il] = (ri[idle] + skip) % self.npl_c[il]

            busy = ~idle
            if not busy.any():
                continue
            bl = lanes[busy]
            th_pb = th_p[busy]
            recs2b = recs2[busy]
            nm = self._nat_merge
            if nm is not None:
                # native register program over every busy lane: exact
                # for single-ready lanes too, and cheaper than carving
                # out the contested subset
                pidb = self.pid_c.take(bl)
                readyb = ready[busy]
                sel = np.empty(bl.shape[0], dtype=np.int64)
                nm(pidb.ctypes.data, recs2b.ctypes.data,
                   readyb.ctypes.data, bl.shape[0], N, self.NL,
                   self.r_mask.ctypes.data, self.r_plimb.ctypes.data,
                   self.RA.ctypes.data, self.RB.ctypes.data,
                   self.RSMT.ctypes.data,
                   self.CAPS_L.ctypes.data, self.HIGH_L.ctypes.data,
                   sel.ctypes.data)
                sel = self.SELSUB[sel]
            else:
                rbb = rb[busy]
                sel = self.SEL1[rbb]
                multi = self.MULTI[rbb]
                if multi.any():
                    sel[multi] = self._merge_multi(self.pid_c.take(bl[multi]),
                                                   recs2b[multi],
                                                   ready[busy][multi],
                                                   rbb[multi])

            # ------------------------------------------------- issue
            P2 = self.SEL_PORT[sel]
            slen = self.SEL_LEN.take(sel)
            nzv = np.nonzero((P2 >= 0).reshape(-1))[0]
            rows2 = nzv // N
            b2 = rows2 * N + P2.reshape(-1).take(nzv)
            ith = th_pb.reshape(-1).take(b2)
            ig = recs2b.reshape(-1).take(b2)
            icell = bl.take(rows2)
            iflat = icell * T + ith
            tcur = th_instr_f.take(iflat) + 1
            th_instr_f[iflat] = tcur
            th_ops_f[iflat] += self.r_nops.take(ig)
            self.instrs_c[bl] += slen
            hist_f[bl * NH + slen] += 1
            tk = self.r_taken.take(ig)
            pen = np.zeros(nzv.size, dtype=np.int64)
            if tk.any():
                th_takens_f[iflat[tk]] += 1
                pen[tk] = brp_c.take(icell[tk])
            na_g = self.r_na.take(ig)
            if d_perf:
                self.dhits += np.bincount(icell, weights=na_g,
                                          minlength=C).astype(np.int64)
            elif na_g.any():
                nze = np.nonzero((arangeA < na_g[:, None]).reshape(-1))[0]
                erows = nze // A
                gec = ig.take(erows) * A + (nze - erows * A)
                ac = icell.take(erows)
                if self.dcache_t.nat is not None:
                    self.dcache_t.probe_data(
                        ac, r_dset_f.take(gec), r_dline_f.take(gec),
                        r_dload_f.take(gec), erows, iflat, d_penalty,
                        self.dhits, self.dmisses, th_dmiss_f, pen)
                else:
                    hit = self.dcache_t.probe(ac, r_dset_f.take(gec),
                                              r_dline_f.take(gec))
                    self.dhits += np.bincount(ac[hit], minlength=C)
                    dm = ~hit
                    if dm.any():
                        self.dmisses += np.bincount(ac[dm], minlength=C)
                        self.th_dmiss += np.bincount(
                            iflat.take(erows[dm]),
                            minlength=C * T).reshape(C, T)
                        lm = dm & r_dload_f.take(gec)
                        if lm.any():
                            pen += np.bincount(erows[lm],
                                               minlength=nzv.size) * d_penalty
            pp = pen > 0
            if pp.any():
                stall_f[iflat[pp]] = cyc.take(icell[pp]) + 1 + pen[pp]
            pending_f[iflat] = False
            lim = tcur >= self.cur_limit.take(icell)
            if lim.any():
                finished[icell[lim]] = True
            cyc[bl] += 1
            rot[bl] = (ri[busy] + 1) % self.npl_c[bl]

    # ----------------------------------------------------------- result
    def result(self, ci: int) -> RunResult:
        np = self.np
        progs, _, _ = self.cells[ci]
        m = len(progs)
        stats = SimStats(
            cycles=int(self.cyc[ci] - self.start[ci]),
            ops=int(self.th_ops[ci].sum()),
            instrs=int(self.instrs_c[ci]),
            vertical_waste=int(self.vw[ci]),
            merged_hist={
                int(k): int(self.hist[ci, k])
                for k in range(1, self.N + 1)
                if self.hist[ci, k]
            },
            context_switches=int(self.ctxsw[ci]),
        )
        threads = [
            _BatchThread(
                f"{p.name}#{i}",
                int(self.th_instr[ci, i]),
                int(self.th_ops[ci, i]),
                int(self.th_dmiss[ci, i]),
                int(self.th_imiss[ci, i]),
                int(self.th_takens[ci, i]),
            )
            for i, p in enumerate(progs)
        ]
        es = EngineStats(engine="batch", batch_cells=len(self.cells),
                         batch_groups=1)
        return RunResult(
            stats=stats,
            threads=threads,
            icache=_BatchCache(int(self.ihits[ci]), int(self.imisses[ci])),
            dcache=_BatchCache(int(self.dhits[ci]), int(self.dmisses[ci])),
            engine_stats=es.as_dict(),
        )


def run_workloads_batch(tasks, config=None):
    """Run many ``(programs, scheme_name)`` cells in one lockstep group.

    Returns one :class:`RunResult` per task, in order.  Tasks may mix
    machines and schemes freely; a task the lockstep loop cannot model
    (a scheme wider than :data:`MAX_PORTS` ports) yields ``None``: the
    caller falls back to a per-cell engine for those.  All tasks share
    one ``config`` (the compatibility predicate for grouping), and
    every result is bit-identical to the same cell run through
    :func:`repro.sim.run_workload`.
    """
    from repro.sim.config import SimConfig

    np = _numpy()
    config = config or SimConfig()
    sim = _LockstepSim(config, np)
    slots: list[int | None] = []
    for programs, scheme_name in tasks:
        try:
            slots.append(sim.add_cell(programs, scheme_name))
        except _Unbatchable:
            slots.append(None)
    out: list[RunResult | None] = [None] * len(slots)
    if any(s is not None for s in slots):
        sim.build()
        sim.run()
        for i, s in enumerate(slots):
            if s is not None:
                out[i] = sim.result(s)
        # each controller holds the sim: break the cycle so the group's
        # arrays are freed on return, not at the next cyclic collection.
        sim.ctls.clear()
    return out


ENGINES[BatchEngine.name] = BatchEngine
