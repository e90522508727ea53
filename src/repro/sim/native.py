"""Optional native kernels for the lockstep group simulator's inner loops.

Like :mod:`repro.sim.batch`, this is a library that no program path
calls; its differential suite and the campaign benchmark harness still
reach it.

The lockstep group simulator is bound by numpy *call* overhead, not
element work: a wave over hundreds of cells issues hundreds of small
array operations, and the two cache probes plus the merge selection
dominate.  Both are tiny, branchy, sequential loops — exactly what a
C compiler is good at and numpy is not.

This module compiles two kernels with the system C compiler the first
time a batch group runs:

* ``probe_lru`` — the ordered true-LRU tag probe (one pass over the
  access list, per-set way scan, timestamp update), replacing the
  round-partitioned vectorized probe;
* ``merge_multi`` — the per-lane merge-plan register program over SWAR
  limbs, replacing the pair-table / register-file array evaluation.

Both are line-for-line transcriptions of the numpy implementations in
``batch.py`` and keep bit-identity: the probe maintains the same
relative stamp order (strictly increasing per access) and first-match /
first-minimum way choice; the merge program implements the identical
pass-through / merge / keep-left step semantics.

Everything is best-effort: no compiler, a failed compile, an unloadable
library, or ``REPRO_NO_NATIVE=1`` all yield ``None`` and the lockstep
simulator silently stays on its pure-numpy paths.  The shared object is
cached under ``$REPRO_CACHE_DIR/native`` when that variable is set,
else under a per-user temp directory, keyed by the digest of the C
source so editing the kernels invalidates stale builds.
"""

from __future__ import annotations

import os

__all__ = ["get_native"]

_SRC = r"""
#include <stdint.h>

/* Ordered true-LRU probe over flat per-(cell,set) way arrays.
 *
 * Accesses are processed strictly in list order.  A hit rewrites the
 * matching way's stamp; a miss evicts the first minimum-stamp way.
 * The stamp counter increments per access, which preserves the same
 * relative per-set stamp order as the vectorized numpy probe (stamps
 * are only ever compared within one set). */
void probe_lru(int64_t *tags, int64_t *stamps, int64_t *ctr_io,
               int64_t nsets, int64_t assoc,
               const int64_t *cells, const int64_t *sets,
               const int64_t *lines, int64_t n, uint8_t *hit_out)
{
    int64_t ctr = *ctr_io;
    for (int64_t k = 0; k < n; k++) {
        int64_t base = (cells[k] * nsets + sets[k]) * assoc;
        int64_t line = lines[k];
        int64_t slot = -1;
        int64_t min_slot = 0;
        int64_t min_stamp = stamps[base];
        for (int64_t a = 0; a < assoc; a++) {
            if (tags[base + a] == line) { slot = a; break; }
            if (stamps[base + a] < min_stamp) {
                min_stamp = stamps[base + a];
                min_slot = a;
            }
        }
        if (slot >= 0) {
            hit_out[k] = 1;
        } else {
            hit_out[k] = 0;
            slot = min_slot;
            tags[base + slot] = line;
        }
        stamps[base + slot] = ++ctr;
    }
    *ctr_io = ctr;
}

/* probe_lru fused with the fetch-side miss accounting: per-cell
 * hit/miss counters, per-(cell,thread) miss counters and the fetch
 * stall update all happen inside the access loop, replacing a chain
 * of bincounts and fancy-index scatters in the wave loop. */
void fetch_probe(int64_t *tags, int64_t *stamps, int64_t *ctr_io,
                 int64_t nsets, int64_t assoc,
                 const int64_t *cells, const int64_t *sets,
                 const int64_t *lines, int64_t n,
                 const int64_t *fflat, const int64_t *cyc,
                 int64_t penalty,
                 int64_t *hits_c, int64_t *misses_c,
                 int64_t *th_imiss, int64_t *stall)
{
    int64_t ctr = *ctr_io;
    for (int64_t k = 0; k < n; k++) {
        int64_t base = (cells[k] * nsets + sets[k]) * assoc;
        int64_t line = lines[k];
        int64_t slot = -1;
        int64_t min_slot = 0;
        int64_t min_stamp = stamps[base];
        for (int64_t a = 0; a < assoc; a++) {
            if (tags[base + a] == line) { slot = a; break; }
            if (stamps[base + a] < min_stamp) {
                min_stamp = stamps[base + a];
                min_slot = a;
            }
        }
        if (slot >= 0) {
            hits_c[cells[k]]++;
        } else {
            misses_c[cells[k]]++;
            int64_t f = fflat[k];
            th_imiss[f]++;
            stall[f] = cyc[cells[k]] + penalty;
            slot = min_slot;
            tags[base + slot] = line;
        }
        stamps[base + slot] = ++ctr;
    }
    *ctr_io = ctr;
}

/* probe_lru fused with the issue-side miss accounting: per-cell
 * hit/miss counters, per-(cell,thread) miss counters via the issuing
 * row's flat index, and the load-miss penalty accumulation. */
void dcache_probe(int64_t *tags, int64_t *stamps, int64_t *ctr_io,
                  int64_t nsets, int64_t assoc,
                  const int64_t *cells, const int64_t *sets,
                  const int64_t *lines, const uint8_t *is_load,
                  const int64_t *rows, const int64_t *iflat,
                  int64_t n, int64_t penalty,
                  int64_t *hits_c, int64_t *misses_c,
                  int64_t *th_dmiss, int64_t *pen)
{
    int64_t ctr = *ctr_io;
    for (int64_t k = 0; k < n; k++) {
        int64_t base = (cells[k] * nsets + sets[k]) * assoc;
        int64_t line = lines[k];
        int64_t slot = -1;
        int64_t min_slot = 0;
        int64_t min_stamp = stamps[base];
        for (int64_t a = 0; a < assoc; a++) {
            if (tags[base + a] == line) { slot = a; break; }
            if (stamps[base + a] < min_stamp) {
                min_stamp = stamps[base + a];
                min_slot = a;
            }
        }
        if (slot >= 0) {
            hits_c[cells[k]]++;
        } else {
            misses_c[cells[k]]++;
            th_dmiss[iflat[rows[k]]]++;
            if (is_load[k]) pen[rows[k]] += penalty;
            slot = min_slot;
            tags[base + slot] = line;
        }
        stamps[base + slot] = ++ctr;
    }
    *ctr_io = ctr;
}

/* Per-lane merge-plan register program (see _LockstepSim.build).
 *
 * Registers 0..N-1 hold the lane's per-port packets, N..N+2 the merge
 * results, N+3 the always-invalid dummy.  Step semantics match
 * Node.eval: left invalid -> take right, predicate ok and right valid
 * -> merged, else keep left.  SMT tests capacity on SWAR limb sums;
 * CSMT tests cluster-mask overlap.  Selections are port bitmasks
 * (ascending port order, guarded by _vec_merge on the Python side). */
void merge_multi(const int64_t *pid, const int64_t *recs,
                 const uint8_t *ready, int64_t L, int64_t N, int64_t NL,
                 const int64_t *r_mask, const uint64_t *r_plimb,
                 const int64_t *ra, const int64_t *rbv,
                 const uint8_t *rsmt,
                 const uint64_t *caps, const uint64_t *high,
                 int64_t *out_bits)
{
    int64_t rm[12];
    int64_t rs[12];
    uint64_t rl[12 * 8];
    for (int64_t k = 0; k < L; k++) {
        int64_t p = pid[k];
        const uint64_t *cp = caps + p * NL;
        const uint64_t *hp = high + p * NL;
        for (int64_t q = 0; q < N; q++) {
            if (ready[k * N + q]) {
                int64_t g = recs[k * N + q];
                rm[q] = r_mask[g];
                rs[q] = (int64_t)1 << q;
                for (int64_t li = 0; li < NL; li++)
                    rl[q * NL + li] = r_plimb[g * NL + li];
            } else {
                rm[q] = -1;
                rs[q] = 0;
                for (int64_t li = 0; li < NL; li++)
                    rl[q * NL + li] = 0;
            }
        }
        rm[N + 3] = -1;
        rs[N + 3] = 0;
        for (int64_t li = 0; li < NL; li++)
            rl[(N + 3) * NL + li] = 0;
        for (int64_t s = 0; s < 3; s++) {
            int64_t a = ra[p * 3 + s];
            int64_t b = rbv[p * 3 + s];
            int64_t am = rm[a];
            int64_t bm = rm[b];
            int ok;
            if (rsmt[p * 3 + s]) {
                ok = 1;
                for (int64_t li = 0; li < NL; li++) {
                    uint64_t t = rl[a * NL + li] + rl[b * NL + li];
                    if (((cp[li] - t) & hp[li]) != hp[li]) { ok = 0; break; }
                }
            } else {
                ok = (am & bm) == 0;
            }
            int64_t dst = N + s;
            if (am < 0) {
                rm[dst] = bm;
                rs[dst] = rs[b];
                for (int64_t li = 0; li < NL; li++)
                    rl[dst * NL + li] = rl[b * NL + li];
            } else if (ok && bm >= 0) {
                rm[dst] = am | bm;
                rs[dst] = rs[a] | rs[b];
                for (int64_t li = 0; li < NL; li++)
                    rl[dst * NL + li] = rl[a * NL + li] + rl[b * NL + li];
            } else {
                rm[dst] = am;
                rs[dst] = rs[a];
                for (int64_t li = 0; li < NL; li++)
                    rl[dst * NL + li] = rl[a * NL + li];
            }
        }
        out_bits[k] = rs[N + 2];
    }
}
"""

_lib = None
_tried = False


def _cache_dir() -> str:
    import tempfile

    cdir = os.environ.get("REPRO_CACHE_DIR")
    if cdir:
        return os.path.join(cdir, "native")
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-POSIX
        uid = 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _build():
    """Load the cached kernel library, compiling it on a miss (a
    ``ctypes.CDLL``)."""
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    digest = hashlib.sha256(_SRC.encode()).hexdigest()[:16]
    ndir = _cache_dir()
    os.makedirs(ndir, exist_ok=True)
    so = os.path.join(ndir, f"batchkern-{digest}.so")
    if not os.path.exists(so):
        cc = os.environ.get("CC", "cc")
        fd, csrc = tempfile.mkstemp(dir=ndir, suffix=".c")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(_SRC)
            tmp_so = csrc[:-2] + ".so.tmp"
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp_so, csrc],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp_so, so)  # atomic: concurrent builders race safely
        finally:
            try:
                os.unlink(csrc)
            except OSError:
                pass
    lib = ctypes.CDLL(so)
    i64 = ctypes.c_longlong
    ptr = ctypes.c_void_p
    lib.probe_lru.argtypes = [ptr, ptr, ptr, i64, i64, ptr, ptr, ptr,
                              i64, ptr]
    lib.probe_lru.restype = None
    lib.fetch_probe.argtypes = [ptr, ptr, ptr, i64, i64, ptr, ptr, ptr,
                                i64, ptr, ptr, i64, ptr, ptr, ptr, ptr]
    lib.fetch_probe.restype = None
    lib.dcache_probe.argtypes = [ptr, ptr, ptr, i64, i64, ptr, ptr, ptr,
                                 ptr, ptr, ptr, i64, i64, ptr, ptr, ptr,
                                 ptr]
    lib.dcache_probe.restype = None
    lib.merge_multi.argtypes = [ptr, ptr, ptr, i64, i64, i64, ptr, ptr,
                                ptr, ptr, ptr, ptr, ptr, ptr]
    lib.merge_multi.restype = None
    return lib


def get_native():
    """The compiled kernel library, or ``None`` when unavailable.

    The first call compiles (or loads the cached build of) the kernels;
    the outcome — library or ``None`` — is memoized for the process.
    ``REPRO_NO_NATIVE=1`` is checked per call so tests can exercise the
    pure-numpy paths without reloading the module.
    """
    global _lib, _tried
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    if _tried:
        return _lib
    _tried = True
    try:
        _lib = _build()
    except Exception:  # no compiler, sandboxed exec, bad toolchain, ...
        _lib = None
    return _lib
