"""Design-space utilities: pareto frontiers and scheme recommendation.

The paper's Section 5.2 walks the cost/performance space by hand ("if the
cost of a 2-Thread SMT can be afforded, then 2SC3 and 3SCC are
attractive...").  This module mechanizes that walk so users can query the
trade-off for their own budgets, machines and workloads - the natural
follow-on the conclusions invite.  ``repro-eval sweep`` feeds it the
*entire* enumerated design space (:mod:`repro.eval.sweep`), not just the
paper's 16 schemes, and the guided search (:mod:`repro.eval.search`)
re-joins it after every fidelity rung, so the join is written to stay
cheap at thousands of points: a scheme is priced once per process
(:func:`named_scheme_cost`), and :func:`pareto_frontier` and
:func:`frontier_neighborhood` each cost O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import groupby

from repro.cost import CostParams, SchemeCost, scheme_cost
from repro.merge import PAPER_SCHEMES, canonical, get_scheme

__all__ = ["DesignPoint", "design_points", "frontier_neighborhood",
           "named_scheme_cost", "pareto_frontier", "recommend"]

_DEFAULT_PARAMS = CostParams()


def named_scheme_cost(name: str, m_clusters: int = 4,
                      params: CostParams | None = None) -> SchemeCost:
    """:func:`~repro.cost.scheme_cost` of the scheme called ``name``,
    walked once per process for each ``(name, m_clusters, params)``.

    A cost is a pure function of those three, so every later call is a
    lookup.  The memo is keyed by name, not by
    :func:`~repro.merge.semantic_key`: schemes that simulate alike can
    still differ in hardware (``C4`` and ``3CCC`` do).
    """
    return _walk_cost(name.upper(), m_clusters,
                      _DEFAULT_PARAMS if params is None else params)


@lru_cache(maxsize=None)
def _walk_cost(name: str, m_clusters: int,
               params: CostParams) -> SchemeCost:
    return scheme_cost(get_scheme(name), m_clusters, params)


@dataclass(frozen=True)
class DesignPoint:
    """One scheme in the performance/cost plane.

    ``aliases`` lists other schemes folded into this point because they
    occupy the *exact* same (ipc, transistors, gate_delays) coordinates
    (set by :func:`pareto_frontier`'s tie dedup); it is excluded from
    equality so a deduplicated frontier member still compares equal to
    the original input point it represents.
    """

    scheme: str
    ipc: float
    transistors: int
    gate_delays: int
    aliases: tuple = field(default=(), compare=False)

    def to_dict(self) -> dict:
        """JSON-able form used by artifact meta (``aliases`` only when
        ties were folded, keeping alias-free artifacts unchanged)."""
        d = {"scheme": self.scheme, "ipc": self.ipc,
             "transistors": self.transistors,
             "gate_delays": self.gate_delays}
        if self.aliases:
            d["aliases"] = list(self.aliases)
        return d

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: at least as good on all axes, better on one."""
        ge = (self.ipc >= other.ipc
              and self.transistors <= other.transistors
              and self.gate_delays <= other.gate_delays)
        gt = (self.ipc > other.ipc
              or self.transistors < other.transistors
              or self.gate_delays < other.gate_delays)
        return ge and gt


def design_points(avg_ipc: dict, m_clusters: int = 4,
                  schemes=None, params=None) -> list[DesignPoint]:
    """Join measured average IPCs with modelled hardware costs.

    ``avg_ipc`` maps scheme names (or their canonical cascades) to IPC,
    e.g. ``Session(...).run("fig10").meta['avg_ipc']`` flattened, or any
    user measurement.  ``params`` overrides the cost model's
    :class:`~repro.cost.gates.CostParams` (e.g. the
    :meth:`~repro.cost.gates.CostParams.fit` calibration).
    """
    flat: dict[str, float] = {}
    for label, ipc in avg_ipc.items():
        for name in label.split(","):
            flat[name.strip().upper()] = ipc
    out = []
    for name in schemes or (["1S"] + PAPER_SCHEMES):
        name = name.upper()
        ipc = flat.get(name)
        if ipc is None:
            ipc = flat.get(canonical(name))
            if ipc is None:
                continue
        c = named_scheme_cost(name, m_clusters, params)
        out.append(DesignPoint(name, ipc, c.transistors, c.gate_delays))
    return out


def _dedupe_ties(points) -> list[DesignPoint]:
    """One point per exact (ipc, transistors, gate_delays) coordinate.

    Identical coordinates never dominate each other (dominance needs one
    strict inequality), so without this every duplicate survives into
    the frontier — the enumerated sweep spaces contain many cost-tied
    schemes and their frontiers bloat with interchangeable entries.  The
    representative is the lexicographically-first scheme name; the
    folded names are recorded on ``aliases`` (pre-existing aliases are
    merged in, so deduplication is idempotent).
    """
    groups: dict[tuple, list[DesignPoint]] = {}
    for p in points:
        groups.setdefault((p.ipc, p.transistors, p.gate_delays),
                          []).append(p)
    out = []
    for tied in groups.values():
        if len(tied) == 1:
            out.append(tied[0])
            continue
        rep = min(tied, key=lambda p: p.scheme)
        names = {a for p in tied for a in p.aliases}
        names.update(p.scheme for p in tied)
        names.discard(rep.scheme)
        if set(rep.aliases) != names:
            rep = replace(rep, aliases=tuple(sorted(names)))
        out.append(rep)
    return out


def pareto_frontier(points) -> list[DesignPoint]:
    """Non-dominated points, sorted by increasing transistor count.

    Exact coordinate ties are deduplicated first (see
    :func:`_dedupe_ties`): each frontier entry is the
    lexicographically-first scheme of its tie group and carries the
    folded names on :attr:`DesignPoint.aliases`.

    Points are scanned in (transistors, gate_delays, -ipc) order, so
    any dominator of a point sorts strictly before it.  Conversely,
    after the tie dedup every earlier point with at most the point's
    gate delays and at least its IPC is a dominator (it is no costlier
    in transistors, and an equal-cost one has strictly more IPC).  A
    prefix-max tree over gate-delay ranks holds the frontier so far, so
    each point costs one O(log n) query and the scan O(n log n).  A NaN
    IPC never enters the tree and is never dominated.
    """
    ordered = sorted(_dedupe_ties(points),
                     key=lambda p: (p.transistors, p.gate_delays, -p.ipc))
    rank = {d: i + 1 for i, d in enumerate(
        sorted({p.gate_delays for p in ordered}))}
    # Fenwick prefix max of frontier IPC; NaN marks an empty node,
    # because no comparison with it holds
    tree = [float("nan")] * (len(rank) + 1)
    front: list[DesignPoint] = []
    for p in ordered:
        ipc, i = p.ipc, rank[p.gate_delays]
        j = i
        while j and not tree[j] >= ipc:
            j -= j & -j
        if j:
            continue                       # an earlier point dominates p
        front.append(p)
        if ipc == ipc:                     # a NaN IPC never enters
            while i < len(tree):
                if not tree[i] >= ipc:
                    tree[i] = ipc
                i += i & -i
    return sorted(front, key=lambda p: (p.transistors, -p.ipc))


def frontier_neighborhood(points, eps: float = 0.05) -> list[DesignPoint]:
    """Points within ``eps`` relative IPC of the Pareto frontier.

    A point survives unless some other point matches or beats both of
    its cost axes while delivering more than ``(1 + eps)`` times its
    IPC — i.e. the point is *eps-non-dominated*.  Strictly dominated
    points whose IPC is within the ``eps`` band stay in, which is the
    point: guided search promotes this neighborhood between fidelity
    rungs, and low-fidelity IPC is noisy enough that promoting only the
    exact frontier would drop designs whose true rank is
    frontier-worthy.  The result is always a superset of
    :func:`pareto_frontier` (a frontier member is never eps-dominated).

    Ties are deduplicated exactly as in :func:`pareto_frontier` (the
    returned points carry ``aliases``); sorted by increasing transistor
    count.

    O(n log n): points are swept in transistor order, each block of
    equal transistor counts inserted into a prefix-max tree over
    gate-delay ranks before any of its points is queried.  The tree
    then holds every point at most as costly in transistors, and its
    prefix max over the point's gate delays is the best IPC that could
    eps-dominate it — the same answer as comparing all pairs.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    deduped = _dedupe_ties(points)
    rank = {d: i + 1 for i, d in enumerate(
        sorted({p.gate_delays for p in deduped}))}
    tree = [float("-inf")] * (len(rank) + 1)   # Fenwick, prefix max IPC
    out = []
    for _, block in groupby(sorted(deduped, key=lambda p: p.transistors),
                            key=lambda p: p.transistors):
        block = list(block)
        for q in block:
            i = rank[q.gate_delays]
            while i < len(tree):
                if q.ipc > tree[i]:        # a NaN IPC never enters
                    tree[i] = q.ipc
                i += i & -i
        for p in block:
            best, i = float("-inf"), rank[p.gate_delays]
            while i:
                best = max(best, tree[i])
                i -= i & -i
            bar = p.ipc * (1 + eps)
            # the tree holds p itself, which only a negative IPC
            # clears; then the dominator must be another point
            if best > bar and (p.ipc <= bar or any(
                    q.transistors <= p.transistors
                    and q.gate_delays <= p.gate_delays
                    and q.ipc > bar for q in deduped if q is not p)):
                continue
            out.append(p)
    return sorted(out, key=lambda p: (p.transistors, -p.ipc))


def recommend(points, max_transistors: float | None = None,
              max_gate_delays: float | None = None) -> DesignPoint | None:
    """Best scheme within a hardware budget (the Section 5.2 walk).

    Returns the highest-IPC point satisfying both limits, preferring
    fewer transistors on ties and the lexicographically-first scheme
    name on exact coordinate ties (matching the frontier's tie dedup);
    None if the budget admits nothing.
    """
    ok = [
        p for p in points
        if (max_transistors is None or p.transistors <= max_transistors)
        and (max_gate_delays is None or p.gate_delays <= max_gate_delays)
    ]
    if not ok:
        return None
    return min(ok, key=lambda p: (-p.ipc, p.transistors, p.gate_delays,
                                  p.scheme))
