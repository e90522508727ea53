"""Cross-machine scaling reports: join one experiment run per machine.

The paper's Section 5.2 walks the cost/performance plane of *one* fixed
machine.  The natural follow-on question — how each merging scheme's
IPC-vs-cost trade-off shifts as the clustered machine widens — needs the
same experiment run on several machine geometries and the per-machine
results joined.  :meth:`repro.eval.api.Session.run_matrix` produces that
fan-out as a :class:`MatrixResult`; this module turns it into a *scaling
report*:

* :func:`frontier_map` — the Pareto frontier per machine variant,
  cell-for-cell identical to an individually-run sweep on that machine
  (the frontiers are taken from each variant's own artifact);
* :func:`rank_stability` — how stable each scheme's IPC rank is across
  the machine axis (schemes whose rank never moves are safe choices at
  any width; volatile ones only pay off at specific geometries);
* :func:`budget_recommendations` — the Section 5.2 budget walk answered
  per machine, i.e. the recommended scheme as a function of cluster
  count / issue width;
* :func:`scaling_report` — all of the above as one renderable
  :class:`~repro.eval.result.ExperimentResult` artifact
  (``matrix.<experiment>``).

Reports require per-scheme average IPC in each joined result's
``meta["avg_ipc"]`` — design-space sweeps and fig10 both carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.pareto import design_points, pareto_frontier, recommend
from repro.eval.result import ExperimentResult

__all__ = [
    "MatrixResult",
    "budget_recommendations",
    "frontier_map",
    "rank_stability",
    "rank_stability_from_ipc",
    "scaling_report",
    "variant_label",
]


def variant_label(machine_tag: str, config_tag: str = "") -> str:
    """Display/meta key of one matrix variant (``"" `` = the default)."""
    label = machine_tag or "default"
    if config_tag:
        label += f"%{config_tag}"
    return label


@dataclass
class MatrixResult:
    """One experiment fanned out over machine/config variants.

    Produced by :meth:`repro.eval.api.Session.run_matrix`.  ``results``
    keys are ``(machine_tag, config_tag)`` pairs (``""`` = the session
    default); ``machines``/``configs`` map the *tags that ran* to their
    resolved :class:`~repro.arch.machine.Machine` /
    :class:`~repro.sim.SimConfig` objects.
    """

    experiment: str
    results: dict = field(default_factory=dict)
    machines: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)
    #: grid totals across every variant (0/0 when everything replayed
    #: from the session or store caches).
    executed: int = 0
    reused: int = 0

    def __getitem__(self, key) -> ExperimentResult:
        """Result of one variant: ``matrix["8c4w"]`` or
        ``matrix["8c4w", "half"]``."""
        if isinstance(key, str):
            key = (key, "")
        return self.results[key]

    def variants(self) -> list:
        """``(label, machine_tag, config_tag)`` per variant, run order."""
        return [(variant_label(m, c), m, c) for m, c in self.results]

    def machine_for(self, machine_tag: str):
        return self.machines[machine_tag]


def _scheme_ipc(result: ExperimentResult) -> dict:
    """Flatten ``meta['avg_ipc']`` group labels to per-scheme IPC."""
    avg = result.meta.get("avg_ipc")
    if avg is None:
        raise ValueError(
            f"result {result.experiment!r} carries no meta['avg_ipc']; "
            f"scaling reports join sweep or fig10 results")
    out = {}
    for label, ipc in avg.items():
        for name in label.split(","):
            out[name.strip()] = ipc
    return out


def _variant_points(result: ExperimentResult, machine) -> list:
    """The variant's design plane (every scheme, this machine's costs)."""
    schemes = sorted(_scheme_ipc(result))  # raises if no avg_ipc meta
    return design_points(result.meta["avg_ipc"],
                         m_clusters=machine.n_clusters, schemes=schemes)


def frontier_map(matrix: MatrixResult) -> dict:
    """Per-variant Pareto frontier, ``{label: [point dict, ...]}``.

    A variant's frontier is taken verbatim from its own artifact when
    present (``meta["frontier"]``, as sweeps record) — guaranteeing the
    matrix view matches an individually-run sweep cell-for-cell — and
    computed from ``meta["avg_ipc"]`` + the cost model at that machine's
    cluster count otherwise (fig10 results).
    """
    out = {}
    for (mtag, ctag), result in matrix.results.items():
        label = variant_label(mtag, ctag)
        recorded = result.meta.get("frontier")
        if recorded is not None:
            out[label] = [dict(p) for p in recorded]
        else:
            machine = matrix.machine_for(mtag)
            out[label] = [p.to_dict() for p in
                          pareto_frontier(_variant_points(result, machine))]
    return out


def rank_stability_from_ipc(ipc_by_variant: dict) -> dict:
    """Scheme IPC ranks per variant, and their spread across variants.

    ``ipc_by_variant`` maps variant labels to per-scheme IPC dicts.
    Rank 1 is the highest IPC on that variant (ties broken by scheme
    name, deterministically).  ``spread`` = max rank - min rank over the
    variants a scheme appears on **all** of; ``stable`` lists schemes
    whose rank never moves, ``volatile`` the movers sorted by descending
    spread.

    This is the shared rank analysis: :func:`rank_stability` feeds it
    one variant per matrix machine/config, and the guided search
    (:mod:`repro.eval.search`) feeds it consecutive fidelity rungs to
    decide which near-frontier candidates are rank-stable enough to
    promote.
    """
    ranks: dict[str, dict[str, int]] = {}
    labels = list(ipc_by_variant)
    for label, ipc in ipc_by_variant.items():
        ordered = sorted(ipc, key=lambda s: (-ipc[s], s))
        for rank, scheme in enumerate(ordered, 1):
            ranks.setdefault(scheme, {})[label] = rank
    everywhere = {s: r for s, r in ranks.items() if len(r) == len(labels)}
    spread = {s: max(r.values()) - min(r.values())
              for s, r in everywhere.items()}
    return {
        "variants": labels,
        "ranks": {s: ranks[s] for s in sorted(ranks)},
        "spread": {s: spread[s] for s in sorted(spread)},
        "stable": sorted(s for s, d in spread.items() if d == 0),
        "volatile": sorted(((s, d) for s, d in spread.items() if d > 0),
                           key=lambda sd: (-sd[1], sd[0])),
    }


def rank_stability(matrix: MatrixResult) -> dict:
    """Rank stability across a matrix's machine/config variants.

    A small stable set means the paper's scheme ordering survives
    machine scaling; a large volatile set means the best scheme
    genuinely depends on the geometry.  See
    :func:`rank_stability_from_ipc` for the report fields.
    """
    return rank_stability_from_ipc({
        variant_label(mtag, ctag): _scheme_ipc(result)
        for (mtag, ctag), result in matrix.results.items()})


def budget_recommendations(matrix: MatrixResult,
                           budget_transistors: float | None = None,
                           budget_gate_delays: float | None = None) -> dict:
    """The Section 5.2 budget walk per machine variant.

    Returns ``{label: point dict | None}`` — the best scheme within the
    budget on each variant (None when the budget admits nothing there).
    With no budget given this is each variant's unconstrained best
    (peak-IPC) scheme, which is still useful: it shows where the peak
    moves as the machine widens.
    """
    out = {}
    for (mtag, ctag), result in matrix.results.items():
        label = variant_label(mtag, ctag)
        points = _variant_points(result, matrix.machine_for(mtag))
        pick = recommend(points, max_transistors=budget_transistors,
                         max_gate_delays=budget_gate_delays)
        out[label] = pick.to_dict() if pick is not None else None
    return out


def scaling_report(matrix: MatrixResult,
                   budget_transistors: float | None = None,
                   budget_gate_delays: float | None = None
                   ) -> ExperimentResult:
    """Join a matrix run into one scaling-report artifact.

    One row per machine/config variant: the machine's scaling axes, its
    Pareto frontier (aliases folded), and the best/recommended scheme.
    ``meta`` carries the full per-variant frontiers, the rank-stability
    analysis and the budget recommendations for programmatic use.
    """
    if not matrix.results:
        raise ValueError("empty matrix: nothing to report")
    frontiers = frontier_map(matrix)
    stability = rank_stability(matrix)
    recs = budget_recommendations(matrix, budget_transistors,
                                  budget_gate_delays)
    budgeted = budget_transistors is not None or budget_gate_delays is not None

    rows = []
    for (mtag, ctag), result in matrix.results.items():
        label = variant_label(mtag, ctag)
        machine = matrix.machine_for(mtag)
        axes = machine.axes()
        front = frontiers[label]
        best = max(front, key=lambda p: p["ipc"]) if front else None
        pick = recs[label]
        rows.append((
            label, axes["clusters"], axes["issue_width"],
            axes["total_issue"],
            " ".join(p["scheme"] for p in front),
            best["scheme"] if best else "-",
            round(best["ipc"], 3) if best else "-",
            pick["scheme"] if pick else "(none)",
        ))

    notes = [
        f"{len(rows)} machine/config variants of {matrix.experiment!r} "
        f"joined; frontiers are per-variant (costs re-modelled at each "
        f"machine's cluster count)",
        f"rank stability: {len(stability['stable'])} schemes keep their "
        f"IPC rank across every variant"
        + (f"; most volatile: "
           + ", ".join(f"{s} (moves {d} ranks)"
                       for s, d in stability["volatile"][:3])
           if stability["volatile"] else "; no scheme moves rank"),
    ]
    if budgeted:
        budget = ", ".join(
            f"{label} <= {value:g}" for label, value in
            (("transistors", budget_transistors),
             ("gate delays", budget_gate_delays)) if value is not None)
        picks = {label: (p["scheme"] if p else "none")
                 for label, p in recs.items()}
        notes.append(
            f"budget {budget}: " + "; ".join(
                f"{label} -> {scheme}" for label, scheme in picks.items()))
    else:
        notes.append("no hardware budget given: 'recommended' is each "
                     "variant's unconstrained peak-IPC scheme")

    return ExperimentResult(
        experiment=f"matrix.{matrix.experiment}",
        title=(f"Cross-machine scaling report: {matrix.experiment} over "
               f"{len(rows)} machine variants"),
        columns=["variant", "clusters", "width", "total issue",
                 "frontier", "best scheme", "best IPC", "recommended"],
        rows=rows,
        notes=notes,
        meta={
            "experiment": matrix.experiment,
            "machines": {variant_label(m, c): matrix.machine_for(m).axes()
                for m, c in matrix.results},
            "frontiers": frontiers,
            "rank_stability": stability,
            "recommendations": recs,
            "budget": {"transistors": budget_transistors,
                       "gate_delays": budget_gate_delays},
        },
    )
