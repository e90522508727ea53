"""Scheme design-space sweeps: every well-formed N-thread merge scheme.

The paper's Section 5.2 walks cost/performance by hand over the 16
published 4-thread schemes.  This module mechanizes the walk over the
*entire* design space the naming grammar spans:

1. :func:`enumerate_names` generates every well-formed N-thread scheme
   name - all cascades of S / C / Ck tokens, the N=4 balanced trees, and
   the parallel ``CN`` block - qualified with ``@N`` whenever the bare
   name would parse to a different port count.
2. :func:`enumerate_candidates` dedupes them through
   :func:`repro.merge.registry.semantic_key` (parc-lowering + rotation
   schedule): each :class:`CandidateGroup` simulates once, via the
   member whose AST already is the parc-free normal form, and keeps
   every member as a distinct hardware design point.
3. :class:`SweepPlan` packages the deduplicated candidates with a
   workload grid - pure data, no simulation.  :meth:`SweepPlan.cells`
   expands (any subset of) the groups into the
   :mod:`~repro.eval.runner` grid over selectable Table 2 workloads -
   every workload keeps its four software threads and the OS model
   timeshares them over the scheme's N contexts, exactly as Figure 4
   runs 4-thread workloads on 1- and 2-context processors.  Grids run
   parallel (``jobs``), resumable (``store``) and shardable
   (:func:`~repro.eval.runner.shard_cells` + ``--shard i/N`` +
   :func:`~repro.eval.store.merge_runs`).
4. :func:`assemble_sweep` is the pure join: measured IPC x
   :func:`~repro.cost.scheme_cost` into :mod:`~repro.eval.pareto` design
   points, the Pareto frontier, and (under ``--budget-*`` limits) the
   Section 5.2 recommendation.  It never simulates, so any cell subset
   already in a store can be joined incrementally.
5. :meth:`Session.sweep <repro.eval.api.Session.sweep>` composes the
   three: build the plan, run its cells through the session's grid
   executor, assemble the artifact (or, for one ``--shard i/N`` slice,
   the partial cell report of :func:`shard_result`).

The split is what :mod:`~repro.eval.search` builds on: guided search
evaluates *subsets* of a plan's cells at several fidelities and joins
whatever is measured so far, without ever re-stating the enumeration or
the join.

The grammar grows fast - 17 names (12 semantics) at 4 threads, 89 at 6,
610 at 8, 4,181 at 10 - which is what the parallel/cached/resumable grid
machinery (and the guided search) is for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.arch import paper_machine
from repro.eval.pareto import (
    design_points,
    named_scheme_cost,
    pareto_frontier,
    recommend,
)
from repro.eval.result import ExperimentResult
from repro.eval.runner import Cell
from repro.merge import (
    canonical_root,
    get_scheme,
    parse_scheme,
    scheme_name,
    semantic_key,
)
from repro.merge.parser import TREE_NAMES
from repro.workloads import TABLE2, WORKLOAD_ORDER

__all__ = [
    "CandidateGroup",
    "SweepPlan",
    "assemble_sweep",
    "candidate_table",
    "enumerate_candidates",
    "enumerate_names",
    "shard_result",
    "sweep_cells",
    "sweep_experiment_id",
    "sweep_threads",
]


@dataclass(frozen=True)
class CandidateGroup:
    """Schemes sharing one simulated semantics.

    ``canonical`` is the member whose AST is already the parc-free
    normal form (it always exists: the normal form of any grammar name
    is itself a grammar name); it is the one that gets simulated.
    ``members`` lists every enumerated name with this semantics -
    distinct hardware designs with identical IPC.
    """

    canonical: str
    members: tuple


def _cascade_names(n_threads: int):
    """Names of every cascade token sequence covering ``n_threads``.

    A sequence starts with S (2 ports) or Ck (k ports) and extends with
    S (+1 port) or Ck (+k-1 ports).  :func:`~repro.merge.scheme_name`
    names the single-token ``Ck`` cascade by its special form (``1Ck``
    builds the identical ParCsmt AST); ``1C`` stays - a *serial* 2-input
    block, distinct hardware from the parallel ``C2``.
    """
    out = []

    def extend(tokens, covered):
        if covered == n_threads:
            out.append(scheme_name(tokens, n_threads))
            return
        extend(tokens + [("S", 2)], covered + 1)
        for w in range(2, n_threads - covered + 2):  # Ck adds k-1 ports
            extend(tokens + [("C", w)], covered + w - 1)

    extend([("S", 2)], 2)
    for w in range(2, n_threads + 1):
        extend([("C", w)], w)
    return out


@lru_cache(maxsize=None)
def enumerate_names(n_threads: int) -> tuple:
    """Every well-formed scheme name covering exactly ``n_threads``.

    Includes all cascades, the balanced trees (N=4 only - the wired
    2-level pairing needs exactly four leaves), and the parallel ``CN``
    block.  Names that the default (4-thread-first) parse would resolve
    to a different port count carry an explicit ``@N`` qualifier, so
    every returned name round-trips through
    :func:`~repro.merge.parser.parse_scheme` unambiguously.
    """
    if n_threads < 1:
        raise ValueError(f"need >= 1 thread, got {n_threads}")
    if n_threads == 1:
        return ("ST",)
    names = {*_cascade_names(n_threads), f"C{n_threads}"}
    if n_threads == 4:
        names.update(TREE_NAMES)
    for name in names:
        assert parse_scheme(name).n_ports == n_threads, name
    return tuple(sorted(names))


@lru_cache(maxsize=None)
def enumerate_candidates(n_threads: int) -> tuple:
    """The deduplicated design space: one :class:`CandidateGroup` per
    distinct simulated semantics, sorted by canonical name."""
    groups: dict[str, list[str]] = {}
    for name in enumerate_names(n_threads):
        groups.setdefault(semantic_key(name), []).append(name)
    out = []
    for key, members in groups.items():
        canon = [m for m in members
                 if repr(get_scheme(m).root)
                 == repr(canonical_root(get_scheme(m).root))]
        assert len(canon) == 1, (key, members)
        rest = sorted(m for m in members if m != canon[0])
        out.append(CandidateGroup(canon[0], (canon[0], *rest)))
    return tuple(sorted(out, key=lambda g: g.canonical))


def sweep_experiment_id(n_threads: int) -> str:
    """Store/artifact id of one sweep campaign (one per thread count)."""
    return f"sweep{n_threads}"


def sweep_threads(experiment: str) -> int | None:
    """Thread count named by a sweep experiment id, None otherwise.

    Accepts the :func:`sweep_experiment_id` form (``"sweep4"``, N >= 1
    without leading zeros, so the id names its cells' namespace) plus
    the bare ``"sweep"`` shorthand (the default 4 threads), so campaign
    verbs like :meth:`~repro.eval.api.Session.run_matrix` can dispatch
    sweeps and paper artifacts through one ``experiment`` argument.
    """
    m = re.fullmatch(r"sweep([1-9][0-9]*)?", experiment)
    return int(m.group(1) or 4) if m else None


def _resolve_workloads(workloads) -> list:
    if workloads is None:
        return list(WORKLOAD_ORDER)
    wls = list(workloads)
    unknown = [w for w in wls if w not in TABLE2]
    if unknown:
        raise KeyError(
            f"unknown workloads {unknown}; Table 2 defines {sorted(TABLE2)}"
        )
    if len(set(wls)) != len(wls):
        raise ValueError(f"duplicate workloads in {wls}")
    return wls


@dataclass(frozen=True)
class SweepPlan:
    """The pure plan layer: what a sweep *would* simulate, as data.

    A plan is the deduplicated candidate groups crossed with a workload
    grid - no machine, no config, no simulation.  Everything downstream
    (exhaustive sweeps, guided search, queue campaigns) derives its cell
    grid from a plan, so "which cells exist" is stated exactly once and
    any subset can be expanded, evaluated and joined incrementally.
    """

    n_threads: int
    workloads: tuple
    groups: tuple

    @classmethod
    def build(cls, n_threads: int = 4, workloads=None) -> "SweepPlan":
        """Enumerate and dedupe the ``n_threads`` design space over the
        selected Table 2 workloads (default: all nine)."""
        return cls(n_threads=n_threads,
                   workloads=tuple(_resolve_workloads(workloads)),
                   groups=enumerate_candidates(n_threads))

    @property
    def experiment(self) -> str:
        """Store/artifact experiment id (:func:`sweep_experiment_id`)."""
        return sweep_experiment_id(self.n_threads)

    def subset(self, canonicals) -> "SweepPlan":
        """A plan over only the named candidate groups (by canonical
        member), preserving enumeration order.  Unknown names raise."""
        want = set(canonicals)
        kept = tuple(g for g in self.groups if g.canonical in want)
        unknown = want - {g.canonical for g in kept}
        if unknown:
            raise KeyError(f"not canonical candidates of this plan: "
                           f"{sorted(unknown)}")
        return SweepPlan(self.n_threads, self.workloads, kept)

    def cell(self, workload: str, canonical: str, *,
             machine_tag: str = "", config_tag: str = "") -> Cell:
        """The identity of one (workload, semantics) measurement."""
        return Cell(self.experiment, "workload", workload, canonical,
                    machine=machine_tag, config=config_tag)

    def cells(self, *, machine_tag: str = "",
              config_tag: str = "") -> list:
        """The simulation grid: one cell per (workload, semantics).

        Cells carry the canonical member only; the other members of
        each group inherit its measured IPC at join time.
        ``machine_tag``/``config_tag`` stamp the cells' identity for
        multi-machine / multi-scale / multi-fidelity campaigns (see
        :class:`~repro.eval.runner.Cell`); the defaults keep the
        historical single-machine keys.
        """
        return [self.cell(wl, group.canonical,
                          machine_tag=machine_tag, config_tag=config_tag)
                for wl in self.workloads
                for group in self.groups]


def sweep_cells(n_threads: int = 4, workloads=None, *,
                machine_tag: str = "", config_tag: str = "") -> list:
    """The sweep's simulation grid (``SweepPlan.build(...).cells(...)``).

    Kept as the convenience entry point for callers that don't need to
    hold the plan - the queue campaign spec, the CLI shard preview.
    """
    return SweepPlan.build(n_threads, workloads).cells(
        machine_tag=machine_tag, config_tag=config_tag)


def assemble_sweep(plan: SweepPlan, values, machine=None, *,
                   machine_tag: str = "", config_tag: str = "",
                   budget_transistors: float | None = None,
                   budget_gate_delays: float | None = None,
                   cost_params=None,
                   experiment: str | None = None) -> ExperimentResult:
    """Pure join: measured IPCs x modelled cost -> the sweep artifact.

    ``values`` maps cell keys (:attr:`~repro.eval.runner.Cell.key`) to
    IPC - a :attr:`~repro.eval.runner.GridResult.values` dict, a store's
    recorded cells, or any subset covering the plan.  No simulation
    happens here, so a partially-evaluated plan joins by first taking
    :meth:`SweepPlan.subset` of the measured groups.  ``cost_params``
    overrides the cost model constants (e.g.
    :meth:`~repro.cost.gates.CostParams.fit`); ``experiment`` overrides
    the artifact id (guided search labels its artifact ``searchN`` while
    sharing the plan's ``sweepN`` cell namespace).
    """
    machine = machine or paper_machine()
    wls = list(plan.workloads)
    groups = plan.groups
    cells = plan.cells(machine_tag=machine_tag, config_tag=config_tag)
    key_of = {(c.target, c.scheme): c.key for c in cells}

    # join: average IPC per semantics over the selected workloads, then
    # expand to every member name with its own hardware cost.
    avg_ipc = {}
    labels = {}
    for group in groups:
        vals = [values[key_of[wl, group.canonical]] for wl in wls]
        label = ",".join(group.members)
        labels[group.canonical] = label
        avg_ipc[label] = sum(vals) / len(vals)
    all_members = [m for g in groups for m in g.members]
    points = design_points(avg_ipc, m_clusters=machine.n_clusters,
                           schemes=all_members, params=cost_params)
    front = pareto_frontier(points)
    frontier_names = {p.scheme for p in front}
    pick = None
    if budget_transistors is not None or budget_gate_delays is not None:
        pick = recommend(points, max_transistors=budget_transistors,
                         max_gate_delays=budget_gate_delays)

    rows = []
    for p in sorted(points, key=lambda p: (p.ipc, p.transistors, p.scheme)):
        rows.append((p.scheme, round(p.ipc, 3), p.transistors, p.gate_delays,
                     "*" if p.scheme in frontier_names else ""))
    notes = [
        f"{len(all_members)} schemes, {len(groups)} distinct semantics, "
        f"{len(cells)} grid cells over {len(wls)} workloads",
        "frontier (*) = no scheme has >= IPC and <= transistors and "
        "<= gate delays with one strict",
    ]
    folded = {p.scheme: p.aliases for p in front if p.aliases}
    if folded:
        notes.append(
            "equal-coordinate frontier ties folded into the "
            "lexicographically-first scheme: "
            + "; ".join(f"{rep} ({', '.join(names)})"
                        for rep, names in sorted(folded.items())))
    if cost_params is not None:
        notes.append("costs use calibrated CostParams "
                     "(see CostParams.fit)")
    if budget_transistors is not None or budget_gate_delays is not None:
        budget = ", ".join(
            f"{label} <= {value:g}" for label, value in
            (("transistors", budget_transistors),
             ("gate delays", budget_gate_delays)) if value is not None)
        if pick is None:
            notes.append(f"budget {budget}: no scheme qualifies")
        else:
            notes.append(
                f"budget {budget}: best scheme {pick.scheme} "
                f"(IPC {pick.ipc:.3f}, {pick.transistors} transistors, "
                f"{pick.gate_delays} gate delays)")
    meta = {
        "threads": plan.n_threads,
        "workloads": wls,
        "machine": machine.axes(),
        "n_schemes": len(all_members),
        "n_semantics": len(groups),
        "groups": {g.canonical: list(g.members) for g in groups},
        "avg_ipc": {labels[g.canonical]: avg_ipc[labels[g.canonical]]
                    for g in groups},
        "frontier": [p.to_dict() for p in front],
        "recommendation": (pick.to_dict() if pick is not None else None),
        "budget": {"transistors": budget_transistors,
                   "gate_delays": budget_gate_delays},
    }
    return ExperimentResult(
        experiment=experiment or plan.experiment,
        title=(f"{plan.n_threads}-thread merging-scheme design-space sweep "
               f"(IPC vs hardware cost)"),
        columns=["scheme", "avg IPC", "transistors", "gate delays",
                 "frontier"],
        rows=rows,
        notes=notes,
        meta=meta,
    )


def shard_result(plan: SweepPlan, values, shard: tuple,
                 cells_total: int) -> ExperimentResult:
    """The partial cell report of one ``shard=(index, count)`` slice of
    a plan's grid: ``values`` maps the slice's cell keys to IPC."""
    index, count = shard
    return ExperimentResult(
        experiment=f"{plan.experiment}.shard{index}of{count}",
        title=(f"{plan.n_threads}-thread scheme sweep - shard "
               f"{index}/{count} ({len(values)} of {cells_total} cells)"),
        columns=["cell", "IPC"],
        rows=[(key, round(values[key], 4)) for key in sorted(values)],
        notes=[
            "partial campaign: merge the shard run directories "
            "(repro-eval merge DEST SRC...) and re-run the sweep "
            "with --resume DEST to assemble the frontier",
        ],
        meta={"threads": plan.n_threads, "workloads": list(plan.workloads),
              "shard": f"{index}/{count}",
              "cells_total": cells_total, "cells_in_shard": len(values)},
    )


def candidate_table(n_threads: int = 4, machine=None) -> ExperimentResult:
    """The enumerated candidates with their static costs (no simulation).

    ``repro-eval sweep --list`` renders this to preview a campaign's
    size and hardware spread before committing simulation time.
    """
    machine = machine or paper_machine()
    groups = enumerate_candidates(n_threads)
    rows = []
    for group in groups:
        for i, name in enumerate(group.members):
            c = named_scheme_cost(name, machine.n_clusters)
            rows.append((name, group.canonical if i else "(canonical)",
                         c.transistors, c.gate_delays))
    n_schemes = sum(len(g.members) for g in groups)
    return ExperimentResult(
        experiment=f"{sweep_experiment_id(n_threads)}.candidates",
        title=f"{n_threads}-thread sweep candidates",
        columns=["scheme", "simulates as", "transistors", "gate delays"],
        rows=rows,
        notes=[f"{n_schemes} schemes, {len(groups)} distinct semantics; "
               f"grid = semantics x workloads"],
        meta={"threads": n_threads, "n_schemes": n_schemes,
              "n_semantics": len(groups)},
    )
