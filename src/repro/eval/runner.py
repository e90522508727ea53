"""Parallel, cached, resumable experiment grid execution.

Every simulation-heavy experiment decomposes into a grid of independent
*cells* — one ``(workload-or-benchmark, scheme, config-variant)``
simulation producing a single IPC value.  :func:`run_cells` executes a
grid either inline or fanned out over a ``ProcessPoolExecutor``, with:

* **deterministic assembly** — results are keyed by cell identity, not
  completion order, and each simulation is fully seeded, so parallel
  output is bit-identical to serial output;
* **compile reuse** — a grid resolves each distinct program of its
  machine once (:class:`ProgramSet`), before it forks when it fans
  out, so the inline path and the pool workers share one lookup per
  program instead of keying the program cache once per cell;
* **resume** — completed cells recorded in the attached store are
  skipped, and new results are written through as they complete.

The simulation engine rides inside each cell's :class:`SimConfig`
(``config.engine``, default ``"fast"``), so worker processes and the
inline path run whichever engine the experiment requested; cell values
are engine-agnostic because engines are bit-identical (the store
fingerprint therefore ignores the engine field).

Inline, ``config.engine == "batch"`` runs the pending cells as
lockstep groups (:func:`run_cells_batch`); everywhere else — and in
every pool worker, where ``BatchEngine`` delegates a single cell to
``FastEngine`` — each cell is one simulation.  Results, store writes
and resume are the same on every path: same keys, same values,
bit-identical.
"""

from __future__ import annotations

import difflib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace

from repro.arch import paper_machine
from repro.kernels import by_name, compile_spec
from repro.sim import run_workload
from repro.trace.stream import release_walks
from repro.workloads import workload_specs

__all__ = ["Cell", "GridResult", "ProgramSet", "check_tag",
           "run_cell_detailed", "run_cells", "shard_cells"]

#: cell config variants -> SimConfig transform.
_VARIANTS = {
    "base": lambda cfg: cfg,
    "perfect": lambda cfg: replace(cfg, perfect_icache=True,
                                   perfect_dcache=True),
}


@dataclass(frozen=True)
class Cell:
    """One independent simulation of an experiment grid.

    Attributes:
        experiment: owning experiment id (e.g. ``"fig10"``).
        kind: ``"workload"`` (a Table 2 workload) or ``"bench"`` (a
            single Table 1 benchmark).
        target: workload or benchmark name.
        scheme: merging scheme to simulate under.
        variant: config variant — ``"base"`` or ``"perfect"`` (caches).
        machine: machine-preset fingerprint tag; ``""`` is the campaign
            default machine.  Non-default tags name an entry in the
            owning :class:`~repro.eval.api.Session`'s machine registry,
            so one grid (and one run store) may span several machines.
        config: config-variant fingerprint tag; ``""`` is the campaign
            base :class:`~repro.sim.SimConfig`.  Non-default tags name a
            session config variant (e.g. an alternative scale).

    The tags are part of the cell's identity (:attr:`key`), which keeps
    multi-machine / multi-scale campaigns collision-free inside one
    store; for the default machine and base config the key is unchanged
    from the single-machine format, so existing run directories resume
    as before.
    """

    experiment: str
    kind: str
    target: str
    scheme: str
    variant: str = "base"
    machine: str = ""
    config: str = ""

    def __post_init__(self):
        if self.kind not in ("workload", "bench"):
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown cell variant {self.variant!r}")
        check_tag("machine", self.machine, empty_ok=True)
        check_tag("config", self.config, empty_ok=True)

    def to_dict(self) -> dict:
        """The field dict a queue row stores and ``Cell(**d)`` rebuilds
        (every field is a string, so no deep copy is needed)."""
        return dict(vars(self))

    @property
    def key(self) -> str:
        """Stable identity used for result assembly and resume."""
        key = f"{self.kind}:{self.target}:{self.scheme}:{self.variant}"
        if self.machine:
            key += f"@{self.machine}"
        if self.config:
            key += f"%{self.config}"
        return key


def check_tag(kind: str, tag: str, *, empty_ok: bool) -> None:
    """Reject a ``kind`` tag that cannot ride in a :attr:`Cell.key`.

    ``':'``, ``'@'`` and ``'%'`` delimit the key's parts, so a tag
    holding one could make two different tag pairs collide on one key.
    Whether the empty tag (the campaign default) is allowed is the
    caller's rule.
    """
    if not tag:
        if empty_ok:
            return
        raise ValueError(f"bad {kind} tag {tag!r}: tags are non-empty")
    if ":" in tag or "@" in tag or "%" in tag:
        raise ValueError(
            f"bad {kind} tag {tag!r}: tags must not contain ':', '@' or "
            f"'%' (these delimiters delimit cell keys, so two different "
            f"tag pairs could collide on one key)")


@dataclass
class GridResult:
    """Outcome of one grid execution."""

    experiment: str
    values: dict = field(default_factory=dict)  # cell key -> IPC
    executed: int = 0   # cells simulated in this call
    reused: int = 0     # cells skipped because the store had them

    def __getitem__(self, cell_or_key) -> float:
        key = getattr(cell_or_key, "key", cell_or_key)
        try:
            return self.values[key]
        except KeyError:
            near = difflib.get_close_matches(key, self.values, n=3)
            hint = f"; nearest recorded keys: {near}" if near else ""
            raise KeyError(
                f"no cell {key!r} in the {self.experiment!r} grid "
                f"({len(self.values)} cells recorded{hint})"
            ) from None


def shard_cells(cells, index: int, count: int) -> list:
    """Deterministic 1-based shard ``index``/``count`` of a grid.

    Cells are ordered by their stable keys and dealt round-robin, so the
    split depends only on the grid's contents - never on the caller's
    iteration order or host.  Shards are disjoint and their union is the
    full grid, which is what lets a sweep run ``--shard 1/2`` and
    ``--shard 2/2`` on different machines and reassemble the merged run
    directories into exactly the single-machine result.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise ValueError(f"shard index must be in 1..{count}, got {index}")
    ordered = sorted(cells, key=lambda c: c.key)
    return ordered[index - 1::count]


def _cell_specs(cell: Cell):
    if cell.kind == "bench":
        return [by_name(cell.target)]
    return workload_specs(cell.target)


class ProgramSet:
    """The compiled programs of one machine, each resolved once.

    :func:`~repro.kernels.compile_spec` keys the process-wide program
    cache by the machine's full identity, a walk that costs more than
    the lookup it guards.  A grid holds one set for its machine and a
    queue drain one per machine tag, so each distinct (program,
    machine) pair goes through the cache once per grid or drain.
    """

    def __init__(self, machine=None):
        self.machine = machine or paper_machine()
        self._by_name: dict = {}

    def of(self, cell: Cell) -> list:
        """Compiled programs of ``cell``, one per thread."""
        programs = []
        for spec in _cell_specs(cell):
            prog = self._by_name.get(spec.name)
            if prog is None:
                prog = self._by_name[spec.name] = compile_spec(
                    spec, self.machine)
            programs.append(prog)
        return programs


def run_cell_detailed(cell: Cell, config, programs: ProgramSet
                      ) -> tuple[float, dict]:
    """Simulate one grid cell on ``programs``' machine; returns
    ``(ipc, meta)``.

    ``meta`` is diagnostic provenance for the cell — the engine that ran
    it plus its :class:`~repro.sim.engine.EngineStats` counters (batch
    group activity) — so a result store can explain how a cell ran.  It
    is never part of the cell's value: engines are bit-identical, and
    stores ignore metadata for resume/merge purposes.
    """
    cfg = _VARIANTS[cell.variant](config)
    result = run_workload(programs.of(cell), cell.scheme, cfg)
    meta = {"engine": cfg.engine, "engine_stats": result.engine_stats}
    return result.ipc, meta


def run_cells_batch(cells, config, programs: ProgramSet) -> list:
    """Run a list of cells as lockstep groups; returns per-cell triples.

    The inline path of ``--engine batch``: cells are grouped by config
    variant (the only axis that changes the shared
    :class:`~repro.sim.SimConfig` inside one ``run_cells`` invocation —
    machine and config tags are already resolved by then) and each
    group advances in one array-structured lockstep simulation.  A cell
    the lockstep loop cannot model falls back to the solo path, which
    for the batch engine delegates to the per-cell fast engine.  Returns
    ``(key, ipc, meta)`` per cell, in input order; every value is
    bit-identical to the same cell run alone.
    """
    from repro.sim.batch import run_workloads_batch

    cells = list(cells)
    by_variant: dict[str, list[Cell]] = {}
    for cell in cells:
        by_variant.setdefault(cell.variant, []).append(cell)
    out: dict[str, tuple] = {}
    for variant, vcells in by_variant.items():
        cfg = _VARIANTS[variant](config)
        tasks = [(programs.of(cell), cell.scheme) for cell in vcells]
        results = run_workloads_batch(tasks, cfg)
        for cell, res in zip(vcells, results):
            if res is None:  # straggler: per-cell fallback (solo fast)
                value, meta = run_cell_detailed(cell, config, programs)
                out[cell.key] = (cell.key, value, meta)
            else:
                meta = {"engine": "batch", "engine_stats": res.engine_stats}
                out[cell.key] = (cell.key, res.ipc, meta)
    return [out[c.key] for c in cells]


# -- worker-side state (set once per pool worker) -------------------------
_worker_state: dict = {}


def _worker_init(config, programs) -> None:
    _worker_state["config"] = config
    _worker_state["programs"] = programs


def _worker_run(cell: Cell) -> tuple[str, float, dict]:
    value, meta = run_cell_detailed(cell, _worker_state["config"],
                                    _worker_state["programs"])
    return cell.key, value, meta


def run_cells(cells, config, machine=None, jobs: int = 1, store=None
              ) -> GridResult:
    """Execute a grid of cells; returns values keyed by cell identity.

    Args:
        cells: the grid (all cells must belong to one experiment).
        config: base :class:`SimConfig` (cell variants derive from it).
        machine: target machine (default: the paper's).
        jobs: worker processes; ``<= 1`` runs inline.
        store: optional :class:`~repro.eval.store.RunStore` — completed
            cells recorded there are skipped, new ones written through.

    Parallel execution is bit-identical to serial execution: cells are
    independent, individually seeded, and assembled by key.
    """
    cells = list(cells)
    if not cells:
        return GridResult(experiment="")
    experiments = {c.experiment for c in cells}
    if len(experiments) != 1:
        raise ValueError(f"grid mixes experiments: {sorted(experiments)}")
    experiment = cells[0].experiment
    if len({c.key for c in cells}) != len(cells):
        raise ValueError("grid contains duplicate cells")
    tags = {(c.machine, c.config) for c in cells}
    if len(tags) > 1:
        raise ValueError(
            f"grid mixes machine/config tags {sorted(tags)}; run_cells "
            f"executes one (machine, config) resolution at a time — "
            f"partition by tag first (Session does this automatically)")

    result = GridResult(experiment=experiment)
    done = dict(store.load_cells(experiment)) if store else {}
    pending = []
    for cell in cells:
        if cell.key in done:
            result.values[cell.key] = done[cell.key]
            result.reused += 1
        else:
            pending.append(cell)

    def record(key: str, value: float, meta: dict | None) -> None:
        result.values[key] = value
        result.executed += 1
        if store is not None:
            store.record_cell(experiment, key, value, meta)

    programs = ProgramSet(machine)
    if config.engine == "batch" and jobs <= 1 and len(pending) > 1:
        for key, value, meta in run_cells_batch(pending, config, programs):
            record(key, value, meta)
    elif jobs <= 1 or len(pending) <= 1:
        for cell in pending:
            record(cell.key, *run_cell_detailed(cell, config, programs))
    else:
        # resolve every program before forking: the workers inherit
        # the filled set and look nothing up again
        for cell in pending:
            programs.of(cell)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            initializer=_worker_init,
            initargs=(config, programs),
        ) as pool:
            futures = {pool.submit(_worker_run, cell) for cell in pending}
            while futures:
                finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                for fut in finished:
                    record(*fut.result())

    # the shared instruction-stream walks served this grid only
    release_walks()
    if store is not None:
        store.update_manifest(experiment, cells=len(cells),
                              executed=result.executed,
                              reused=result.reused)
    return result
