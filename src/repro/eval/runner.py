"""Parallel, cached, resumable experiment grid execution.

Every simulation-heavy experiment decomposes into a grid of independent
*cells* — one ``(workload-or-benchmark, scheme, config-variant)``
simulation producing a single IPC value.  :func:`run_cells` executes a
grid either inline or fanned out over a ``ProcessPoolExecutor``, with:

* **deterministic assembly** — results are keyed by cell identity, not
  completion order, and each simulation is fully seeded, so parallel
  output is bit-identical to serial output;
* **compile reuse** — the parent process pre-compiles every distinct
  program of the grid through the process-wide in-memory
  :class:`~repro.kernels.cache.ProgramCache` before forking, so forked
  workers inherit every program instead of compiling it again;
* **resume** — completed cells recorded in the attached store are
  skipped, and new results are written through as they complete.

The simulation engine rides inside each cell's :class:`SimConfig`
(``config.engine``, default ``"fast"``), so worker processes and the
inline path run whichever engine the experiment requested; cell values
are engine-agnostic because engines are bit-identical (the store
fingerprint therefore ignores the engine field).

``config.engine == "batch"`` switches grid execution to the grouped
path: instead of one simulation per cell, compatible pending cells
advance together in an array-structured lockstep group
(:func:`repro.sim.batch.run_workloads_batch`), with per-cell fast-engine
fallback for cells the group cannot model.  Results, store writes and
resume behave exactly as in the per-cell paths — same keys, same
values, bit-identical.
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

__all__ = ["Cell", "GridResult", "check_tag", "run_cell_detailed",
           "run_cells", "run_cells_batch", "shard_cells"]

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
    if not tag and not empty_ok:
        raise ValueError(f"bad {kind} tag {tag!r}: tags are non-empty")
    if any(sep in tag for sep in ":@%"):
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


def cell_programs(cell: Cell, machine, options=None) -> list:
    """Compiled programs for one cell (through the program cache)."""
    return [compile_spec(s, machine, options) for s in _cell_specs(cell)]


def run_cell_detailed(cell: Cell, config, machine=None, options=None
                      ) -> tuple[float, dict]:
    """Simulate one grid cell; returns ``(ipc, meta)``.

    ``meta`` is diagnostic provenance for the cell — the engine that ran
    it plus its :class:`~repro.sim.engine.EngineStats` counters (batch
    group activity) — so a result store can explain how a cell ran.  It
    is never part of the cell's value: engines are bit-identical, and
    stores ignore metadata for resume/merge purposes.
    """
    machine = machine or paper_machine()
    programs = cell_programs(cell, machine, options)
    cfg = _VARIANTS[cell.variant](config)
    result = run_workload(programs, cell.scheme, cfg)
    meta = {"engine": cfg.engine, "engine_stats": result.engine_stats}
    return result.ipc, meta


def run_cells_batch(cells, config, machine=None) -> list:
    """Run a list of cells as lockstep groups; returns per-cell triples.

    The grouped path of ``--engine batch``: cells are grouped by config
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

    machine = machine or paper_machine()
    cells = list(cells)
    by_variant: dict[str, list[Cell]] = {}
    for cell in cells:
        by_variant.setdefault(cell.variant, []).append(cell)
    out: dict[str, tuple] = {}
    for variant, vcells in by_variant.items():
        cfg = _VARIANTS[variant](config)
        tasks = [(cell_programs(cell, machine), cell.scheme)
                 for cell in vcells]
        results = run_workloads_batch(tasks, cfg)
        for cell, res in zip(vcells, results):
            if res is None:  # straggler: per-cell fallback (solo fast)
                value, meta = run_cell_detailed(cell, config, machine)
                out[cell.key] = (cell.key, value, meta)
            else:
                meta = {"engine": "batch", "engine_stats": res.engine_stats}
                out[cell.key] = (cell.key, res.ipc, meta)
    return [out[c.key] for c in cells]


# -- worker-side state (set once per pool worker) -------------------------
_worker_state: dict = {}


def _worker_init(config, machine) -> None:
    _worker_state["config"] = config
    _worker_state["machine"] = machine


def _worker_run(cell: Cell) -> tuple[str, float, dict]:
    value, meta = run_cell_detailed(cell, _worker_state["config"],
                                    _worker_state["machine"])
    return cell.key, value, meta


def _worker_run_batch(cells) -> list:
    return run_cells_batch(cells, _worker_state["config"],
                           _worker_state["machine"])


def _prewarm(cells, machine, options=None) -> None:
    """Compile every distinct program of the grid once, in the parent.

    Forked workers inherit the warm in-memory cache.
    """
    seen = set()
    for cell in cells:
        for spec in _cell_specs(cell):
            if spec.name not in seen:
                seen.add(spec.name)
                compile_spec(spec, machine, options)


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
    machine = machine or paper_machine()

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

    batched = config.engine == "batch" and len(pending) > 1
    if batched and jobs > 1:
        # one lockstep group per worker: deterministic round-robin
        # shards over key order, assembled by key as usual
        _prewarm(pending, machine)
        workers = min(jobs, len(pending))
        ordered = sorted(pending, key=lambda c: c.key)
        shards = [ordered[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(config, machine),
        ) as pool:
            futures = {pool.submit(_worker_run_batch, shard)
                       for shard in shards}
            while futures:
                finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                for fut in finished:
                    for key, value, meta in fut.result():
                        record(key, value, meta)
    elif batched:
        for key, value, meta in run_cells_batch(pending, config, machine):
            record(key, value, meta)
    elif jobs <= 1 or len(pending) <= 1:
        for cell in pending:
            value, meta = run_cell_detailed(cell, config, machine)
            record(cell.key, value, meta)
    elif pending:
        _prewarm(pending, machine)
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(config, machine),
        ) as pool:
            futures = {pool.submit(_worker_run, cell) for cell in pending}
            while futures:
                finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                for fut in finished:
                    key, value, meta = fut.result()
                    record(key, value, meta)

    # the shared instruction-stream walks served this grid only
    release_walks()
    if store is not None:
        store.update_manifest(experiment, cells=len(cells),
                              executed=result.executed,
                              reused=result.reused)
    return result
