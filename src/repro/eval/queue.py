"""Worker-pull campaign queues: init, drain, monitor, recover.

Static sharding (``--shard i/N``) slices a grid up front, so one slow
or dead machine strands its slice.  A *queue campaign* inverts the
control flow: :func:`init_queue` turns the grid into a table of open
cells inside a ``queue:PATH.db`` store, and any number of
:func:`run_worker` processes — on any machines that can reach the file —
claim cells atomically, execute them through the ordinary
:func:`~repro.eval.runner.run_cell` path, and write values back.  The
claim and the finish stamp the cell's heartbeat; nothing beats while a
cell runs, so ``ttl`` must exceed the slowest cell.  A worker killed
mid-cell never finishes; its claim goes stale ``ttl`` seconds after the
claim and the next claimer picks the cell up, so a campaign *always*
drains as long as one worker survives.

Cell lifecycle (mirrored in DESIGN.md §8 and docs/OPERATIONS.md)::

             claim (BEGIN IMMEDIATE + lockfile)
    open ──────────────────────────────────────▶ claimed ────▶ done
      ▲                                          │   │ finish
      │ reset-failed                   reclaim   │   │
      │                     (heartbeat stale, ◀──┘   │ execution error,
      │                      attempt < max)          │ or stale with
      │                                              ▼ attempt >= max
      └──────────────────────────────────────── failed

A value recorded by any path — a worker's finish, ``merge_runs``, a run
with ``--store queue:...`` — marks its cell done, failed ones included,
because the value sits on the cell's queue row (one table; see
:mod:`repro.eval.backends.sqlite`).  So a drained queue is
indistinguishable from a completed run store: re-running the
campaign's experiment/sweep/matrix with ``--store queue:PATH.db`` reuses
every cell and assembles the artifact with zero new simulations, and
:func:`~repro.eval.store.merge_runs` reads (and writes — that is the
migration path from ``dir:``/``sqlite:`` stores) queues like any other
backend.

The campaign's identity travels in the store: :func:`init_queue` stamps
the usual config/machine fingerprint *and* a :class:`CampaignSpec`
(experiment id, workloads, scale, engine, machine presets), so a worker
needs nothing but the store URL to rebuild its execution context —
workers are stateless and interchangeable.

CLI verbs: ``repro-eval queue-init`` / ``worker`` / ``queue-status`` /
``reset-failed`` (see docs/OPERATIONS.md for the operator's guide).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.arch import preset_machine
from repro.eval.backends import open_backend
from repro.eval.experiments import (
    EXPERIMENT_DEFS,
    cell_factory,
    default_config,
)
from repro.eval.runner import Cell, ProgramSet, check_tag, run_cell
from repro.eval.store import RunStore, open_store, run_fingerprint
from repro.eval.sweep import sweep_cells, sweep_threads
from repro.trace.stream import release_walks

if TYPE_CHECKING:
    from repro.eval.backends.sqlite import QueueBackend

__all__ = [
    "CampaignSpec",
    "QueueStatus",
    "WorkerReport",
    "init_queue",
    "queue_status",
    "reset_failed",
    "run_worker",
]

#: default seconds without a heartbeat before a claim is reclaimable.
DEFAULT_TTL = 300.0
#: default claims a cell may burn before it is marked failed.
DEFAULT_MAX_ATTEMPTS = 3


def _as_queue(store) -> QueueBackend:
    """Coerce a URL / backend / RunStore into a QueueBackend."""
    from repro.eval.backends.sqlite import QueueBackend

    if isinstance(store, RunStore):
        store = store.backend
    if isinstance(store, QueueBackend):
        return store
    backend = open_backend(str(store))
    if not isinstance(backend, QueueBackend):
        raise ValueError(
            f"{backend.url!r} is not a queue store; campaign queues "
            f"need a queue:PATH.db URL")
    return backend


def _existing_queue(store) -> QueueBackend:
    """:func:`_as_queue` for the verbs that only read or repair a queue:
    a path with no database file is refused, never created."""
    backend = _as_queue(store)
    if not os.path.exists(backend.path):
        raise ValueError(
            f"no queue database at {backend.path!r}; run "
            f"`repro-eval queue-init` first")
    return backend


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a stateless worker needs to execute campaign cells.

    The spec is JSON-persisted into the queue store by
    :func:`init_queue` and read back by every worker, so machines and
    configs are named by *preset* (rebuilt via
    :func:`~repro.arch.preset_machine` /
    :func:`~repro.eval.experiments.default_config`) rather than
    serialized objects.

    Attributes:
        experiment: an :data:`~repro.eval.experiments.EXPERIMENT_DEFS`
            id (``"fig10"``) or a sweep id (``"sweep3"``).
        scale: simulation length multiplier (``default_config(scale)``).
        engine: simulation engine name.  Workers run one cell per
            claim on every engine; a ``batch`` cell runs on
            ``FastEngine``, so a batch campaign's values equal a fast
            one's.
        workloads: Table 2 workload subset for sweeps (None = all).
        machine: machine preset of the campaign default machine.
        machines: machine-preset tags for matrix campaigns — cells are
            enqueued once per tag and carry it as their identity tag,
            exactly as ``Session.run_matrix`` would produce them.
        configs: ``(tag, scale)`` fidelity rungs for guided-search
            campaigns.  A cell whose config tag matches runs under
            ``config().scaled(rung_scale)`` — derived from the base
            exactly as :func:`~repro.eval.evaluator.rung_configs`
            derives the Session registry, because ``SimConfig.scaled``
            truncates and any other derivation would diverge.
        kind: ``"campaign"`` (the grid is enqueued up front by
            ``queue-init``) or ``"search"`` (the grid is *discovered*:
            a ``repro-eval search`` coordinator enqueues each rung's
            cells as the schedule unfolds, and workers follow along).
    """

    experiment: str
    scale: float = 1.0
    engine: str = "fast"
    workloads: tuple | None = None
    machine: str = "paper"
    machines: tuple = ()
    configs: tuple = ()
    kind: str = "campaign"

    def __post_init__(self):
        threads = sweep_threads(self.experiment)
        if threads is None and self.experiment not in EXPERIMENT_DEFS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from "
                f"{sorted(EXPERIMENT_DEFS)} or a sweep id like 'sweep4'")
        if threads is None and self.workloads is not None:
            raise ValueError("workloads only apply to sweep campaigns")
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "configs",
                           tuple((str(tag), float(scale))
                                 for tag, scale in self.configs))
        if self.kind not in ("campaign", "search"):
            raise ValueError(f"unknown campaign kind {self.kind!r}; "
                             f"choose 'campaign' or 'search'")
        if self.kind == "search" and threads is None:
            raise ValueError("search campaigns need a sweep experiment "
                             "id like 'sweep8'")
        seen = set()
        for tag, scale in self.configs:
            check_tag("config", tag, empty_ok=False)
            if not 0 < scale <= 1.0:
                raise ValueError(f"config {tag!r}: scale must be in "
                                 f"(0, 1], got {scale}")
            if tag in seen:
                raise ValueError(f"duplicate config tag {tag!r}")
            seen.add(tag)
        seen = set()
        for tag in self.machines:
            if tag in seen:
                raise ValueError(f"duplicate machine tag {tag!r}")
            seen.add(tag)
        for tag in ("", self.machine, *self.machines):
            if tag:
                preset_machine(tag)  # unknown presets raise here, early
        # likewise a bad scale or an unregistered engine, which the
        # config refuses: a stored spec naming one must stop a worker
        # before it claims, not fail every cell it claims.
        self.config()

    # -- execution context ------------------------------------------------
    def config(self):
        """The campaign's base :class:`~repro.sim.SimConfig`."""
        return default_config(self.scale, engine=self.engine)

    def config_for(self, tag: str = ""):
        """Resolve a cell's config tag ("" = the campaign base).

        Named tags are the fidelity rungs of a search campaign; the
        resolved config is ``config().scaled(rung_scale)``.
        """
        if not tag:
            return self.config()
        for name, scale in self.configs:
            if name == tag:
                return self.config().scaled(scale)
        raise KeyError(
            f"unknown config tag {tag!r}; this campaign defines "
            f"{[name for name, _ in self.configs] or '(none)'}")

    def machine_for(self, tag: str = ""):
        """Resolve a cell's machine tag ("" = the campaign default)."""
        return preset_machine(tag or self.machine)

    def cells(self) -> list[Cell]:
        """The campaign grid, identical to the Session-built one.

        Search campaigns return an empty grid: their cells are
        discovered and enqueued rung by rung by the search coordinator,
        not known at init time.
        """
        if self.kind == "search":
            return []
        threads = sweep_threads(self.experiment)
        tags = self.machines or ("",)
        cells: list[Cell] = []
        for tag in tags:
            if threads is not None:
                cells += sweep_cells(threads, self.workloads,
                                     machine_tag=tag)
            else:
                defn = EXPERIMENT_DEFS[self.experiment]
                if defn.uses:
                    defn = EXPERIMENT_DEFS[defn.uses]
                if defn.build_cells is None:
                    raise ValueError(
                        f"experiment {self.experiment!r} is static — it "
                        f"has no simulation grid to queue")
                cells += defn.build_cells(cell_factory(defn.name, tag))
        return cells

    def fingerprint(self) -> dict:
        """The store fingerprint a Session running this campaign uses.

        Matching it exactly is what lets ``repro-eval sweep`` /
        ``matrix`` / ``search`` ``--store queue:...`` resume a drained
        queue.
        """
        return run_fingerprint(
            self.config(), self.machine_for(),
            {tag: self.machine_for(tag) for tag in self.machines},
            {tag: self.config_for(tag) for tag, _scale in self.configs})

    # -- persistence ------------------------------------------------------
    def to_dict(self) -> dict:
        spec = dataclasses.asdict(self)
        spec["workloads"] = (list(self.workloads)
                             if self.workloads is not None else None)
        spec["machines"] = list(self.machines)
        spec["configs"] = [list(pair) for pair in self.configs]
        return spec

    @classmethod
    def from_dict(cls, spec: dict) -> "CampaignSpec":
        return cls(experiment=spec["experiment"], scale=spec["scale"],
                   engine=spec["engine"],
                   workloads=(tuple(spec["workloads"])
                              if spec.get("workloads") is not None
                              else None),
                   machine=spec.get("machine", "paper"),
                   machines=tuple(spec.get("machines", ())),
                   configs=tuple(tuple(pair)
                                 for pair in spec.get("configs", ())),
                   kind=spec.get("kind", "campaign"))


def init_queue(store, spec: CampaignSpec) -> "QueueStatus":
    """Create (or re-open) a queue campaign and enqueue its open cells.

    Stamps the store with the campaign fingerprint and spec; enqueuing
    is idempotent (a second init adds nothing, keeps worker progress,
    and rewrites no stored spec) and re-initializing with a *different*
    spec is rejected — one queue is one campaign.  Cells whose values
    are already recorded (e.g. after ``repro-eval merge queue:...
    old-run/`` migrated a previous run in) start out done, so only the
    remaining work is open.  The grid is built before the first write,
    so a spec whose grid cannot be built leaves the store as it was.
    """
    by_experiment: dict[str, dict[str, dict]] = {}
    for cell in spec.cells():
        by_experiment.setdefault(cell.experiment, {})[cell.key] = \
            cell.to_dict()
    backend = _as_queue(store)
    open_store(backend, spec.fingerprint())
    existing = backend.load_campaign()
    if existing is None:
        backend.save_campaign(spec.to_dict())
    elif existing != spec.to_dict():
        raise ValueError(
            f"queue {backend.url!r} already holds a different campaign "
            f"({existing.get('experiment')!r}); one queue is one "
            f"campaign — use a fresh queue:PATH.db")
    enqueued = sum(backend.enqueue(experiment, keyed)
                   for experiment, keyed in sorted(by_experiment.items()))
    return QueueStatus.read(backend, enqueued=enqueued)


@dataclass
class WorkerReport:
    """What one :func:`run_worker` invocation did."""

    worker: str
    executed: int = 0    # cells simulated and written back
    failed: int = 0      # cells parked as failed (attempt cap burned)
    released: int = 0    # claims returned to open after a transient error
    reclaimed: int = 0   # claims of cells an earlier worker abandoned
    keys: list = field(default_factory=list)  # claim order, forensics


def default_worker_id() -> str:
    """host-pid-suffix: unique per process, readable in queue-status."""
    import socket

    return f"{socket.gethostname()}-{os.getpid()}-{os.urandom(3).hex()}"


def run_worker(store, *, worker_id: str | None = None,
               ttl: float = DEFAULT_TTL, poll: float = 0.5,
               max_cells: int | None = None,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS,
               wait: bool = True, follow: bool = False, on_claim=None,
               progress=None) -> WorkerReport:
    """Drain a queue campaign: claim, execute, write back.

    Each claim is one cell, on every engine: the worker runs it through
    :func:`~repro.eval.runner.run_cell` and finishes it before it claims
    the next.  The claim and the finish stamp the heartbeat.

    The worker loops until the queue holds no runnable *or in-flight*
    cells (``wait=True``, the default — in-flight cells of a worker
    that dies will become runnable once their heartbeat goes stale, so
    waiting is what guarantees the campaign drains) or until
    ``max_cells`` cells were processed.  ``wait=False`` exits as soon
    as nothing is claimable, leaving stragglers to their owners.

    ``follow=True`` is the fleet mode for *search* campaigns, whose
    cells arrive rung by rung: an empty queue does not mean the
    campaign is over, so the worker keeps polling through the gaps
    between rungs and exits only once the search coordinator marks
    ``search_status: done`` in the store manifest (or the queue drains
    on a non-search campaign, where there is nothing to follow).

    Args:
        store: queue store URL / backend / RunStore.
        worker_id: identity recorded on claims (default: host-pid-id).
        ttl: seconds without a heartbeat before another worker's claim
            counts as abandoned.  Nothing beats while a cell runs, so
            this must exceed the slowest single cell.
        poll: seconds between claim retries while waiting.
        max_cells: stop after this many claims (None = drain).
        max_attempts: claims a cell may burn before it is failed.
        on_claim: test hook called as ``on_claim(cell, attempt)``
            before execution (fault injection in the recovery tests).
        progress: optional callable receiving one line per processed
            cell (the CLI passes ``print``).

    A cell whose execution raises is *released* back to open — its
    claim is returned for any worker (this one included) to retry, and
    the attempt count it burned keeps counting — until ``max_attempts``
    claims are spent, at which point it parks as failed with the
    exception text in the queue.  Transient blowups (OOM kill, flaky
    NFS, a truncated trace mid-refresh) therefore retry automatically;
    deterministic ones fail after ``max_attempts`` tries.  Either way
    the worker survives and moves on.
    """
    backend = _as_queue(store)
    spec_dict = backend.load_campaign()
    if spec_dict is None:
        raise ValueError(
            f"{backend.url!r} has no campaign spec; run "
            f"`repro-eval queue-init` first")
    spec = CampaignSpec.from_dict(spec_dict)
    program_sets: dict[str, ProgramSet] = {}
    configs: dict[str, object] = {}
    report = WorkerReport(worker_id or default_worker_id())

    def programs_for(cell: Cell) -> ProgramSet:
        programs = program_sets.get(cell.machine)
        if programs is None:
            programs = program_sets[cell.machine] = \
                ProgramSet(spec.machine_for(cell.machine))
        return programs

    def config_for(cell: Cell):
        config = configs.get(cell.config)
        if config is None:
            config = configs[cell.config] = spec.config_for(cell.config)
        return config

    def search_done() -> bool:
        # scoped to *this* campaign's search experiment: a store that
        # finished some earlier search (search_status "done" under
        # another id) must not make --follow workers bail out of the
        # current one at the first inter-rung idle gap
        from repro.eval.search import search_experiment_id

        experiment = search_experiment_id(sweep_threads(spec.experiment))
        manifest = backend.load_manifest() or {}
        entry = manifest.get("experiments", {}).get(experiment, {})
        return entry.get("search_status") == "done"

    def run_one(claim: dict) -> None:
        cell = Cell(**claim["cell"])
        try:
            value = run_cell(cell, config_for(cell), programs_for(cell))
        except Exception as exc:  # noqa: BLE001 - worker must survive
            error = f"{type(exc).__name__}: {exc}"
            if claim["attempt"] < max_attempts:
                backend.release(claim["experiment"], claim["key"],
                                report.worker, error)
                report.released += 1
                if progress is not None:
                    progress(f"  {claim['key']}  released for retry "
                             f"(attempt {claim['attempt']}/"
                             f"{max_attempts}): {error}")
            else:
                backend.fail(claim["experiment"], claim["key"],
                             report.worker, error)
                report.failed += 1
                if progress is not None:
                    progress(f"  {claim['key']}  FAILED: {error}")
        else:
            backend.finish(claim["experiment"], claim["key"], value)
            report.executed += 1
            if progress is not None:
                retry = (f"  [attempt {claim['attempt']}]"
                         if claim["attempt"] > 1 else "")
                progress(f"  {claim['key']} = {value:.4f}{retry}")

    following = follow and spec.kind == "search"
    while max_cells is None or len(report.keys) < max_cells:
        claim = backend.claim(report.worker, ttl=ttl,
                              max_attempts=max_attempts)
        if claim is None:
            counts = backend.queue_counts()
            idle = not (counts["open"] or counts["claimed"])
            if following:
                if idle and search_done():
                    break
                time.sleep(poll)
                continue
            if not wait or idle:
                break
            time.sleep(poll)
            continue
        if claim["attempt"] > 1:
            report.reclaimed += 1
        if on_claim is not None:
            on_claim(Cell(**claim["cell"]), claim["attempt"])
        report.keys.append(claim["key"])
        run_one(claim)
    # the shared instruction-stream walks served this drain only
    release_walks()
    return report


@dataclass
class QueueStatus:
    """A point-in-time view of one queue campaign, renderable."""

    url: str
    campaign: dict | None
    counts: dict
    workers: dict          # worker id -> {"in_flight", "beat_age"}
    failed: list           # failed rows (experiment/key/attempt/error)
    stale: int             # claimed cells with heartbeat older than ttl
    ttl: float
    enqueued: int | None = None  # set by init_queue

    @classmethod
    def read(cls, backend: QueueBackend, *, ttl: float = DEFAULT_TTL,
             enqueued: int | None = None) -> "QueueStatus":
        now = time.time()
        workers: dict[str, dict] = {}
        stale = 0
        for row in backend.queue_rows("claimed"):
            age = now - (row["heartbeat"] or 0.0)
            stale += age > ttl
            info = workers.setdefault(row["worker"] or "?",
                                      {"in_flight": 0, "beat_age": 0.0})
            info["in_flight"] += 1
            info["beat_age"] = max(info["beat_age"], age)
        return cls(url=backend.url, campaign=backend.load_campaign(),
                   counts=backend.queue_counts(), workers=workers,
                   failed=backend.queue_rows("failed"), stale=stale,
                   ttl=ttl, enqueued=enqueued)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def drained(self) -> bool:
        """Every cell is done — failed cells mean a partial campaign,
        not a drained one (``reset-failed`` reopens them)."""
        return not (self.counts["open"] or self.counts["claimed"]
                    or self.counts["failed"])

    def render(self) -> str:
        lines = [f"== queue {self.url} =="]
        if self.campaign:
            wls = self.campaign.get("workloads")
            extra = f", workloads {','.join(wls)}" if wls else ""
            machines = self.campaign.get("machines")
            if machines:
                extra += f", machines {','.join(machines)}"
            configs = self.campaign.get("configs")
            if configs:
                extra += (", rungs "
                          + ",".join(tag for tag, _ in configs) + ",full")
            kind = self.campaign.get("kind", "campaign")
            label = self.campaign["experiment"]
            if kind == "search":
                label += " [guided search: cells arrive rung by rung]"
            lines.append(
                f"campaign {label} "
                f"(scale {self.campaign['scale']:g}, engine "
                f"{self.campaign['engine']}{extra})")
        done = self.counts["done"]
        pct = f" ({done / self.total:.0%})" if self.total else ""
        lines.append(
            f"cells: {self.total} total — open {self.counts['open']}, "
            f"claimed {self.counts['claimed']}, done {done}{pct}, "
            f"failed {self.counts['failed']}")
        if self.stale:
            lines.append(
                f"stale: {self.stale} claimed cell(s) without a "
                f"heartbeat for > {self.ttl:g}s — reclaimed by the next "
                f"worker, or immediately via `repro-eval reset-failed "
                f"--stale-ttl {self.ttl:g}`")
        for worker, info in sorted(self.workers.items()):
            lines.append(
                f"worker {worker}: {info['in_flight']} in flight, "
                f"last heartbeat {info['beat_age']:.1f}s ago")
        for row in self.failed[:10]:
            lines.append(
                f"failed {row['key']} (attempt {row['attempt']}): "
                f"{row['error']}")
        if len(self.failed) > 10:
            lines.append(f"... and {len(self.failed) - 10} more failed "
                         f"cells (`repro-eval reset-failed` reopens them)")
        if self.drained and self.total:
            lines.append(
                "queue drained: resume the campaign's experiment/sweep/"
                "matrix with --store " + self.url
                + " to assemble the artifact (0 new simulations)")
        return "\n".join(lines)


def queue_status(store, *, ttl: float = DEFAULT_TTL) -> QueueStatus:
    """Read one campaign's status (counts, workers, stale, failures)."""
    return QueueStatus.read(_existing_queue(store), ttl=ttl)


def reset_failed(store, *, stale_ttl: float | None = None) -> int:
    """Reopen failed cells (and stale claims, with ``stale_ttl``).

    Returns the number of cells returned to ``open``.  The standard
    crash-recovery verbs: ``reset_failed(url)`` after fixing whatever
    made cells fail, ``reset_failed(url, stale_ttl=0)`` to immediately
    release every claim of a known-dead fleet.
    """
    return _existing_queue(store).reset(failed=True, stale_ttl=stale_ttl)
