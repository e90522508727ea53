"""The Session API: one entry point for every experiment and sweep.

A :class:`Session` binds the things every campaign needs exactly once —
machine(s), a base :class:`~repro.sim.SimConfig`, an optional result
store (by URL: ``dir:PATH`` / ``sqlite:PATH.db``), and a worker count —
and then runs everything through the same verbs::

    from repro.eval.api import Session

    session = Session(store="sqlite:campaign.db", jobs=4)
    fig10 = session.run("fig10")          # one artifact
    results = session.run_all()           # every paper artifact
    frontier = session.sweep(threads=4)   # design-space campaign

Sessions replace the drifting per-experiment function signatures
(``run_table1(config, machine, *, jobs, store)`` vs
``run_fig5(machine, max_threads)`` …) and the fig10→fig11/fig12
special-case plumbing: results and cell values are cached on the
session, so an artifact that *derives* from another (fig11/fig12 join
fig10 with the cost model) reuses the base result automatically, and
re-running any experiment in the same session re-simulates nothing.

Multi-machine / multi-scale campaigns register named variants::

    session = Session(machines={"wide": wide_machine()},
                      configs={"half": default_config(0.5)},
                      store="dir:campaign")
    session.run("fig4")                   # default machine
    session.run("fig4", machine="wide")   # same store, tagged cell keys

Cell identity carries the machine/config tags
(:class:`~repro.eval.runner.Cell.key`), so one store holds the whole
campaign without collisions, and the store fingerprint records the
variant registries so a resumed campaign cannot silently redefine them.

Cross-machine scaling campaigns fan one experiment (or sweep) over
every registered variant in one call::

    from repro.arch import machine_family
    from repro.eval.scaling import scaling_report

    session = Session(machines=machine_family(),   # 2/4/8 clusters
                      store="sqlite:scaling.db", jobs=4)
    matrix = session.run_matrix("sweep4")          # one store, all tags
    report = scaling_report(matrix)                # frontiers + ranks

See :mod:`repro.eval.scaling` for the report semantics and the
``repro-eval matrix`` CLI subcommand for the command-line form.
"""

from __future__ import annotations

import dataclasses

from repro.arch import paper_machine
from repro.eval import experiments
from repro.eval.experiments import (
    EXPERIMENT_DEFS,
    cell_factory,
    default_config,
)
from repro.eval.result import ExperimentResult
from repro.eval.runner import GridResult, check_tag, shard_cells
from repro.eval.store import RunStore, open_store, run_fingerprint

__all__ = ["Session"]


class _SessionStore:
    """The session's in-memory cell cache chained over its run store.

    Grid executions record through this view: values land in session
    memory (cross-experiment reuse without any persistence) and write
    through to the persistent store when one is attached.
    """

    def __init__(self, session: "Session"):
        self._session = session

    @property
    def _store(self) -> RunStore | None:
        return self._session.store

    def load_cells(self, experiment: str) -> dict:
        cells = dict(self._store.load_cells(experiment)) if self._store else {}
        cells.update(self._session._cells.get(experiment, {}))
        return cells

    def record_cell(self, experiment: str, key: str, value: float) -> None:
        self._session._cells.setdefault(experiment, {})[key] = value
        if self._store is not None:
            self._store.record_cell(experiment, key, value)

    def update_manifest(self, experiment: str, **fields) -> None:
        if self._store is not None:
            self._store.update_manifest(experiment, **fields)


def _machine_registry(machines) -> dict:
    if machines is None:
        return {}
    if isinstance(machines, dict):
        registry = dict(machines)
    else:
        registry = {m.name: m for m in machines}
    for tag in registry:
        check_tag("machine", tag, empty_ok=False)
    return registry


class Session:
    """One experiment campaign: machines + config + store + jobs, bound once.

    Args:
        machine: the default target machine (default: the paper's).
        machines: optional extra named machines (``{tag: Machine}`` or an
            iterable keyed by ``Machine.name``) for multi-machine grids;
            select one per call with ``run(..., machine=tag)``.
        config: the base :class:`~repro.sim.SimConfig`; defaults to
            :func:`~repro.eval.experiments.default_config` at ``scale``
            with ``engine``.
        configs: optional named config variants (``{tag: SimConfig}``),
            selected per call with ``run(..., config=tag)``.
        store: result store — a URL (``dir:PATH``, ``sqlite:PATH.db``,
            bare path = directory), an open :class:`RunStore`, or a
            backend instance.  URL/backend forms are opened with this
            session's fingerprint, so resuming with a different
            config/machine is rejected.
        jobs: worker processes for every simulation grid.
        scale / engine: conveniences for the default ``config``.

    Results and cell values are cached per session: repeated runs and
    derived artifacts (fig11/fig12 over fig10) re-simulate nothing.
    ``last_grid`` reports the executed/reused counts of the most recent
    ``run``/``sweep`` (``None`` when nothing simulated).
    """

    def __init__(self, machine=None, *, machines=None, config=None,
                 configs=None, store=None, jobs: int = 1,
                 scale: float = 1.0, engine: str = "fast"):
        self.machine = machine or paper_machine()
        self.machines = _machine_registry(machines)
        self.config = config or default_config(scale, engine=engine)
        self.configs = dict(configs or {})
        for tag in self.configs:
            check_tag("config", tag, empty_ok=False)
        self.jobs = jobs
        self._cells: dict[str, dict[str, float]] = {}
        self._results: dict[str, ExperimentResult] = {}
        self._grids: dict[str, GridResult] = {}
        self.last_grid: GridResult | None = None
        self._store_view = _SessionStore(self)
        self.store = self._open(store)

    # -- wiring ----------------------------------------------------------
    def _open(self, store) -> RunStore | None:
        if store is None:
            return None
        if isinstance(store, RunStore):
            return store
        return open_store(store, self.fingerprint())

    def fingerprint(self) -> dict:
        """The store fingerprint of this session's campaign identity."""
        return run_fingerprint(self.config, self.machine, self.machines,
                               self.configs)

    def machine_for(self, tag: str = ""):
        """Resolve a machine tag ("" = the session default)."""
        if not tag:
            return self.machine
        try:
            return self.machines[tag]
        except KeyError:
            raise KeyError(
                f"unknown machine tag {tag!r}; this session defines "
                f"{sorted(self.machines) or '(none)'}") from None

    def config_for(self, tag: str = ""):
        """Resolve a config tag ("" = the session base config)."""
        if not tag:
            return self.config
        try:
            return self.configs[tag]
        except KeyError:
            raise KeyError(
                f"unknown config tag {tag!r}; this session defines "
                f"{sorted(self.configs) or '(none)'}") from None

    # -- verbs -----------------------------------------------------------
    def run(self, name: str, *, machine: str = "", config: str = "",
            save: bool = False, **kw) -> ExperimentResult:
        """Run one experiment; returns its :class:`ExperimentResult`.

        ``machine``/``config`` select named session variants by tag
        (default: the session's primary machine and base config) — the
        produced cells carry the tags in their identity and the
        artifact id gains an ``@machine`` / ``%config`` suffix, so
        variant artifacts coexist in one store.  Extra keyword
        arguments are forwarded to the experiment definition (e.g.
        ``schemes=...`` for fig10, ``max_threads=...`` for fig5).
        ``save=True`` persists the artifact to the session store.
        """
        if name not in EXPERIMENT_DEFS:
            raise KeyError(f"unknown experiment {name!r}; "
                           f"choose from {sorted(EXPERIMENT_DEFS)}")
        defn = EXPERIMENT_DEFS[name]
        cacheable = not kw and not machine and not config
        if cacheable and name in self._results:
            self.last_grid = None
            result = self._results[name]
        else:
            result = self._compute(defn, machine, config, kw)
            if machine:
                result = dataclasses.replace(
                    result, experiment=f"{result.experiment}@{machine}")
            if config:
                result = dataclasses.replace(
                    result, experiment=f"{result.experiment}%{config}")
            if cacheable:
                self._results[name] = result
        if save:
            self._require_store().save_artifact(result)
        return result

    def _compute(self, defn, machine: str, config: str,
                 kw: dict) -> ExperimentResult:
        mach = self.machine_for(machine)
        self.config_for(config)  # validate the tag on every path
        if defn.static:
            self.last_grid = None
            return experiments._STATIC_RUNNERS[defn.name](mach, **kw)
        if defn.uses:
            self.last_grid = None
            base = None
            if not machine and not config and not kw:
                base = self._results.get(defn.uses)
            if base is None:
                # kwargs belong to the base experiment (e.g. a fig10
                # schemes= subset under fig11); this sets last_grid
                # when the base actually simulates.
                base = self.run(defn.uses, machine=machine, config=config,
                                **kw)
            return defn.derive(base, mach)
        cell = cell_factory(defn.name, machine, config)
        cells = defn.build_cells(cell, **kw)
        grid = self.run_grid(cells)
        self._grids[defn.name] = grid
        return defn.assemble(grid, cell, self.config_for(config), mach, **kw)

    def run_all(self, names=None) -> dict[str, ExperimentResult]:
        """Run every experiment (or ``names``), sharing grids and base
        results; returns ``{experiment: result}`` in execution order."""
        ordered = sorted(EXPERIMENT_DEFS) if names is None else list(names)
        return {name: self.run(name) for name in ordered}

    def sweep(self, threads: int = 4, workloads=None, *, machine: str = "",
              config: str = "", shard=None, budget_transistors=None,
              budget_gate_delays=None, cost_params=None,
              save: bool = False) -> ExperimentResult:
        """Sweep the ``threads``-thread design space over Table 2
        workloads (default: all nine) through this session.

        Builds the :class:`~repro.eval.sweep.SweepPlan`, runs its cells
        through :meth:`run_grid` — the same cache, store and tag
        handling as :meth:`run` — and joins them with
        :func:`~repro.eval.sweep.assemble_sweep` into the IPC/cost
        artifact (design plane + frontier in ``result.meta``).
        ``budget_transistors`` / ``budget_gate_delays`` add the
        Section 5.2 recommendation; ``cost_params`` overrides the cost
        model constants (``--calibrated`` passes the fitted ones).

        ``shard=(index, count)`` simulates only that deterministic
        slice of the grid (1-based) and returns a partial cell report
        (:func:`~repro.eval.sweep.shard_result`), not a frontier: merge
        the shard stores with :func:`~repro.eval.store.merge_runs` and
        sweep again without ``shard`` to assemble it.
        """
        from repro.eval.sweep import SweepPlan, assemble_sweep, shard_result

        mach = self.machine_for(machine)
        self.config_for(config)  # validate the tag even if no cell runs
        plan = SweepPlan.build(threads, workloads)
        cells = plan.cells(machine_tag=machine, config_tag=config)
        if shard is not None:
            grid = self.run_grid(shard_cells(cells, *shard))
            result = shard_result(plan, grid.values, shard, len(cells))
        else:
            grid = self.run_grid(cells)
            result = assemble_sweep(
                plan, grid.values, mach, machine_tag=machine,
                config_tag=config, budget_transistors=budget_transistors,
                budget_gate_delays=budget_gate_delays,
                cost_params=cost_params)
        self._grids[plan.experiment] = grid
        if machine:
            result = dataclasses.replace(
                result, experiment=f"{result.experiment}@{machine}")
        if config:
            result = dataclasses.replace(
                result, experiment=f"{result.experiment}%{config}")
        if save:
            self._require_store().save_artifact(result)
        return result

    def search(self, threads: int = 4, workloads=None, *,
               machine: str = "", save: bool = False,
               **kw) -> ExperimentResult:
        """Run a guided Pareto search campaign through this session.

        The session must carry the search's reduced fidelity rungs as
        named config variants — construct it with
        ``configs=rung_configs(base, rungs)``
        (:func:`~repro.eval.evaluator.rung_configs`) so the rung tags
        are part of the store fingerprint.  Keyword arguments
        (``budget``, ``rungs``, ``eps``, ``drift``, ``evolve``, …) are
        forwarded to :func:`repro.eval.search.run_search`; the returned
        artifact carries the full :class:`~repro.eval.search.
        SearchReport` in ``meta["search"]``.
        """
        from repro.eval.search import run_search

        result, _report = run_search(self, threads, workloads,
                                     machine=machine, **kw)
        if machine:
            result = dataclasses.replace(
                result, experiment=f"{result.experiment}@{machine}")
        if save:
            self._require_store().save_artifact(result)
        return result

    def run_matrix(self, experiment: str = "sweep4", *, machines=None,
                   configs=None, save: bool = False, **kw):
        """Fan one experiment (or sweep) over machine/config variants.

        ``experiment`` is any :data:`EXPERIMENT_DEFS` id (``"table1"``,
        ``"fig10"``, …) or a sweep id (``"sweep"``/``"sweepN"``; pass
        ``threads=N`` to override the sweep's thread count).  Every
        selected variant runs through this session's verbs — same cell
        tags, result/cell caches, sharding semantics and store — so a
        whole scaling campaign lands in *one* store and resumes like
        any other run.

        ``machines``/``configs`` select the variants by tag (``""`` =
        the session default; default: every registered variant, or the
        session default when nothing is registered on that axis — a
        registered machine identical to the session default would
        otherwise simulate twice under distinct cell tags).  Extra
        keyword arguments are forwarded to
        each per-variant run (e.g. ``workloads=[...]`` or
        ``budget_transistors=...`` for sweeps, ``schemes=...`` for
        fig10).  ``save=True`` persists each variant's artifact.

        Returns a :class:`~repro.eval.scaling.MatrixResult`; feed it to
        :func:`~repro.eval.scaling.scaling_report` for the joined
        cross-machine view (per-machine Pareto frontiers, scheme rank
        stability, budget recommendations per geometry).
        """
        from repro.eval.scaling import MatrixResult
        from repro.eval.sweep import sweep_experiment_id, sweep_threads

        threads = sweep_threads(experiment)
        if threads is None and experiment not in EXPERIMENT_DEFS:
            raise KeyError(
                f"unknown experiment {experiment!r}; choose from "
                f"{sorted(EXPERIMENT_DEFS)} or a sweep id like 'sweep4'")
        if threads is not None:
            threads = kw.pop("threads", threads)
            experiment_id = sweep_experiment_id(threads)
        else:
            experiment_id = experiment
        machine_tags = self._axis_tags("machine", machines, self.machines,
                                       self.machine_for)
        config_tags = self._axis_tags("config", configs, self.configs,
                                      self.config_for)
        results = {}
        executed = reused = 0
        for mtag in machine_tags:
            for ctag in config_tags:
                if threads is not None:
                    result = self.sweep(threads, machine=mtag, config=ctag,
                                        save=save, **kw)
                else:
                    result = self.run(experiment, machine=mtag, config=ctag,
                                      save=save, **kw)
                if self.last_grid is not None:
                    executed += self.last_grid.executed
                    reused += self.last_grid.reused
                results[(mtag, ctag)] = result
        return MatrixResult(
            experiment=experiment_id,
            results=results,
            machines={tag: self.machine_for(tag) for tag in machine_tags},
            configs={tag: self.config_for(tag) for tag in config_tags},
            executed=executed,
            reused=reused,
        )

    @staticmethod
    def _axis_tags(kind: str, given, registry, resolve) -> list:
        """One matrix axis: default = every registered variant (the
        session default only when the registry is empty — include it
        explicitly with ``[""] + [...]`` when it is a distinct point)."""
        if given is None:
            tags = sorted(registry) or [""]
        elif isinstance(given, str):
            tags = [given]
        else:
            tags = list(given)
        if not tags:
            raise ValueError(f"matrix {kind} axis selects no variants")
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate {kind} tags in matrix axis: {tags}")
        for tag in tags:
            resolve(tag)  # unknown tags raise the registry's KeyError
        return tags

    def run_grid(self, cells) -> GridResult:
        """Execute a grid of cells under this session's bindings.

        The grid may span machine/config tags: it is partitioned by tag
        and each partition executes under its resolved machine/config
        (parallel over ``jobs``, cached through the session, persisted
        to the store when one is attached).
        """
        cells = list(cells)
        groups: dict[tuple, list] = {}
        for c in cells:
            groups.setdefault((c.machine, c.config), []).append(c)
        combined = GridResult(experiment=cells[0].experiment if cells
                              else "")
        for (mtag, ctag), part in groups.items():
            grid = experiments.run_cells(
                part, self.config_for(ctag), self.machine_for(mtag),
                jobs=self.jobs, store=self._store_view)
            combined.values.update(grid.values)
            combined.executed += grid.executed
            combined.reused += grid.reused
        self.last_grid = combined
        if len(groups) > 1 and self.store is not None:
            # per-partition manifest updates each recorded their own
            # slice; overwrite with whole-grid totals.
            self.store.update_manifest(combined.experiment,
                                       cells=len(cells),
                                       executed=combined.executed,
                                       reused=combined.reused)
        return combined

    # -- cache management ------------------------------------------------
    def grid(self, name: str) -> GridResult | None:
        """The last executed grid of one experiment, if any."""
        return self._grids.get(name)

    @property
    def results(self) -> dict[str, ExperimentResult]:
        """Read-only view of the session's cached results."""
        return dict(self._results)

    def _require_store(self) -> RunStore:
        if self.store is None:
            raise ValueError("this session has no result store; pass "
                             "store=... when constructing the Session")
        return self.store

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release store resources (idempotent)."""
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
