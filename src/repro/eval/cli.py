"""Command-line entry point: regenerate paper artifacts, sweep designs.

Artifact and campaign subcommands::

    repro-eval run --experiment fig10 --scale 0.5
    repro-eval run -e all --out results/ --jobs 4
    repro-eval run -e fig10 --resume results/    # skip done cells
    repro-eval run -e fig10 --store sqlite:c.db  # SQLite result backend
    repro-eval run -e fig10 --engine reference   # executable spec
    repro-eval run --list

    repro-eval sweep --threads 3                 # full design space
    repro-eval sweep --threads 4 --workloads LLHH,HHHH \\
               --budget-transistors 6000         # Section 5.2 walk
    repro-eval sweep --threads 3 --shard 1/2 --out shard1   # machine 1
    repro-eval sweep --threads 3 --shard 2/2 --out shard2   # machine 2
    repro-eval merge merged shard1 shard2        # reassemble
    repro-eval sweep --threads 3 --resume merged # frontier, 0 new sims

    repro-eval search --threads 4                # = sweep, bit-identical
    repro-eval search -t 8 --budget 0.3 \\
               --store sqlite:s8.db              # guided: ~30% of the
                                                 #   cost, frontier out
    repro-eval search -t 8 --budget 0.3 --store sqlite:s8.db  # again:
                                                 #   resumes, 0 new sims
    repro-eval search -t 6 --evolve --seed 1     # evolutionary discovery

    repro-eval matrix -e sweep4 --machines 2c4w,4c4w,8c4w \\
               --store sqlite:scaling.db         # scaling campaign
    repro-eval matrix -e table1 --machines 4c3w,4c5w  # width variants

Queue campaigns (worker-pull alternative to static ``--shard``; see
docs/OPERATIONS.md for the operator's guide)::

    repro-eval queue-init queue:camp.db -e sweep3      # grid -> open cells
    repro-eval worker queue:camp.db                    # claim-execute loop
    repro-eval queue-status queue:camp.db              # progress + workers
    repro-eval reset-failed queue:camp.db              # reopen failed cells
    repro-eval sweep -t 3 --store queue:camp.db        # drained queue ->
                                                       #   artifact, 0 sims

    repro-eval search -t 8 --budget 0.3 --store queue:s8.db  # coordinator
    repro-eval worker --follow queue:s8.db             # fleet: polls on
                                                       #   through rung gaps

For backward compatibility a bare flag list (``repro-eval -e fig10``)
runs the ``run`` subcommand.

``--scale`` multiplies the run length (1.0 = 20k instructions/thread;
the paper used 100M - see DESIGN.md section 3 on scaling).
``--out``/``--resume``/``--store`` name a *run store* (created if
missing) holding the manifest, per-cell values for resume and
per-experiment JSON artifacts.  ``--store`` accepts a backend URL —
``dir:PATH`` (a run directory), ``sqlite:PATH.db`` (one database file) or
``queue:PATH.db`` (a SQLite store plus a worker-pull cell queue);
``--out``/``--resume`` take bare directory paths or the same URLs.
Giving several of them with different locations is an error.  Every
simulating subcommand drives one :class:`repro.eval.api.Session`
underneath and closes it on the way out, so a ``dir:`` store's cell
journals are folded and a SQLite connection is released even when the
verb fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.arch import paper_machine, preset_machine
from repro.cost import CostParams
from repro.eval.api import Session
from repro.eval.backends import parse_store_url
from repro.eval.experiments import (
    EXPERIMENT_DEFS,
    default_config,
    experiment_cells,
)
from repro.eval.store import StoreMismatchError, merge_runs
from repro.sim.engine import ENGINES

# The layers only some verbs run (sweep, search, scaling, queue) are
# imported inside those verbs' handlers: `run` loads none of them.


class _CliError(Exception):
    """A user-facing CLI error (message printed, exit code 1)."""


def _list_experiments() -> str:
    lines = ["experiment  cells  description",
             "----------  -----  -----------"]
    for name in sorted(EXPERIMENT_DEFS):
        cells = experiment_cells(name)
        n = str(len(cells)) if cells else "-"
        lines.append(f"{name:<10}  {n:>5}  {EXPERIMENT_DEFS[name].description}")
    return "\n".join(lines)


def _add_sim_args(ap: argparse.ArgumentParser) -> None:
    """Flags shared by every simulating subcommand."""
    ap.add_argument("--scale", type=float, default=1.0,
                    help="simulation length multiplier (default 1.0)")
    ap.add_argument("--engine", default="fast",
                    choices=sorted(ENGINES),
                    help="simulation engine: 'fast' (default), "
                         "'batch' (each cell on the fast engine, kept "
                         "for existing stores and campaign specs) or "
                         "'reference' — all bit-identical, the "
                         "reference is the executable specification")
    ap.add_argument("--jobs", "-j", type=int, default=1,
                    help="worker processes for simulation grids (default 1)")
    ap.add_argument("--out", default=None,
                    help="run store (directory path or URL) for JSON "
                         "artifacts + cell values (created if missing)")
    ap.add_argument("--resume", default=None, metavar="RUN_DIR",
                    help="resume a previous run store: completed "
                         "cells are skipped (implies --out RUN_DIR)")
    ap.add_argument("--store", default=None, metavar="URL",
                    help="run store by backend URL: dir:PATH (run "
                         "directory; the default for bare paths), "
                         "sqlite:PATH.db (one database file) or "
                         "queue:PATH.db (a drained queue campaign); "
                         "behaves like --out + --resume combined")


def _resolve_store_url(args) -> str | None:
    """The run store implied by --out/--resume/--store, rejecting
    flags that name different locations."""
    given = [(flag, value) for flag, value in
             (("--store", args.store), ("--out", args.out),
              ("--resume", args.resume)) if value]
    if not given:
        return None

    def norm(url):
        scheme, path = parse_store_url(url)
        return scheme, os.path.normpath(path)

    first_flag, first = given[0]
    for flag, value in given[1:]:
        if norm(value) != norm(first):
            raise _CliError(
                f"{first_flag} {first!r} conflicts with {flag} {value!r}: "
                f"they name different run stores; pass one of them (or "
                f"the same location for both)"
            )
    return first


def _base_config(args):
    """The campaign's base config from ``--scale`` / ``--engine``."""
    try:
        return default_config(args.scale, engine=args.engine)
    except ValueError as exc:
        raise _CliError(f"--scale: {exc}") from None


def _open_session(args, **session_kw) -> Session:
    """A Session on the run store --out/--resume/--store name (if any).

    The Session opens the store, so its fingerprint records every
    machine/config variant the session registers.
    """
    try:
        url = _resolve_store_url(args)  # may parse URLs for comparison
        return Session(store=url, jobs=args.jobs, **session_kw)
    except (StoreMismatchError, ValueError) as exc:
        # ValueError: malformed store URL (unknown scheme, empty path)
        raise _CliError(str(exc)) from None


def _check_threads(threads: int) -> None:
    if not 1 <= threads <= 8:
        raise _CliError(
            f"--threads must be in 1..8 (got {threads}); the design "
            f"space grows ~2.6x in names (2x in semantics) per thread "
            f"and 8 already enumerates 610 schemes"
        )


def _parse_list(text: str | None, *, upper: bool = False
                ) -> list[str] | None:
    """Split a comma-separated option value (``None`` when unset).

    ``upper=True`` upper-cases the items, for Table 2 workload names;
    machine tags stay as given, since presets such as ``2c4w`` are
    lower-case.
    """
    if not text:
        return None
    items = [t.strip() for t in text.split(",") if t.strip()]
    return [t.upper() for t in items] if upper else items


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index_s, _, count_s = text.partition("/")
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise _CliError(
            f"bad --shard {text!r}; expected INDEX/COUNT, e.g. 1/2"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise _CliError(
            f"bad --shard {text!r}; INDEX must be in 1..COUNT"
        )
    return index, count


# ----------------------------------------------------------------------
# run — regenerate paper artifacts
# ----------------------------------------------------------------------
def _cmd_run(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval run",
        description="Regenerate tables/figures of Gupta et al., ICPP 2009",
    )
    ap.add_argument("--experiment", "-e", default="all",
                    choices=sorted(EXPERIMENT_DEFS) + ["all"],
                    help="which artifact to regenerate")
    _add_sim_args(ap)
    ap.add_argument("--list", action="store_true",
                    help="list experiments with their grid sizes and exit")
    args = ap.parse_args(argv)

    if args.list:
        print(_list_experiments())
        return 0

    names = sorted(EXPERIMENT_DEFS) if args.experiment == "all" \
        else [args.experiment]
    with _open_session(args, machine=paper_machine(),
                       config=_base_config(args)) as session:
        # the session caches fig10's result, so fig11/fig12 (and `-e all`)
        # reuse its simulations automatically.
        failures = 0
        for name in names:
            t0 = time.time()
            try:
                result = session.run(name)
            except Exception as exc:  # noqa: BLE001 - CLI boundary
                print(f"error: experiment {name} failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                failures += 1
                continue
            grid = session.last_grid
            print(result.render())
            status = f"  [{time.time() - t0:.1f}s]"
            if grid is not None:
                status += (f"  cells: {grid.executed} simulated, "
                           f"{grid.reused} reused")
            print(status)
            print()
            if session.store is not None:
                path = session.store.save_artifact(result)
                print(f"  saved: {path}")
        return 1 if failures else 0


# ----------------------------------------------------------------------
# sweep — enumerate + simulate the whole N-thread design space
# ----------------------------------------------------------------------
def _cmd_sweep(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval sweep",
        description="Sweep every well-formed N-thread merging scheme "
                    "through the experiment grid and report the "
                    "IPC/cost Pareto frontier",
    )
    ap.add_argument("--threads", "-t", type=int, default=4,
                    help="scheme port count to enumerate (default 4)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated Table 2 workloads "
                         "(default: all nine)")
    ap.add_argument("--budget-transistors", type=float, default=None,
                    help="recommend the best scheme within this "
                         "transistor budget")
    ap.add_argument("--budget-gate-delays", type=float, default=None,
                    help="recommend the best scheme within this "
                         "gate-delay budget")
    ap.add_argument("--shard", default=None, metavar="I/N",
                    help="simulate only the i-th of N deterministic grid "
                         "shards (merge the run directories afterwards)")
    ap.add_argument("--calibrated", action="store_true",
                    help="use paper-calibrated cost-model constants "
                         "(CostParams.fit) for the frontier and "
                         "recommendation instead of the defaults")
    _add_sim_args(ap)
    ap.add_argument("--list", action="store_true",
                    help="list the enumerated candidates + costs and exit "
                         "(no simulation)")
    args = ap.parse_args(argv)

    from repro.eval.sweep import candidate_table

    _check_threads(args.threads)
    machine = paper_machine()
    if args.list:
        print(candidate_table(args.threads, machine).render())
        return 0

    workloads = _parse_list(args.workloads, upper=True)
    shard = _parse_shard(args.shard) if args.shard else None
    with _open_session(args, machine=machine,
                       config=_base_config(args)) as session:
        if shard is not None and session.store is None:
            raise _CliError(
                "--shard requires a run directory or store "
                "(--out/--resume/--store): a shard's cell values are its "
                "only output and exist to be merged later; without a store "
                "they would be discarded"
            )

        t0 = time.time()
        try:
            result = session.sweep(
                args.threads, workloads, shard=shard,
                budget_transistors=args.budget_transistors,
                budget_gate_delays=args.budget_gate_delays,
                cost_params=CostParams.fit() if args.calibrated else None)
        except (KeyError, ValueError) as exc:
            # e.g. unknown/duplicate --workloads, validated by SweepPlan
            raise _CliError(exc.args[0] if exc.args else str(exc)) from None
        grid = session.last_grid
        print(result.render())
        print(f"  [{time.time() - t0:.1f}s]  cells: {grid.executed} "
              f"simulated, {grid.reused} reused")
        print()
        if session.store is not None and shard is None:
            path = session.store.save_artifact(result)
            print(f"  saved: {path}")
        return 0


# ----------------------------------------------------------------------
# search — guided Pareto search of the design space
# ----------------------------------------------------------------------
def _cmd_search(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval search",
        description="Guided Pareto search of the N-thread design space: "
                    "screen every scheme on cheap fidelity rungs, "
                    "promote the frontier neighborhood rung by rung, "
                    "finish the survivors at full fidelity.  With no "
                    "--budget this is exhaustive and bit-identical to "
                    "`repro-eval sweep`",
    )
    ap.add_argument("--threads", "-t", type=int, default=4,
                    help="scheme port count to search (default 4)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated Table 2 workloads "
                         "(default: all nine)")
    ap.add_argument("--budget", type=float, default=None,
                    help="fraction of the exhaustive sweep's full-"
                         "fidelity cost this search may spend (e.g. "
                         "0.3; default: unlimited = exhaustive)")
    ap.add_argument("--rungs", default="0.05,0.25,1",
                    help="fidelity ladder as ascending simulation "
                         "scales ending at 1 (default 0.05,0.25,1)")
    ap.add_argument("--eps", type=float, default=0.05,
                    help="frontier-neighborhood IPC band a candidate "
                         "may trail the frontier by and still be "
                         "promoted (default 0.05)")
    ap.add_argument("--drift", type=int, default=2,
                    help="max IPC-rank move between rungs that still "
                         "counts as rank-stable (default 2)")
    ap.add_argument("--evolve", action="store_true",
                    help="evolutionary mode: grow a seeded population "
                         "by mutating the frontier neighborhood "
                         "through the scheme grammar instead of "
                         "screening the whole space")
    ap.add_argument("--seed", type=int, default=0,
                    help="random seed for --evolve (default 0)")
    ap.add_argument("--population", type=int, default=24,
                    help="--evolve population size (default 24)")
    ap.add_argument("--generations", type=int, default=3,
                    help="--evolve discovery generations (default 3)")
    ap.add_argument("--budget-transistors", type=float, default=None,
                    help="recommend the best scheme within this "
                         "transistor budget")
    ap.add_argument("--budget-gate-delays", type=float, default=None,
                    help="recommend the best scheme within this "
                         "gate-delay budget")
    ap.add_argument("--calibrated", action="store_true",
                    help="use paper-calibrated cost-model constants "
                         "(CostParams.fit) for the frontier and "
                         "recommendation instead of the defaults")
    _add_sim_args(ap)
    args = ap.parse_args(argv)

    from repro.eval.evaluator import rung_configs, rungs_from_spec
    from repro.eval.queue import CampaignSpec
    from repro.eval.search import run_search
    from repro.eval.sweep import sweep_experiment_id

    _check_threads(args.threads)
    try:
        rungs = rungs_from_spec(args.rungs)
    except ValueError as exc:
        raise _CliError(f"bad --rungs: {exc}") from None
    workloads = _parse_list(args.workloads, upper=True)
    base = _base_config(args)
    with _open_session(args, machine=paper_machine(), config=base,
                       configs=rung_configs(base, rungs)) as session:
        queue_spec = None
        store = session.store
        if store is not None and store.url.startswith("queue:"):
            # fleet mode: the spec lets `repro-eval worker --follow`
            # processes rebuild every rung config and drain alongside us.
            queue_spec = CampaignSpec(
                experiment=sweep_experiment_id(args.threads),
                scale=args.scale, engine=args.engine,
                workloads=tuple(workloads) if workloads else None,
                kind="search",
                configs=tuple((r.tag, r.scale) for r in rungs if r.tag))

        t0 = time.time()
        try:
            result, report = run_search(
                session, args.threads, workloads,
                rungs=rungs, budget=args.budget, eps=args.eps,
                drift=args.drift, seed=args.seed, evolve=args.evolve,
                population=args.population, generations=args.generations,
                budget_transistors=args.budget_transistors,
                budget_gate_delays=args.budget_gate_delays,
                cost_params=CostParams.fit() if args.calibrated else None,
                queue_spec=queue_spec, progress=print)
        except (KeyError, ValueError) as exc:
            raise _CliError(exc.args[0] if exc.args else str(exc)) from None
        print(result.render())
        budget_txt = (f"{report.budget_units:.1f}"
                      if report.budget_units is not None else "unlimited")
        print(f"  [{time.time() - t0:.1f}s]  spent {report.spent:.2f} of "
              f"{budget_txt} budget units; {len(report.evaluated_full)} of "
              f"{report.exhaustive_units} semantics at full fidelity "
              f"({report.full_fraction:.0%})")
        print()
        if session.store is not None:
            path = session.store.save_artifact(result)
            print(f"  saved: {path}")
        return 0


# ----------------------------------------------------------------------
# matrix — cross-machine scaling campaigns
# ----------------------------------------------------------------------
def _cmd_matrix(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval matrix",
        description="Fan one experiment (or design-space sweep) over "
                    "several machine presets through one store and join "
                    "the per-machine results into a cross-machine "
                    "scaling report (frontiers, rank stability, budget "
                    "recommendations per geometry)",
    )
    ap.add_argument("--experiment", "-e", default="sweep4",
                    help="experiment id (table1, fig10, ...) or sweep id "
                         "('sweep'/'sweepN'; default sweep4)")
    ap.add_argument("--machines", default="2c4w,4c4w,8c4w",
                    help="comma-separated machine presets: named "
                         "(paper/small/wide) or geometries like 8c4w, "
                         "4c3w, 4c5w (clusters x per-cluster issue "
                         "width; default 2c4w,4c4w,8c4w)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated Table 2 workloads for sweep "
                         "experiments (default: all nine)")
    ap.add_argument("--budget-transistors", type=float, default=None,
                    help="per-machine recommendation within this "
                         "transistor budget")
    ap.add_argument("--budget-gate-delays", type=float, default=None,
                    help="per-machine recommendation within this "
                         "gate-delay budget")
    _add_sim_args(ap)
    args = ap.parse_args(argv)

    from repro.eval.scaling import scaling_report
    from repro.eval.sweep import sweep_threads

    tags = _parse_list(args.machines) or []
    if len(tags) < 2:
        raise _CliError(
            f"--machines needs at least two presets to form a matrix "
            f"(got {tags or 'none'})")
    if len(set(tags)) != len(tags):
        raise _CliError(f"duplicate machine presets in {tags}")
    try:
        machines = {tag: preset_machine(tag) for tag in tags}
    except ValueError as exc:
        raise _CliError(str(exc)) from None

    is_sweep = sweep_threads(args.experiment) is not None
    kw = {}
    if args.workloads:
        if not is_sweep:
            raise _CliError("--workloads only applies to sweep "
                            "experiments (-e sweep / -e sweepN)")
        kw["workloads"] = _parse_list(args.workloads, upper=True)
    if is_sweep:
        kw["budget_transistors"] = args.budget_transistors
        kw["budget_gate_delays"] = args.budget_gate_delays
    elif args.budget_transistors is not None \
            or args.budget_gate_delays is not None:
        raise _CliError("--budget-* only applies to sweep experiments")

    with _open_session(args, machine=paper_machine(), machines=machines,
                       config=_base_config(args)) as session:
        t0 = time.time()
        try:
            matrix = session.run_matrix(args.experiment, machines=tags,
                                        save=session.store is not None, **kw)
        except (KeyError, ValueError) as exc:
            raise _CliError(exc.args[0] if exc.args else str(exc)) from None
        if all("avg_ipc" in r.meta for r in matrix.results.values()):
            report = scaling_report(
                matrix, budget_transistors=args.budget_transistors,
                budget_gate_delays=args.budget_gate_delays)
            print(report.render())
            print()
        else:
            # no per-scheme IPC to join (e.g. table1): print the
            # per-variant artifacts instead of a scaling report
            report = None
            for result in matrix.results.values():
                print(result.render())
                print()
        print(f"  [{time.time() - t0:.1f}s]  {len(matrix.results)} variants "
              f"of {matrix.experiment}; cells: {matrix.executed} simulated, "
              f"{matrix.reused} reused")
        if session.store is not None and report is not None:
            path = session.store.save_artifact(report)
            print(f"  saved: {path}")
        return 0


# ----------------------------------------------------------------------
# merge — reassemble shard run directories
# ----------------------------------------------------------------------
def _cmd_merge(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval merge",
        description="Merge the recorded cells of several run stores "
                    "(e.g. sweep shards) into one; paths or store URLs "
                    "(dir:PATH / sqlite:PATH.db), backends may be mixed",
    )
    ap.add_argument("dest", help="destination run store "
                                 "(created if missing)")
    ap.add_argument("sources", nargs="+", help="source run stores")
    args = ap.parse_args(argv)
    try:
        dest = merge_runs(args.dest, args.sources)
    except (StoreMismatchError, ValueError) as exc:
        raise _CliError(str(exc)) from None
    with dest:
        for experiment in dest.experiments_with_cells():
            print(f"{experiment}: {len(dest.load_cells(experiment))} cells")
    print(f"merged {len(args.sources)} run stores into {dest.url}")
    return 0


# ----------------------------------------------------------------------
# queue-init / worker / queue-status / reset-failed — queue campaigns
# ----------------------------------------------------------------------
def _queue_url(arg: str) -> str:
    """Normalize the positional QUEUE argument to a ``queue:`` URL.

    A bare ``camp.db`` means ``queue:camp.db`` here — these verbs only
    ever operate on queues, so the prefix would be pure ceremony.
    """
    try:
        scheme, _ = parse_store_url(arg)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    if scheme == "dir" and not arg.startswith("dir:"):
        return f"queue:{arg}"
    if scheme != "queue":
        raise _CliError(
            f"{arg!r} is a {scheme}: store; queue verbs need a "
            f"queue:PATH.db URL")
    return arg


def _add_queue_arg(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("queue", metavar="QUEUE",
                    help="queue store: queue:PATH.db (bare paths are "
                         "taken as queue databases here)")


def _cmd_queue_init(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval queue-init",
        description="Turn an experiment or sweep grid into a queue of "
                    "claimable cells that any number of `repro-eval "
                    "worker` processes drain; idempotent, and cells "
                    "merged in from previous runs start out done",
    )
    _add_queue_arg(ap)
    ap.add_argument("--experiment", "-e", default="sweep4",
                    help="experiment id (table1, fig10, ...) or sweep id "
                         "('sweepN'; default sweep4)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated Table 2 workloads for sweep "
                         "campaigns (default: all nine)")
    ap.add_argument("--machines", default=None,
                    help="comma-separated machine presets for a matrix "
                         "campaign (default: the paper machine only)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="simulation length multiplier (default 1.0)")
    ap.add_argument("--engine", default="fast", choices=sorted(ENGINES),
                    help="simulation engine for every cell")
    args = ap.parse_args(argv)

    from repro.eval.queue import CampaignSpec, init_queue

    workloads = _parse_list(args.workloads, upper=True)
    machines = _parse_list(args.machines) or ()
    _base_config(args)  # name a bad --scale before the spec refuses it
    try:
        spec = CampaignSpec(experiment=args.experiment, scale=args.scale,
                            engine=args.engine, workloads=workloads,
                            machines=machines)
        status = init_queue(_queue_url(args.queue), spec)
    except (StoreMismatchError, ValueError) as exc:
        raise _CliError(str(exc)) from None
    print(f"enqueued {status.enqueued} new cells")
    print(status.render())
    return 0


def _cmd_worker(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval worker",
        description="Drain a queue campaign: claim open (or abandoned) "
                    "cells one at a time, simulate them, write the "
                    "results back, heartbeat.  Run as many of these as "
                    "you have cores/machines; they coordinate through "
                    "the queue alone",
    )
    _add_queue_arg(ap)
    ap.add_argument("--id", default=None, metavar="WORKER_ID",
                    help="worker identity shown in queue-status "
                         "(default: host-pid-suffix)")
    ap.add_argument("--ttl", type=float, default=300.0,
                    help="seconds without a heartbeat before another "
                         "worker's claim counts as abandoned (default "
                         "300; must exceed the slowest single cell)")
    ap.add_argument("--poll", type=float, default=0.5,
                    help="seconds between claim retries while waiting "
                         "on in-flight cells (default 0.5)")
    ap.add_argument("--max-cells", type=int, default=None,
                    help="stop after this many cells (default: drain)")
    ap.add_argument("--max-attempts", type=int, default=3,
                    help="claims a cell may burn before it is marked "
                         "failed (default 3; transient errors release "
                         "the cell for retry until then)")
    ap.add_argument("--no-wait", action="store_true",
                    help="exit when nothing is claimable instead of "
                         "waiting for other workers' in-flight cells")
    ap.add_argument("--follow", action="store_true",
                    help="guided-search fleets: keep polling through "
                         "the idle gaps between fidelity rungs until "
                         "the search coordinator marks the campaign "
                         "done")
    args = ap.parse_args(argv)

    from repro.eval.queue import run_worker

    t0 = time.time()
    try:
        report = run_worker(_queue_url(args.queue), worker_id=args.id,
                            ttl=args.ttl, poll=args.poll,
                            max_cells=args.max_cells,
                            max_attempts=args.max_attempts,
                            wait=not args.no_wait, follow=args.follow,
                            progress=print)
    except (StoreMismatchError, ValueError) as exc:
        raise _CliError(str(exc)) from None
    print(f"worker {report.worker}: {report.executed} cells executed "
          f"({report.reclaimed} reclaimed, {report.released} released), "
          f"{report.failed} failed [{time.time() - t0:.1f}s]")
    return 1 if report.failed else 0


def _cmd_queue_status(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval queue-status",
        description="Report a queue campaign's progress: cell counts "
                    "by status, live workers and their heartbeat ages, "
                    "stale claims, failed cells",
    )
    _add_queue_arg(ap)
    ap.add_argument("--ttl", type=float, default=300.0,
                    help="heartbeat age that counts as stale in the "
                         "report (default 300)")
    args = ap.parse_args(argv)

    from repro.eval.queue import queue_status

    try:
        status = queue_status(_queue_url(args.queue), ttl=args.ttl)
    except (StoreMismatchError, ValueError) as exc:
        raise _CliError(str(exc)) from None
    print(status.render())
    return 0


def _cmd_reset_failed(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-eval reset-failed",
        description="Return failed cells (and, with --stale-ttl, stale "
                    "claims of dead workers) to open so the next worker "
                    "retries them with a fresh attempt budget",
    )
    _add_queue_arg(ap)
    ap.add_argument("--stale-ttl", type=float, default=None,
                    metavar="SECONDS",
                    help="also reopen claimed cells whose heartbeat is "
                         "older than this (0 releases every claim — "
                         "only safe once the claiming workers are dead)")
    args = ap.parse_args(argv)

    from repro.eval.queue import reset_failed

    try:
        reopened = reset_failed(_queue_url(args.queue),
                                stale_ttl=args.stale_ttl)
    except (StoreMismatchError, ValueError) as exc:
        raise _CliError(str(exc)) from None
    print(f"reopened {reopened} cells")
    return 0


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "search": _cmd_search,
             "merge": _cmd_merge, "matrix": _cmd_matrix,
             "queue-init": _cmd_queue_init, "worker": _cmd_worker,
             "queue-status": _cmd_queue_status,
             "reset-failed": _cmd_reset_failed}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        print(f"\nsubcommands: {', '.join(sorted(_COMMANDS))} "
              f"(see `repro-eval SUBCOMMAND --help`)")
        return 0
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        print(f"error: unknown subcommand {argv[0]!r}; "
              f"choose from {sorted(_COMMANDS)}", file=sys.stderr)
        return 2
    command, rest = (_COMMANDS[argv[0]], argv[1:]) \
        if argv and argv[0] in _COMMANDS else (_cmd_run, argv)
    try:
        return command(rest)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `repro-eval --list | head`
        sys.exit(0)
