"""Engine micro-benchmark: simulated cycles/second across generations.

Measures the accelerated per-cell engine (``fast``) against
``reference`` on a grid of cells at the fig10 configuration
(``repro.eval.experiments.default_config``) and reports
simulated-cycles-per-wall-second plus the speedup per cell, per class
and overall.  Engines are bit-identical in every reported statistic
(enforced by ``tests/test_engine.py``), so the cycle counts agree by
construction and the comparison is pure wall-clock.

The ``batch`` engine is measured differently: its payoff is
amortizing python dispatch across many compatible cells, so instead of
per-cell timings it gets a ``campaign`` class — a whole sweep
(machine shapes x Table 2 workloads x the 17-scheme sweep) timed as a
serial fast loop vs one grouped ``run_workloads_batch`` call, reported
in cells/second.  Its ``geomean_by_class['campaign']`` is the
batch-over-fast throughput ratio (baseline ``fast``, not reference), so
CI gates it with an absolute floor: ``--floor batch:campaign:2.0``.

The output file is a *trajectory*: one ``generations`` entry per
engine, upserted in place, so regenerating after an optimization
updates that engine's entry and leaves the others as history::

    {"benchmark": "bench_engine", "config": {...},
     "generations": [{"engine": "fast",  "geomean_by_class": {...}, ...},
                     {"engine": "batch", "baseline": "fast", ...}]}

Pre-trajectory flat reports (a top-level ``cells`` list) are migrated
to a single ``fast`` generation on first rewrite.

A standalone CLI (no test dependencies), used by CI's perf-smoke job
and to regenerate ``BENCH_engine.json`` at the repo root::

    python benchmarks/bench_engine.py --out BENCH_engine.json
    python benchmarks/bench_engine.py --engines fast --classes multithreaded
    python benchmarks/bench_engine.py --engines batch --classes campaign \\
        --scale 0.1 --check --floor batch:campaign:2.0
    python benchmarks/bench_engine.py --scale 0.1 --check \\
        --baseline BENCH_engine.json --tolerance 0.25

``--check`` exits non-zero when any measured engine's overall geomean
drops below ``--threshold``; ``--baseline`` additionally compares the
fresh per-class geomeans against a committed trajectory with a
relative ``--tolerance`` band, and ``--floor`` pins absolute
per-class minima (``engine:class:value``).

The default grid covers the engines' operating envelope: the
single-thread baseline (where burst execution and idle-cycle skipping
dominate) and multithreaded Table 2 cells across scheme families (where
the pair table and compiled scheme plans carry the load).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import time

from repro.arch import paper_machine
from repro.eval.experiments import default_config
from repro.kernels import by_name, compile_spec
from repro.sim import run_workload
from repro.workloads import workload_programs

#: engines measured per cell against the reference baseline.
ENGINES = ("fast",)

#: the campaign engine.  Its win is amortization across cells, so it is
#: measured on whole sweeps (cells/second vs a serial fast run) in the
#: ``campaign`` class rather than per cell against reference.
CAMPAIGN_ENGINE = "batch"

#: campaign sweep machine matrix: (clusters, issue width) passed to
#: ``repro.arch.scaled_machine``.  Seven machine shapes x 9 Table 2
#: workloads x the 17-scheme sweep = 1071 cells; the breadth matters
#: because batch amortizes python dispatch across every compatible cell.
CAMPAIGN_MACHINES = ((4, 3), (4, 4), (4, 5), (2, 4), (6, 4), (2, 3), (6, 5))

#: single-thread baseline cells (Table 1 benchmarks on one context).
DEFAULT_BENCHES = ("mcf", "bzip2", "djpeg", "x264")

#: multithreaded cells: Table 2 workloads x scheme families.
DEFAULT_WORKLOADS = ("LLLL", "LLMH", "HHHH")
DEFAULT_SCHEMES = ("1S", "3CCC", "2SC3", "3SSS")

CLASSES = ("single-thread", "multithreaded", "campaign")


def default_cells(benches=DEFAULT_BENCHES, workloads=DEFAULT_WORKLOADS,
                  schemes=DEFAULT_SCHEMES, classes=CLASSES) -> list[dict]:
    cells = [{"workload": b, "scheme": "ST", "class": "single-thread"}
             for b in benches]
    cells += [{"workload": wl, "scheme": s, "class": "multithreaded"}
              for wl in workloads for s in schemes]
    return [c for c in cells if c["class"] in classes]


def _programs(cell, machine):
    if cell["scheme"] == "ST" and cell["class"] == "single-thread":
        return [compile_spec(by_name(cell["workload"]), machine)]
    return workload_programs(cell["workload"], machine)


def measure_cell(cell: dict, config, machine, engines=ENGINES,
                 repeats: int = 3) -> dict:
    """Time the reference and every ``engines`` entry on one cell.

    Best-of-``repeats`` wall seconds per engine.  ``cycles`` is
    ``SimStats.cycles`` (the statistics window all engines account
    identically; warmup cycles are excluded from the numerator for all
    alike, so the speedups are unaffected).
    """
    repeats = max(1, repeats)
    programs = _programs(cell, machine)  # compiled once, cached
    out = dict(cell)
    out["speedups"] = {}
    cycles = {}
    for engine in ("reference",) + tuple(engines):
        cfg = dataclasses.replace(config, engine=engine)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_workload(programs, cell["scheme"], cfg)
            best = min(best, time.perf_counter() - t0)
        cycles[engine] = result.stats.cycles
        out[engine] = {
            "cycles": result.stats.cycles,
            "seconds": round(best, 6),
            "cycles_per_sec": round(result.stats.cycles / best, 1),
        }
    if len(set(cycles.values())) != 1:  # defense in depth
        raise AssertionError(
            f"engines disagree on {cell}: {cycles} simulated cycles")
    for engine in engines:
        out["speedups"][engine] = round(
            out[engine]["cycles_per_sec"]
            / out["reference"]["cycles_per_sec"], 3)
    return out


def _geomean(values) -> float:
    values = list(values)
    if not values:
        # a 0.0 placeholder used to leak into geomean_by_class and read
        # as a catastrophic regression; empty classes must be omitted
        # upstream, never averaged.
        raise ValueError("geomean of an empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _generation(measured: list[dict], engine: str) -> dict:
    """One engine's trajectory entry, derived from the measured grid.

    ``geomean_by_class`` only carries classes that actually have
    measured cells — an empty class is omitted, not reported as 0.0.
    """
    cells = [
        {**{k: c[k] for k in ("workload", "scheme", "class")},
         "reference": c["reference"], engine: c[engine],
         "speedup": c["speedups"][engine]}
        for c in measured
    ]
    by_class: dict[str, list[float]] = {}
    for c in cells:
        by_class.setdefault(c["class"], []).append(c["speedup"])
    speedups = [c["speedup"] for c in cells]
    return {
        "engine": engine,
        "cells": cells,
        "geomean_speedup": round(_geomean(speedups), 3),
        "geomean_by_class": {
            cls: round(_geomean(v), 3)
            for cls, v in sorted(by_class.items())
        },
        "max_speedup": max(speedups),
    }


def measure_campaign(config, machines=CAMPAIGN_MACHINES,
                     repeats: int = 1) -> dict:
    """Time one campaign sweep: serial fast vs grouped batch.

    Builds the ``machines`` x Table 2 workloads x 17-scheme grid, runs
    it once per engine strategy — a per-cell fast loop (what every
    campaign runs) vs one grouped ``run_workloads_batch`` call with ST
    cells run solo on fast — and reports cells/second for each.  Every
    cell's IPC must agree between the two runs, so the comparison is
    pure wall-clock.

    Run this at campaign scale (``--scale 0.1``-ish): short cells are
    the batch engine's operating regime — python dispatch per cell is
    what it amortizes.
    """
    from repro.arch import scaled_machine
    from repro.merge.registry import PAPER_SCHEMES
    from repro.sim.batch import run_workloads_batch
    from repro.workloads import WORKLOAD_ORDER, workload_specs

    schemes = ["ST", "1S"] + list(PAPER_SCHEMES)
    fast_cfg = dataclasses.replace(config, engine="fast")
    tasks = []
    for clusters, width in machines:
        m = scaled_machine(clusters, width)
        progs = {wl: [compile_spec(s, m) for s in workload_specs(wl)]
                 for wl in WORKLOAD_ORDER}
        tasks += [(progs[wl], s)
                  for wl in WORKLOAD_ORDER for s in schemes]
    multi = [(i, t) for i, t in enumerate(tasks) if t[1] != "ST"]
    solo = [(i, t) for i, t in enumerate(tasks) if t[1] == "ST"]

    best = {"fast": math.inf, "batch": math.inf}
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fast_ipc = [run_workload(p, s, fast_cfg).ipc for p, s in tasks]
        best["fast"] = min(best["fast"], time.perf_counter() - t0)

        batch_ipc = [None] * len(tasks)
        t0 = time.perf_counter()
        results = run_workloads_batch([t for _, t in multi], config)
        for (i, (p, s)), res in zip(multi, results):
            if res is None:  # unbatchable cell: falls back to fast
                res = run_workload(p, s, fast_cfg)
            batch_ipc[i] = res.ipc
        for i, (p, s) in solo:
            batch_ipc[i] = run_workload(p, s, fast_cfg).ipc
        best["batch"] = min(best["batch"], time.perf_counter() - t0)

    if batch_ipc != fast_ipc:  # defense in depth
        bad = sum(a != b for a, b in zip(batch_ipc, fast_ipc))
        raise AssertionError(
            f"batch and fast disagree on {bad}/{len(tasks)} campaign cells")
    out = {
        "workload": "sweep",
        "scheme": f"{len(machines)}m x {len(WORKLOAD_ORDER)}wl x "
                  f"{len(schemes)}s",
        "class": "campaign",
        "cells": len(tasks),
        "speedup": round(best["fast"] / best["batch"], 3),
    }
    for engine in ("fast", "batch"):
        out[engine] = {
            "seconds": round(best[engine], 6),
            "cells_per_sec": round(len(tasks) / best[engine], 2),
        }
    return out


def _campaign_generation(measured: list[dict]) -> dict:
    """The batch engine's trajectory entry.

    ``geomean_by_class['campaign']`` IS the batch-over-fast
    cells-per-second ratio (the baseline is a serial fast run, not
    reference), so an absolute ``--floor batch:campaign:N`` gates the
    campaign throughput multiple directly.
    """
    speedups = [c["speedup"] for c in measured]
    return {
        "engine": CAMPAIGN_ENGINE,
        "baseline": "fast",
        "cells": measured,
        "geomean_speedup": round(_geomean(speedups), 3),
        "geomean_by_class": {"campaign": round(_geomean(speedups), 3)},
        "max_speedup": max(speedups),
    }


def run_grid(cells, config, machine=None, engines=ENGINES,
             repeats: int = 3, campaign: bool = False,
             campaign_machines=CAMPAIGN_MACHINES,
             campaign_repeats: int = 1) -> dict:
    """Measure every cell and assemble the per-generation report.

    With ``campaign=True`` a ``batch`` generation is appended,
    measured on the whole campaign sweep (``measure_campaign``)
    instead of per cell; ``cells`` may then be empty.
    """
    machine = machine or paper_machine()
    engines = tuple(engines)
    cfg_dict = {
        "instr_limit": config.instr_limit,
        "timeslice": config.timeslice,
        "warmup_instrs": config.warmup_instrs,
        "seed": config.seed,
    }
    measured = [measure_cell(c, config, machine, engines, repeats)
                for c in cells]
    generations = [_generation(measured, e) for e in engines] \
        if measured else []
    if campaign:
        generations.append(_campaign_generation(
            [measure_campaign(config, campaign_machines,
                              campaign_repeats)]))
    for gen in generations:
        # each generation records the config it was measured under:
        # the campaign class runs at campaign scale (short cells are
        # its operating regime) while the per-cell grid may not, and
        # upserting must not let one run's config misdescribe history.
        gen["config"] = cfg_dict
    return {
        "benchmark": "bench_engine",
        "config": cfg_dict,
        "python": platform.python_version(),
        "generations": generations,
    }


# ----------------------------------------------------------------------
# trajectory file handling
# ----------------------------------------------------------------------
def load_trajectory(path: str) -> dict | None:
    """Read a trajectory report, migrating the pre-trajectory flat
    format (top-level ``cells`` + ``geomean_*``) to one ``fast``
    generation."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    if "generations" in data:
        return data
    if "cells" not in data:
        return None
    generation = {
        "engine": "fast",
        "cells": data["cells"],
        "geomean_speedup": data.get("geomean_speedup", 0.0),
        "geomean_by_class": data.get("geomean_by_class", {}),
        "max_speedup": data.get("max_speedup", 0.0),
    }
    return {
        "benchmark": data.get("benchmark", "bench_engine"),
        "config": data.get("config", {}),
        "python": data.get("python", ""),
        "generations": [generation],
    }


def upsert_generations(existing: dict | None, report: dict) -> dict:
    """Merge a fresh report into a trajectory: replace each measured
    engine's generation in place, keep the others as history."""
    if existing is None:
        return report
    merged = dict(existing)
    merged["config"] = report["config"]
    merged["python"] = report["python"]
    fresh = {g["engine"]: g for g in report["generations"]}
    generations = [fresh.pop(g["engine"], g)
                   for g in existing.get("generations", [])]
    # engines measured for the first time append in ENGINES order
    generations += [g for g in report["generations"]
                    if g["engine"] in fresh]
    merged["generations"] = generations
    return merged


# ----------------------------------------------------------------------
# regression gates (CI perf-smoke)
# ----------------------------------------------------------------------
def parse_floor(spec: str) -> tuple[str, str, float]:
    """``engine:class:value`` -> ``(engine, class, value)``."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"floor {spec!r} must be 'engine:class:value'")
    engine, cls, value = parts
    return engine, cls, float(value)


def check_report(report: dict, *, threshold: float = 1.0,
                 baseline: dict | None = None, tolerance: float = 0.25,
                 floors=()) -> list[str]:
    """All regression-gate failures for one fresh report (empty = pass).

    * every measured engine's overall geomean must reach ``threshold``;
    * against ``baseline`` (a committed trajectory), each per-class
      geomean may regress at most ``tolerance`` (relative) — baseline
      classes the fresh report did not measure (a narrower ``--classes``
      run) are skipped, as are legacy 0.0 placeholders for empty
      classes;
    * each ``floors`` entry pins an absolute per-class geomean
      (``engine:class:value``) — an explicitly named floor on an
      unmeasured engine or class is a failure, never a silent pass.
    """
    failures = []
    fresh = {g["engine"]: g for g in report["generations"]}
    for engine, gen in fresh.items():
        if gen["geomean_speedup"] < threshold:
            failures.append(
                f"{engine}: overall geomean {gen['geomean_speedup']} < "
                f"threshold {threshold}")
    if baseline is not None:
        base = {g["engine"]: g for g in baseline.get("generations", [])}
        for engine, gen in fresh.items():
            for cls, value in base.get(engine, {}) \
                    .get("geomean_by_class", {}).items():
                got = gen["geomean_by_class"].get(cls)
                if got is None or value <= 0:
                    continue  # class not measured fresh / legacy 0.0
                if got < value * (1.0 - tolerance):
                    failures.append(
                        f"{engine}/{cls}: geomean {got} regressed below "
                        f"baseline {value} - {tolerance:.0%}")
    for engine, cls, value in floors:
        gen = fresh.get(engine)
        if gen is None:
            failures.append(f"floor {engine}:{cls}: engine not measured")
            continue
        got = gen["geomean_by_class"].get(cls)
        if got is None:
            failures.append(f"floor {engine}:{cls}: class not measured")
            continue
        if got < value:
            failures.append(
                f"floor: {engine}:{cls} geomean {got:.3f} < {value}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark the simulation engines against reference")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="run-length multiplier on the fig10 config")
    ap.add_argument("--engines", default=",".join(ENGINES),
                    help="comma list of engines to measure vs reference")
    ap.add_argument("--classes", "--class", dest="classes",
                    default=",".join(CLASSES),
                    help="comma list of cell classes to keep "
                         "(single-thread, multithreaded)")
    ap.add_argument("--benches", default=",".join(DEFAULT_BENCHES),
                    help="comma list of single-thread benchmarks ('' = none)")
    ap.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                    help="comma list of Table 2 workloads ('' = none)")
    ap.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES),
                    help="comma list of schemes for the workload cells")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per cell (best is kept)")
    ap.add_argument("--campaign-machines", type=int,
                    default=len(CAMPAIGN_MACHINES),
                    help="machine shapes in the campaign sweep (batch "
                         "generation only; fewer = faster, less amortized)")
    ap.add_argument("--campaign-repeats", type=int, default=1,
                    help="timing repeats for the campaign sweep (the "
                         "sweep is long enough that 1 is usually stable)")
    ap.add_argument("--out", default=None,
                    help="trajectory JSON to update (generations are "
                         "upserted per engine, never overwritten)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on any regression-gate failure")
    ap.add_argument("--threshold", type=float, default=1.0,
                    help="minimum overall geomean per engine for --check")
    ap.add_argument("--baseline", default=None,
                    help="committed trajectory JSON to gate against")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative per-class regression vs "
                         "--baseline (default 0.25)")
    ap.add_argument("--floor", action="append", default=[],
                    help="absolute gate 'engine:class:value' "
                         "(repeatable)")
    args = ap.parse_args(argv)

    split = (lambda s: tuple(x for x in s.split(",") if x))
    engines = split(args.engines)
    known = ENGINES + (CAMPAIGN_ENGINE,)
    unknown = [e for e in engines if e not in known]
    if unknown or not engines:
        print(f"error: unknown engines {unknown}; choose from "
              f"{list(known)}", file=sys.stderr)
        return 2
    classes = split(args.classes)
    if any(c not in CLASSES for c in classes):
        print(f"error: unknown classes in {classes}; choose from "
              f"{list(CLASSES)}", file=sys.stderr)
        return 2
    try:
        floors = [parse_floor(s) for s in args.floor]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    campaign = CAMPAIGN_ENGINE in engines and "campaign" in classes
    grid_engines = tuple(e for e in engines if e != CAMPAIGN_ENGINE)
    cells = default_cells(split(args.benches), split(args.workloads),
                          split(args.schemes), classes) \
        if grid_engines else []
    if not cells and not campaign:
        print("error: empty benchmark grid", file=sys.stderr)
        return 2
    machines = max(1, min(args.campaign_machines, len(CAMPAIGN_MACHINES)))
    report = run_grid(cells, default_config(args.scale),
                      engines=grid_engines, repeats=args.repeats,
                      campaign=campaign,
                      campaign_machines=CAMPAIGN_MACHINES[:machines],
                      campaign_repeats=args.campaign_repeats)

    for gen in report["generations"]:
        engine = gen["engine"]
        if engine == CAMPAIGN_ENGINE:
            for c in gen["cells"]:
                print(f"campaign [{c['scheme']}] ({c['cells']} cells): "
                      f"fast {c['fast']['cells_per_sec']:.1f} cells/s   "
                      f"batch {c['batch']['cells_per_sec']:.1f} cells/s   "
                      f"{c['speedup']:.2f}x")
            print(f"[{engine}] geomean [campaign]: "
                  f"{gen['geomean_by_class']['campaign']:.2f}x over fast")
            continue
        width = max(len(c["workload"]) for c in gen["cells"])
        for c in gen["cells"]:
            print(f"{c['workload']:<{width}} {c['scheme']:<5} "
                  f"ref {c['reference']['cycles_per_sec']:>12,.0f} c/s   "
                  f"{engine} {c[engine]['cycles_per_sec']:>12,.0f} c/s   "
                  f"{c['speedup']:.2f}x")
        for cls, g in gen["geomean_by_class"].items():
            print(f"[{engine}] geomean [{cls}]: {g:.2f}x")
        print(f"[{engine}] geomean overall: {gen['geomean_speedup']:.2f}x"
              f"   max: {gen['max_speedup']:.2f}x")

    if args.out:
        merged = upsert_generations(load_trajectory(args.out), report)
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=2)
            f.write("\n")
        print(f"saved: {args.out}")

    if args.check:
        baseline = load_trajectory(args.baseline) if args.baseline else None
        if args.baseline and baseline is None:
            print(f"error: unreadable baseline {args.baseline!r}",
                  file=sys.stderr)
            return 2
        failures = check_report(report, threshold=args.threshold,
                                baseline=baseline,
                                tolerance=args.tolerance, floors=floors)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
