"""Engine micro-benchmark: simulated cycles/second across generations.

Measures the accelerated per-cell engine (``fast``) against
``reference`` on a grid of cells at the fig10 configuration
(``repro.eval.experiments.default_config``) and reports
simulated-cycles-per-wall-second plus the speedup per cell, per class
and overall.  Engines are bit-identical in every reported statistic
(enforced by ``tests/test_engine.py``), so the cycle counts agree by
construction and the comparison is pure wall-clock.

The output file is a *trajectory*: one ``generations`` entry per
engine, upserted in place, so regenerating after an optimization
updates that engine's entry and leaves the others as history::

    {"benchmark": "bench_engine", "config": {...},
     "generations": [{"engine": "fast", "geomean_by_class": {...}, ...}]}

Pre-trajectory flat reports (a top-level ``cells`` list) are migrated
to a single ``fast`` generation on first rewrite.

A standalone CLI (no test dependencies), used by CI's perf-smoke job
and to regenerate ``BENCH_engine.json`` at the repo root::

    python benchmarks/bench_engine.py --out BENCH_engine.json
    python benchmarks/bench_engine.py --engines fast --classes multithreaded
    python benchmarks/bench_engine.py --scale 0.1 --check \\
        --baseline BENCH_engine.json --tolerance 0.25

``--check`` exits non-zero when any measured engine's overall geomean
drops below ``--threshold``; ``--baseline`` additionally compares the
fresh per-class geomeans against a committed trajectory with a
relative ``--tolerance`` band.

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

#: single-thread baseline cells (Table 1 benchmarks on one context).
DEFAULT_BENCHES = ("mcf", "bzip2", "djpeg", "x264")

#: multithreaded cells: Table 2 workloads x scheme families.
DEFAULT_WORKLOADS = ("LLLL", "LLMH", "HHHH")
DEFAULT_SCHEMES = ("1S", "3CCC", "2SC3", "3SSS")

CLASSES = ("single-thread", "multithreaded")


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


def run_grid(cells, config, machine=None, engines=ENGINES,
             repeats: int = 3) -> dict:
    """Measure every cell and assemble the per-generation report."""
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
    generations = [_generation(measured, e) for e in engines]
    for gen in generations:
        # each generation records the config it was measured under, so
        # upserting one run's entry never misdescribes another's.
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
def check_report(report: dict, *, threshold: float = 1.0,
                 baseline: dict | None = None,
                 tolerance: float = 0.25) -> list[str]:
    """All regression-gate failures for one fresh report (empty = pass).

    * every measured engine's overall geomean must reach ``threshold``;
    * against ``baseline`` (a committed trajectory), each per-class
      geomean may regress at most ``tolerance`` (relative) — baseline
      classes the fresh report did not measure (a narrower ``--classes``
      run) are skipped, as are legacy 0.0 placeholders for empty
      classes.
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
    args = ap.parse_args(argv)

    split = (lambda s: tuple(x for x in s.split(",") if x))
    engines = split(args.engines)
    unknown = [e for e in engines if e not in ENGINES]
    if unknown or not engines:
        print(f"error: unknown engines {unknown}; choose from "
              f"{list(ENGINES)}", file=sys.stderr)
        return 2
    classes = split(args.classes)
    if any(c not in CLASSES for c in classes):
        print(f"error: unknown classes in {classes}; choose from "
              f"{list(CLASSES)}", file=sys.stderr)
        return 2
    cells = default_cells(split(args.benches), split(args.workloads),
                          split(args.schemes), classes)
    if not cells:
        print("error: empty benchmark grid", file=sys.stderr)
        return 2
    report = run_grid(cells, default_config(args.scale),
                      engines=engines, repeats=args.repeats)

    for gen in report["generations"]:
        engine = gen["engine"]
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
                                tolerance=args.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
