"""One repetition of one campaign workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``, an empty private ``REPRO_CACHE_DIR`` and a fixed
``PYTHONHASHSEED``.  Phases, each timed on the monotonic clock:

* **set-up** — from process start (``--t0``, taken by the parent just
  before it spawned this process) through the imports and compiling
  every program the workload needs on every machine it uses;
* **campaign** — the workload's verb on an empty store;
* **resume** — ``RESUMES[workload]`` times: reopen the finished store
  in a new ``Session`` and re-issue the verb; each must execute zero
  cells and return the campaign's artifact.

Prints one JSON line: timings, peak RSS, the checks made (each an
operation, ``True`` when it passed) and, with ``--trace 1``, the
per-layer metrics of :mod:`spans`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import resource
import statistics
import sys
import time

#: simulation scale of each workload (``default_config(scale)``).
SCALES = {"paper_full": 0.08, "matrix_short": 0.04, "search8_queue": 0.15}
SEARCH_WORKLOADS = ("LLLL", "LLHH", "HHHH")
SEARCH_BUDGET = 0.3
#: the frontier-recovery tolerance of docs/SEARCH_REPORT.md.
EPS = 0.05
#: resumes per repetition, about a second of them on each workload: the
#: host's speed drifts over seconds, so a shorter burst of resumes
#: samples one moment of it.  A fixed count keeps traced counts exact.
RESUMES = {"paper_full": 100, "matrix_short": 70, "search8_queue": 12}

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned.json")


def sim_seed(workload: str, variant: int) -> int:
    """``SimConfig.seed`` of one input variant.

    search8_queue always runs the default seed: its queue workers
    rebuild configs from the campaign spec's presets, which carry no
    seed, so a session with another seed would not match the queue.
    """
    return 1 if workload == "search8_queue" else 1 + variant


def base_config(workload: str, variant: int):
    from repro.eval.experiments import default_config

    engine = "batch" if workload == "matrix_short" else "fast"
    cfg = default_config(SCALES[workload], engine=engine)
    return dataclasses.replace(cfg, seed=sim_seed(workload, variant))


# -- the three workloads ---------------------------------------------------
# Each campaign function opens a Session on ``url``, runs the verb and
# returns (artifact, cells executed, frontier, extra) where ``artifact``
# is a JSON-able dict of every result the verb produced.

def _frontier_of_paper(results):
    from repro.eval.pareto import design_points, pareto_frontier

    points = design_points(results["fig10"].meta["avg_ipc"])
    return [p.to_dict() for p in pareto_frontier(points)]


def run_paper_full(url, cfg):
    from repro.eval.api import Session

    with Session(config=cfg, store=url) as session:
        results = session.run_all()
        executed = sum(session.grid(name).executed for name in results
                       if session.grid(name) is not None)
    artifact = {name: json.loads(r.to_json())
                for name, r in results.items()}
    return artifact, executed, _frontier_of_paper(results), None


def run_matrix_short(url, cfg):
    from repro.arch import machine_family
    from repro.eval import scaling
    from repro.eval.api import Session

    with Session(machines=machine_family(), config=cfg,
                 store=url) as session:
        matrix = session.run_matrix("sweep4")
        report = scaling.scaling_report(matrix)
    artifact = {"report": json.loads(report.to_json())}
    for (mtag, _ctag), result in sorted(matrix.results.items()):
        artifact[mtag] = json.loads(result.to_json())
    frontier = [dict(p, variant=label)
                for label, points in sorted(report.meta["frontiers"].items())
                for p in points]
    return artifact, matrix.executed, frontier, None


def run_search8_queue(url, cfg):
    from repro.eval import search
    from repro.eval.api import Session
    from repro.eval.evaluator import DEFAULT_RUNGS, rung_configs
    from repro.eval.queue import CampaignSpec

    spec = CampaignSpec(
        experiment="sweep8", scale=SCALES["search8_queue"],
        engine=cfg.engine, workloads=SEARCH_WORKLOADS, kind="search",
        configs=tuple((r.tag, r.scale) for r in DEFAULT_RUNGS if r.tag))
    with Session(config=cfg, configs=rung_configs(cfg, DEFAULT_RUNGS),
                 store=url) as session:
        result, report = search.run_search(
            session, 8, list(SEARCH_WORKLOADS), rungs=DEFAULT_RUNGS,
            budget=SEARCH_BUDGET, queue_spec=spec)
        failed = session.store.backend.queue_counts()["failed"]
    artifact = json.loads(result.to_json())
    for entry in artifact["meta"]["search"]["schedule"]:
        # the only fields a resumed search may change: audit counters
        entry.pop("executed")
        entry.pop("reused")
    executed = sum(e["executed"] for e in report.schedule)
    return (artifact, executed, list(result.meta["frontier"]),
            {"report": report, "queue_failed": failed})


WORKLOADS = {
    "paper_full": ("dir", run_paper_full),
    "matrix_short": ("sqlite", run_matrix_short),
    "search8_queue": ("queue", run_search8_queue),
}


def skip_sqlite_fsync() -> None:
    """Open every SQLite connection of this process with
    ``PRAGMA synchronous = OFF``.

    Stores must live inside the checkout, whose disk is shared with
    other tenants; waiting on its fsyncs made the queue workload's
    thousands of commits the noisiest figure of the benchmark.  Without
    the fsyncs a commit costs what it costs on tmpfs, where ``fsync`` is
    a no-op.  The program's own statements, pragmas included, run
    unchanged after this one.
    """
    import sqlite3

    connect = sqlite3.connect

    @functools.wraps(connect)
    def connect_without_fsync(*args, **kw):
        conn = connect(*args, **kw)
        conn.execute("PRAGMA synchronous = OFF")
        return conn

    sqlite3.connect = connect_without_fsync


def programs_needed(workload: str):
    """``(specs, machines)`` the workload compiles in set-up."""
    from repro.arch import machine_family, paper_machine
    from repro.kernels import SUITE
    from repro.workloads import WORKLOAD_ORDER, workload_specs

    if workload == "paper_full":   # table1 runs every Table 1 kernel
        return list(SUITE), [paper_machine()]
    names = (SEARCH_WORKLOADS if workload == "search8_queue"
             else WORKLOAD_ORDER)
    specs = {s.name: s for wl in names for s in workload_specs(wl)}
    machines = (list(machine_family().values())
                if workload == "matrix_short" else [paper_machine()])
    return list(specs.values()), machines


# -- checks ------------------------------------------------------------------

def digest(artifact) -> str:
    text = json.dumps(artifact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def eps_coverage(reference, found, eps: float = EPS) -> float:
    """Share of ``reference`` points that ``found`` covers: a point is
    covered by one at most as costly on both axes, within ``eps`` of
    its IPC (and, for matrix frontiers, on the same machine)."""
    if not reference:
        return 0.0
    covered = sum(
        any(q.get("variant") == p.get("variant")
            and q["transistors"] <= p["transistors"]
            and q["gate_delays"] <= p["gate_delays"]
            and q["ipc"] >= (1 - eps) * p["ipc"] for q in found)
        for p in reference)
    return covered / len(reference)


def load_pinned(workload: str, variant: int):
    with open(PINNED, encoding="utf-8") as f:
        pinned = json.load(f)
    key = "0" if workload == "search8_queue" else str(variant)
    return pinned["workloads"][workload][key]


# -- the repetition -----------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.monotonic() just before spawning")
    ap.add_argument("--work", required=True,
                    help="empty private directory for stores")
    ap.add_argument("--trace-out", default=None,
                    help="record spans and write them here at exit")
    ap.add_argument("--pin", action="store_true",
                    help="print the artifact digest and frontier instead "
                         "of checking them (used by pin.py)")
    args = ap.parse_args(argv)

    # -- set-up ------------------------------------------------------------
    import repro.eval.api  # noqa: F401 - imports are part of set-up
    import repro.eval.queue  # noqa: F401
    import repro.eval.scaling  # noqa: F401
    import repro.eval.search  # noqa: F401
    import repro.sim.batch  # noqa: F401
    from repro import kernels
    from repro.sim import native

    skip_sqlite_fsync()
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.run_id = "setup"
    specs, machines = programs_needed(args.workload)
    for machine in machines:
        for spec in specs:
            kernels.compile_spec(spec, machine)
    if args.workload == "matrix_short":
        native.get_native()
    cfg = base_config(args.workload, args.variant)
    setup_s = time.monotonic() - args.t0

    # -- campaign ----------------------------------------------------------
    scheme, campaign = WORKLOADS[args.workload]
    path = os.path.join(args.work, "store" + (".db" if scheme != "dir"
                                              else ""))
    url = f"{scheme}:{path}"
    if tracer:
        tracer.run_id = "campaign"
    cpu0 = time.process_time()
    c0 = time.perf_counter()
    artifact, executed, frontier, extra = campaign(url, cfg)
    c1 = time.perf_counter()
    campaign_s = c1 - c0
    campaign_cpu_s = time.process_time() - cpu0

    # -- resume ------------------------------------------------------------
    checks = {}
    resume_s = []
    for i in range(RESUMES[args.workload]):
        if tracer:
            tracer.run_id = f"resume{i}"
        r0 = time.perf_counter()
        again, re_executed, _, re_extra = campaign(url, cfg)
        resume_s.append(time.perf_counter() - r0)
        checks[f"resume{i}.zero_cells"] = re_executed == 0
        checks[f"resume{i}.same_artifact"] = again == artifact
        if re_extra:
            checks[f"resume{i}.queue_failed"] = re_extra["queue_failed"] == 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.pin:
        print(json.dumps({"digest": digest(artifact), "frontier": frontier,
                          "executed": executed}))
        return 0

    pinned = load_pinned(args.workload, args.variant)
    checks["artifact_digest"] = digest(artifact) == pinned["digest"]
    checks["cells_executed"] = executed == pinned["cells_executed"]
    coverage = eps_coverage(
        pinned.get("reference_frontier", pinned["frontier"]), frontier)
    checks["frontier_coverage_pinned"] = (
        coverage == pinned["frontier_coverage"])
    queue_failed = extra["queue_failed"] if extra else 0

    out = {"sim_seed": cfg.seed, "setup_s": setup_s, "campaign_s": campaign_s,
           "campaign_cpu_s": campaign_cpu_s,
           "resume_s": statistics.median(resume_s),
           "peak_rss_mb": peak_rss_mb, "frontier_coverage": coverage,
           "executed": executed, "queue_failed": queue_failed,
           "checks": checks}
    if tracer:
        tracer.enabled = False
        out["layers"] = layer_metrics(tracer, c0, c1, url, extra)
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, c0, c1, url, extra) -> dict:
    """Per-layer metrics of one traced repetition (all phases; ``other.s``
    is the campaign's time outside every traced span)."""
    from repro.eval.store import open_store

    self_s = tracer.self_times()
    in_campaign = tracer.self_times(c0, c1)
    counts = tracer.counts
    cell_ms = sorted((e - s) * 1e3 for name, s, e, _, _ in tracer.spans
                     if name == "sim")

    def pct(q):
        if not cell_ms:
            return 0.0
        return cell_ms[min(len(cell_ms) - 1, int(q * len(cell_ms)))]

    def ratio(num, den):
        return num / den if den else 0.0

    codegen = {"codegen_compiles": 0, "compile_seconds": 0.0,
               "codegen_memory_hits": 0, "codegen_disk_hits": 0}
    store = open_store(url)
    try:
        for experiment in store.experiments_with_cells():
            for meta in store.load_cell_meta(experiment).values():
                stats = meta.get("engine_stats") or {}
                for k in codegen:
                    codegen[k] += stats.get(k, 0)
    finally:
        store.close()
    hits = codegen["codegen_memory_hits"] + codegen["codegen_disk_hits"]

    sim_s = self_s.get("sim", 0.0)
    batch_s = self_s.get("batch", 0.0)
    cycles = counts.get("sim.cycles", 0)
    memo = counts.get("sim.memo_hits", 0) + counts.get("sim.memo_misses", 0)
    report = (extra or {}).get("report")
    rung_cells = {"f0.05": 0, "f0.25": 0, "full": 0}
    if report is not None:
        for entry in report.schedule:
            rung_cells[entry["rung"]] += entry["executed"]
    return {
        "compile.calls": tracer.calls("compile"),
        "compile.s": self_s.get("compile", 0.0),
        "native.build_s": self_s.get("native", 0.0),
        "sim.cells": counts.get("sim.cells", 0),
        "sim.s": sim_s,
        "sim.kcycles": cycles / 1e3,
        "sim.ns_per_cycle": ratio((sim_s + batch_s) * 1e9, cycles),
        "sim.cell_ms.p50": pct(0.5),
        "sim.cell_ms.p90": pct(0.9),
        "sim.memo_hit_ratio": ratio(counts.get("sim.memo_hits", 0), memo),
        "batch.groups": counts.get("batch.groups", 0),
        "batch.s": batch_s,
        "batch.lane_ratio": ratio(counts.get("batch.lanes", 0),
                                  counts.get("batch.attempted", 0)),
        "batch.fallback_cells": counts.get("batch.fallback_cells", 0),
        "codegen.compiles": codegen["codegen_compiles"],
        "codegen.compile_s": codegen["compile_seconds"],
        "codegen.hit_ratio": ratio(hits, hits + codegen["codegen_compiles"]),
        "scheme.compile.calls": tracer.calls("scheme.compile"),
        "scheme.compile.s": self_s.get("scheme.compile", 0.0),
        "runner.executed": counts.get("runner.executed", 0),
        "runner.reused": counts.get("runner.reused", 0),
        "runner.s": self_s.get("runner", 0.0),
        "store.write.calls": tracer.calls("store.write"),
        "store.write.s": self_s.get("store.write", 0.0),
        "store.read.calls": tracer.calls("store.read"),
        "store.read.s": self_s.get("store.read", 0.0),
        "queue.claim.calls": tracer.calls("queue.claim"),
        "queue.claim.s": self_s.get("queue.claim", 0.0),
        "queue.finish.s": self_s.get("queue.finish", 0.0),
        "queue.released": counts.get("queue.released", 0),
        "queue.failed": counts.get("queue.failed", 0),
        "plan.s": self_s.get("plan", 0.0),
        "plan.candidates": counts.get("plan.candidates", 0),
        "plan.groups": counts.get("plan.groups", 0),
        "search.s": self_s.get("search", 0.0),
        "search.cells.f0.05": rung_cells["f0.05"],
        "search.cells.f0.25": rung_cells["f0.25"],
        "search.cells.full": rung_cells["full"],
        "search.spent_units": report.spent if report else 0.0,
        "search.full_fraction": report.full_fraction if report else 0.0,
        "pareto.s": self_s.get("pareto", 0.0),
        "scaling.s": self_s.get("scaling", 0.0),
        "assemble.s": self_s.get("assemble", 0.0),
        "other.s": (c1 - c0) - sum(in_campaign.values()),
    }


if __name__ == "__main__":
    sys.exit(main())
