"""Campaign benchmark: time three campaign workloads end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_full --seed 0 --seconds 40 --trace 0

Repeats the workload for ``--seconds`` seconds, each repetition a fresh
single-threaded process (``rep.py``) with an empty private cache
directory, and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the medians of the end-to-end metrics
(``--trace 0``) or the per-layer metrics of traced repetitions
(``--trace 1``), named and united as in ``BENCHMARK.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("paper_full", "matrix_short", "search8_queue")
#: pinned input variants; repetition ``i`` of an untraced run uses
#: variant ``(seed + i) mod VARIANTS``, so each run's medians span
#: several inputs and differences between inputs do not become
#: differences between runs.
VARIANTS = 8
MIN_REPS = 3
#: a run never outlives this many seconds, whatever its repetitions do
HARD_LIMIT = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def run_rep(root: str, work_root: str, workload: str, variant: int,
            timeout: float, extra=()) -> dict:
    """One repetition in a fresh process (``extra`` = more ``rep.py``
    arguments); its JSON line, or an error."""
    rep_dir = tempfile.mkdtemp(dir=work_root, prefix=f"{workload}-")
    env = dict(os.environ,
               PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0",
               REPRO_CACHE_DIR=os.path.join(rep_dir, "cache"),
               TMPDIR=rep_dir,
               OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("REPRO_NO_NATIVE", None)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--variant", str(variant),
           "--work", rep_dir, *extra]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "eval",
                                       "api.py")):
        print(f"error: {root} is not a checkout of this repository "
              f"(no src/repro); run from the checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_root = os.path.join(root, ".perfbench_work")
    trace_dir = os.path.join(work_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    print(f"{args.workload}: seed {args.seed}; stores and caches in "
          f"{work_root} (the checkout's own filesystem, not tmpfs; "
          f"SQLite without fsync, as on tmpfs), one fresh process per "
          f"repetition")

    # a traced run alternates untraced and traced repetitions, so the
    # tracing overhead compares neighbours in time
    modes = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else MIN_REPS
    reps = []
    start = time.monotonic()
    for rounds in itertools.count(1):
        t_round = time.monotonic()
        for traced in modes:
            extra = (["--trace-out", os.path.join(
                trace_dir,
                f"{args.workload}-seed{args.seed}-rep{len(reps)}.json")]
                if traced else [])
            # a traced run keeps one input, so its counts repeat exactly
            variant = (args.seed + (0 if args.trace else len(reps))) \
                % VARIANTS
            left = start + HARD_LIMIT - time.monotonic()
            if left <= 0:
                break
            rep = run_rep(root, work_root, args.workload, variant, left,
                          extra)
            rep["traced"] = traced
            reps.append(rep)
            if "error" in rep:
                print(f"repetition {len(reps)} failed: {rep['error']}",
                      file=sys.stderr)
            else:
                print(f"repetition {len(reps)} (SimConfig.seed "
                      f"{rep['sim_seed']}{', traced' if traced else ''}): "
                      f"campaign {rep['campaign_s']:.3f} s "
                      f"({rep['campaign_cpu_s']:.3f} s CPU), set-up "
                      f"{rep['setup_s']:.3f} s, resume "
                      f"{rep['resume_s'] * 1e3:.2f} ms", flush=True)
        now = time.monotonic()
        if now > start + HARD_LIMIT or (
                rounds >= min_rounds
                and now + (now - t_round) > start + args.seconds):
            break

    ok = [r for r in reps if "error" not in r]
    attempted = failed = 0
    for r in reps:
        if "error" in r:
            attempted += 1
            failed += 1
            continue
        attempted += r["executed"] + len(r["checks"])
        failed += r["queue_failed"]
        failed += sum(not passed for passed in r["checks"].values())
    print(f"{len(reps)} repetitions ({len(ok)} ok); "
          f"{attempted} operations, {failed} failed")

    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or (args.trace and not traced):
        return 1
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(r["campaign_s"] for r in traced)
            - statistics.median(r["campaign_s"] for r in untraced))
    else:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in ("setup_s", "campaign_s", "resume_s",
                               "peak_rss_mb", "frontier_coverage")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
