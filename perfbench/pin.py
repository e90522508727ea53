"""Regenerate ``perfbench/pinned.json`` — the benchmark's reference answers.

Run from the root of a checkout::

    python3 perfbench/pin.py

For every input variant of every workload it runs one repetition with
``rep.py --pin`` and records the artifact digest and the frontier the
campaign produced; for search8_queue it also runs the exhaustive
8-thread sweep once (``Session.sweep``) and records its frontier as the
reference that every run's ``frontier_coverage`` is measured against.

Re-pin only in a change that touches nothing but the benchmark: a
change to the program that moves simulated results must fail these
checks, and the re-pin that follows states why the answers moved.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import rep  # noqa: E402
from run import VARIANTS, run_rep  # noqa: E402


def search_reference() -> list:
    """The exhaustive 8-thread frontier at the benchmark's scale."""
    from repro.eval.api import Session

    cfg = rep.base_config("search8_queue", 0)
    result = Session(config=cfg).sweep(8, list(rep.SEARCH_WORKLOADS))
    return list(result.meta["frontier"])


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    pinned = {"workloads": {}}
    for workload in rep.WORKLOADS:
        variants = [0] if workload == "search8_queue" else range(VARIANTS)
        entries = pinned["workloads"][workload] = {}
        for variant in variants:
            got = run_rep(root, work_root, workload, variant, 600,
                          ["--pin"])
            if "error" in got:
                raise RuntimeError(f"{workload} variant {variant}: "
                                   f"{got['error']}")
            entry = {"sim_seed": rep.sim_seed(workload, variant),
                     "digest": got["digest"],
                     "cells_executed": got["executed"],
                     "frontier": got["frontier"]}
            if workload == "search8_queue":
                entry["reference_frontier"] = search_reference()
            reference = entry.get("reference_frontier", entry["frontier"])
            entry["frontier_coverage"] = rep.eps_coverage(
                reference, got["frontier"])
            entries[str(variant)] = entry
            print(f"{workload} variant {variant}: {got['digest']} "
                  f"({got['executed']} cells, coverage "
                  f"{entry['frontier_coverage']:.4f})", flush=True)
    with open(rep.PINNED, "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
