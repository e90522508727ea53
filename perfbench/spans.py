"""In-memory spans around the public entry points of each layer.

The benchmark measures layers from outside the program: :func:`install`
replaces each entry point with a wrapper wherever its callers look it
up (module globals that hold the function, class attributes, the
experiment registry), so nothing under ``src/`` knows it is traced.
Spans live in memory and are written out once, when the run ends.

A span is ``[name, start, end, parent, run_id]``.  A layer's self time
is its spans' durations minus the time covered by their direct child
spans; a call that re-enters a span of the same name (a backend method
calling its base class) is folded into the outer span.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.run_id = ""
        self.enabled = True
        self._stack: list[int] = []

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a ``name`` span; ``on_result(out)`` runs
        after each outermost call to take counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            stack = tracer._stack
            if not tracer.enabled or (
                    stack and tracer.spans[stack[-1]][0] == name):
                return fn(*args, **kw)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, tracer.run_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kw)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    # -- derived metrics -------------------------------------------------
    def self_times(self, start: float = float("-inf"),
                   end: float = float("inf")) -> dict[str, float]:
        """Self seconds per span name, over spans inside [start, end]."""
        child = [0.0] * len(self.spans)
        for name, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, float] = {}
        for i, (name, s, e, _, _) in enumerate(self.spans):
            if s >= start and e <= end:
                out[name] = out.get(name, 0.0) + (e - s) - child[i]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "run_id"],
                       "spans": self.spans, "counts": self.counts}, f)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that holds ``original``."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch_method(tracer, cls, attr, name, on_result=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr,
                classmethod(tracer.wrap(name, raw.__func__, on_result)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, on_result))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark attributes time to.

    Call after the ``repro`` modules are imported: the wrappers replace
    names that are already bound.
    """
    from repro.eval import experiments, pareto, queue, runner, scaling
    from repro.eval import search, sweep
    from repro.eval.backends import (
        DirectoryBackend,
        QueueBackend,
        SQLiteBackend,
    )
    from repro.kernels import base as kernels_base
    from repro.merge.scheme import Scheme
    from repro.sim import batch, config, native

    def on_sim(result):
        tracer.add("sim.cells")
        tracer.add("sim.cycles", result.stats.cycles)
        stats = result.engine_stats or {}
        tracer.add("sim.memo_hits", stats.get("memo_hits", 0))
        tracer.add("sim.memo_misses", stats.get("memo_misses", 0))

    def on_batch(results):
        tracer.add("batch.groups")
        tracer.add("batch.attempted", len(results))
        for res in results:
            if res is None:
                tracer.add("batch.fallback_cells")
                continue
            tracer.add("batch.lanes")
            tracer.add("sim.cells")
            tracer.add("sim.cycles", res.stats.cycles)

    def on_grid(grid):
        tracer.add("runner.executed", grid.executed)
        tracer.add("runner.reused", grid.reused)

    def on_worker(report):
        tracer.add("runner.executed", report.executed)
        tracer.add("queue.released", report.released)
        tracer.add("queue.failed", report.failed)

    def on_plan(plan):
        tracer.counts["plan.groups"] = len(plan.groups)
        tracer.counts["plan.candidates"] = sum(
            len(g.members) for g in plan.groups)

    for original, name, hook in (
            (kernels_base.compile_spec, "compile", None),
            (native.get_native, "native", None),
            (config.run_workload, "sim", on_sim),
            (batch.run_workloads_batch, "batch", on_batch),
            (runner.run_cells, "runner", on_grid),
            (queue.run_worker, "runner", on_worker),
            (search.run_search, "search", None),
            (pareto.pareto_frontier, "pareto", None),
            (pareto.frontier_neighborhood, "pareto", None),
            (scaling.scaling_report, "scaling", None),
            (sweep.assemble_sweep, "assemble", None)):
        _replace_everywhere(original, tracer.wrap(name, original, hook))

    _patch_method(tracer, Scheme, "compile", "scheme.compile")
    _patch_method(tracer, sweep.SweepPlan, "build", "plan", on_plan)
    for cls in (DirectoryBackend, SQLiteBackend, QueueBackend):
        for attr, name in (("save_cells", "store.write"),
                           ("save_cell_meta", "store.write"),
                           ("load_cells", "store.read"),
                           ("claim", "queue.claim"),
                           ("finish", "queue.finish")):
            if attr in cls.__dict__:
                _patch_method(tracer, cls, attr, name)

    for key, defn in list(experiments.EXPERIMENT_DEFS.items()):
        fields = {f: tracer.wrap("assemble", getattr(defn, f))
                  for f in ("assemble", "derive") if getattr(defn, f)}
        experiments.EXPERIMENT_DEFS[key] = dataclasses.replace(defn,
                                                               **fields)
    for key, fn in list(experiments._STATIC_RUNNERS.items()):
        experiments._STATIC_RUNNERS[key] = tracer.wrap("assemble", fn)
