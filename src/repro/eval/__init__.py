"""Experiment harness regenerating every paper table and figure.

:class:`~repro.eval.api.Session` is the entry point: it binds
machine(s), config, result store and jobs once, and runs every
experiment, sweep and guided search through the same verbs.

Importing this package loads none of its layers.  Each public name
resolves on first use (PEP 562 ``__getattr__``), importing only the
submodule that defines it, so ``from repro.eval import Session`` does
not load the queue, the search or the SQLite backend; the backend
loads at the first ``sqlite:`` or ``queue:`` open.  A verb imports the
layer it runs: ``repro-eval worker`` loads :mod:`repro.eval.queue`,
``repro-eval run`` does not.
"""

import importlib

#: submodule -> the public names it contributes to this package.
_EXPORTS = {
    "api": ("Session",),
    "backends": ("DirectoryBackend", "QueueBackend", "SQLiteBackend",
                 "StoreBackend", "open_backend", "parse_store_url"),
    "evaluator": ("DEFAULT_RUNGS", "EvalReport", "Evaluator",
                  "FidelityRung", "rung_configs", "rungs_from_spec"),
    "experiments": ("EXPERIMENT_DEFS", "SIM_EXPERIMENTS", "ExperimentDef",
                    "cell_factory", "default_config", "experiment_cells"),
    "pareto": ("DesignPoint", "design_points", "frontier_neighborhood",
               "pareto_frontier", "recommend"),
    "queue": ("CampaignSpec", "QueueStatus", "WorkerReport", "init_queue",
              "queue_status", "reset_failed", "run_worker"),
    "result": ("ExperimentResult", "render_table"),
    "runner": ("Cell", "GridResult", "run_cells", "shard_cells"),
    "scaling": ("MatrixResult", "budget_recommendations", "frontier_map",
                "rank_stability", "rank_stability_from_ipc",
                "scaling_report", "variant_label"),
    "search": ("SearchReport", "mutate_names", "run_search",
               "search_experiment_id"),
    "store": ("RunStore", "StoreMismatchError", "merge_runs", "open_store",
              "run_fingerprint"),
    "sweep": ("CandidateGroup", "SweepPlan", "assemble_sweep",
              "candidate_table", "enumerate_candidates", "enumerate_names",
              "sweep_cells", "sweep_experiment_id", "sweep_threads"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def _lazy_exports(namespace: dict, module_of: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``: a name in ``module_of`` (name ->
    submodule) is imported from its submodule on first use, then
    bound in the package."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"),
                        name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _MODULE_OF)
