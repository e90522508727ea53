"""Persistent run stores for experiment results.

A *run store* is the durable record of one experiment campaign: a
manifest (config/machine fingerprint + per-experiment status), per-cell
measured values at resume granularity, and the final per-experiment JSON
artifacts.  :class:`RunStore` owns the campaign semantics — fingerprint
guards, resume, merging — and delegates persistence to a pluggable
:class:`~repro.eval.backends.StoreBackend` selected by URL:

* ``dir:PATH`` (also the default for bare paths) — the original run
  *directory* layout, byte-identical to the pre-backend format::

      run_dir/
          manifest.json        # config fingerprint + per-experiment status
          cells/fig10.json     # cell key -> measured value
          meta/fig10.json      # cell key -> diagnostic metadata
          fig10.json           # final ExperimentResult artifact

  A grid in progress appends its finished cells to
  ``cells/fig10.jsonl``; the grid's closing manifest write (and
  :meth:`RunStore.close`) folds that journal into the two files above.
  A manifest update that changes nothing is not written, so a resume
  that reuses every cell leaves any leftover journal to ``close()``.

* ``sqlite:PATH.db`` — the same state in a single SQLite database file.

Cell values are written through as they complete, so a killed run loses
at most the in-flight cells; re-running against the same store skips
every recorded cell.  A manifest fingerprint guards against resuming
with a different simulation config or machine — mixing scales in one
store would silently corrupt the artifact.

Run stores compose: :func:`merge_runs` unions the recorded cells of
several stores (e.g. the shards of a ``repro-eval sweep --shard i/N``
campaign run on different machines) into one — sources and destination
may use *different* backends — verifying that every source carries the
same fingerprint and that no two sources disagree on a cell's value.
Resuming from the merged store then reassembles the exact single-machine
result with zero new simulations.
"""

from __future__ import annotations

import json

from repro.eval.backends import StoreBackend, open_backend
from repro.eval.result import ExperimentResult
from repro.kernels.cache import identity

__all__ = [
    "RunStore",
    "StoreMismatchError",
    "merge_runs",
    "open_store",
    "run_fingerprint",
]


class StoreMismatchError(RuntimeError):
    """Resuming a run store with an incompatible config/machine."""


def run_fingerprint(config, machine, machines=None, configs=None) -> dict:
    """JSON-able identity of one campaign: its base config and default
    machine, plus the named machine (``{tag: Machine}``) and config
    (``{tag: SimConfig}``) variants when it registers any.

    Every field of every machine and config is in it (see
    :func:`~repro.kernels.cache.identity`) except ``SimConfig.engine``:
    engines are bit-identical, so cell values are engine-agnostic.
    """
    fp = {"config": config, "machine": machine}
    if machines:
        fp["machines"] = machines
    if configs:
        fp["configs"] = configs
    return identity(fp)


_ABSENT = object()


def _fingerprint_diff(recorded: dict, current: dict, limit: int = 3,
                      names: tuple = ("store", "this run")) -> list[str]:
    """The first ``limit`` dotted paths where two fingerprints differ,
    each with both values named by ``names``, e.g. ``config.seed: 1
    (store) vs 2 (this run)``."""
    diffs: list[str] = []

    def show(value) -> str:
        if value is _ABSENT:
            return "absent"
        text = json.dumps(value, sort_keys=True)
        return text if len(text) <= 60 else text[:57] + "..."

    def walk(a, b, path: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(a.keys() | b.keys()):
                walk(a.get(k, _ABSENT), b.get(k, _ABSENT),
                     f"{path}.{k}" if path else k)
        elif a != b:
            diffs.append(f"{path}: {show(a)} ({names[0]}) vs {show(b)} "
                         f"({names[1]})")

    walk(recorded, current, "")
    return diffs[:limit]


def _is_backend(obj) -> bool:
    return isinstance(obj, StoreBackend) and not isinstance(obj, str)


def _as_store(source) -> "RunStore":
    """Coerce a path / URL / backend / RunStore into a RunStore view."""
    if isinstance(source, RunStore):
        return source
    return RunStore(source if _is_backend(source) else str(source))


class RunStore:
    """One run store: manifest + per-experiment cells + artifacts.

    ``path_or_backend`` may be a directory path (the historical form), a
    store URL (``dir:...`` / ``sqlite:...db``), or an already-built
    backend instance.  Constructing a store never creates storage; use
    :func:`open_store` for that.
    """

    def __init__(self, path_or_backend):
        if _is_backend(path_or_backend):
            self.backend = path_or_backend
        else:
            self.backend = open_backend(str(path_or_backend))
        self._cells: dict[str, dict[str, float]] = {}

    @property
    def path(self) -> str:
        """Filesystem anchor (directory path or database file path)."""
        return self.backend.path

    @property
    def url(self) -> str:
        """Canonical store URL (``dir:...`` / ``sqlite:...``)."""
        return self.backend.url

    # -- manifest --------------------------------------------------------
    def manifest(self) -> dict | None:
        return self.backend.load_manifest()

    def _write_manifest(self, manifest: dict) -> None:
        self.backend.save_manifest(manifest)

    def update_manifest(self, experiment: str, **fields) -> None:
        """Merge ``fields`` into one experiment's manifest entry.

        A merge that changes nothing writes nothing (a resume that
        reuses every cell records the counts it recorded last time).
        """
        manifest = self.manifest()
        if manifest is None:
            manifest = {"fingerprint": {}, "experiments": {}}
        else:
            entry = manifest.get("experiments", {}).get(experiment)
            if entry is not None and all(
                    k in entry and entry[k] == v for k, v in fields.items()):
                return
        manifest.setdefault("experiments", {}).setdefault(
            experiment, {}).update(fields)
        self._write_manifest(manifest)

    # -- cells (resume granularity) --------------------------------------
    def load_cells(self, experiment: str) -> dict[str, float]:
        """Recorded cell values for one experiment (may be empty)."""
        if experiment not in self._cells:
            self._cells[experiment] = self.backend.load_cells(experiment)
        return self._cells[experiment]

    def record_cell(self, experiment: str, key: str, value: float,
                    meta: dict | None = None) -> None:
        """Record one completed cell and its diagnostic metadata (engine
        stats etc.) in one write-through call.

        Metadata rides alongside the cell value but is never part of it:
        resume, merge and fingerprint checks ignore it entirely.
        """
        self.record_cells(experiment, {key: value},
                          None if meta is None else {key: meta})

    def record_cells(self, experiment: str, values: dict,
                     meta: dict | None = None) -> None:
        """Record a batch of completed cells (and ``{key: meta}``) in one
        write; cells recorded earlier are kept."""
        self.backend.save_cells(experiment, values, meta)
        if experiment in self._cells:
            self._cells[experiment].update(values)

    def experiments_with_cells(self) -> list[str]:
        """Experiments that have recorded cell values, sorted by name."""
        return self.backend.experiments_with_cells()

    def load_cell_meta(self, experiment: str) -> dict[str, dict]:
        """Recorded per-cell metadata of one experiment (may be empty)."""
        return self.backend.load_cell_meta(experiment)

    # -- artifacts -------------------------------------------------------
    def fingerprint(self) -> dict | None:
        """The recorded fingerprint, or None when absent/empty."""
        manifest = self.manifest()
        return (manifest or {}).get("fingerprint") or None

    def save_artifact(self, result: ExperimentResult) -> str:
        location = self.backend.save_artifact(result.experiment,
                                              result.to_json())
        self.update_manifest(result.experiment, status="done")
        return location

    def load_artifact(self, experiment: str) -> ExperimentResult | None:
        text = self.backend.load_artifact(experiment)
        if text is None:
            return None
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return None
        return ExperimentResult(
            experiment=data["experiment"], title=data["title"],
            columns=data["columns"], rows=[tuple(r) for r in data["rows"]],
            notes=data.get("notes", []), meta=data.get("meta", {}),
        )

    # -- misc ------------------------------------------------------------
    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_store(url, fingerprint: dict | None = None) -> RunStore:
    """Open (creating if necessary) a run store from a URL/path/backend.

    ``open_store("results")``, ``open_store("sqlite:campaign.db",
    run_fingerprint(cfg, machine))``.  When ``fingerprint`` is given and
    the store already has a manifest, the fingerprints must match (else
    :class:`StoreMismatchError`); a fresh store records it.
    """
    store = _as_store(url)
    store.backend.ensure()
    manifest = store.manifest()
    if manifest is None:
        store._write_manifest({"fingerprint": fingerprint or {},
                               "experiments": {}})
    elif fingerprint is not None:
        recorded = manifest.get("fingerprint")
        if not recorded:
            # store created without a fingerprint: adopt this one so
            # later resumes are guarded.
            manifest["fingerprint"] = fingerprint
            store._write_manifest(manifest)
        elif recorded != fingerprint:
            diffs = "; ".join(_fingerprint_diff(recorded, fingerprint))
            raise StoreMismatchError(
                f"run store {store.url!r} was created with a "
                f"different config/machine ({diffs}); use a fresh "
                f"--out/--store location or rerun with the store's "
                f"settings"
            )
    return store


def merge_runs(dest_path, source_paths) -> RunStore:
    """Union several run stores' cells into one (shard reassembly).

    Sources and destination are paths, store URLs, backends or open
    :class:`RunStore` instances — backends may be mixed freely (a SQLite
    shard merges into a directory store and vice versa).  Every source
    (and the destination, if it already has one) must carry the same
    manifest fingerprint - merging shards simulated at different scales
    or machines would silently corrupt the campaign.  Unstamped sources
    (created without a fingerprint) may only merge with other unstamped
    stores, since compatibility cannot be verified against them.
    Sources disagreeing on a recorded cell's value also raise
    :class:`StoreMismatchError`: shards are disjoint by construction, so
    a conflict means the stores do not belong to one campaign.  All
    validation happens before anything is written - a rejected merge
    never leaves the destination half-merged.

    Returns the destination store; resuming an experiment or sweep from
    it reuses every merged cell.
    """
    sources = [_as_store(p) for p in source_paths]
    if not sources:
        raise ValueError("need at least one source run store")
    for src in sources:
        if src.manifest() is None:
            raise StoreMismatchError(
                f"source {src.url!r} is not a run store "
                f"(no readable manifest)"
            )
    stamped = [src.fingerprint() for src in sources]
    present = [fp for fp in stamped if fp is not None]
    if present and len(present) != len(stamped):
        unstamped = [src.url for src, fp in zip(sources, stamped)
                     if fp is None]
        raise StoreMismatchError(
            f"sources {unstamped} carry no config/machine fingerprint "
            f"but other sources do; compatibility cannot be verified"
        )
    for src, fp in zip(sources, stamped):
        if fp is not None and fp != present[0]:
            diffs = "; ".join(_fingerprint_diff(
                present[0], fp, names=("first source", "this source")))
            raise StoreMismatchError(
                f"source {src.url!r} was created with a different "
                f"config/machine than the other sources ({diffs})"
            )
    fingerprint = present[0] if present else None
    dest = open_store(dest_path, fingerprint)
    if fingerprint is None and dest.fingerprint() is not None:
        raise StoreMismatchError(
            f"destination {dest.url!r} records a config/machine "
            f"fingerprint but the sources carry none; compatibility "
            f"cannot be verified"
        )
    # validate everything (cross-source and against the destination)
    # before the first write.
    merged: dict[str, dict[str, float]] = {}
    for src in sources:
        for experiment in src.experiments_with_cells():
            bucket = merged.setdefault(
                experiment, dict(dest.load_cells(experiment)))
            for key, value in src.load_cells(experiment).items():
                if key in bucket and bucket[key] != value:
                    raise StoreMismatchError(
                        f"cell {key!r} of {experiment!r} has conflicting "
                        f"values across sources ({bucket[key]!r} vs "
                        f"{value!r}); these run stores do not belong "
                        f"to one campaign"
                    )
                bucket[key] = value
    for experiment, cells in merged.items():
        recorded = dest.load_cells(experiment)
        dest.record_cells(experiment, {k: v for k, v in cells.items()
                                       if k not in recorded})
        dest.update_manifest(experiment, cells=len(cells))
    return dest
