"""Directory store backend: the original on-disk run-directory format.

Layout (unchanged from the pre-backend ``RunStore`` — existing run
directories keep working, and the bytes written are identical)::

    run_dir/
        manifest.json        # fingerprint + per-experiment status
        cells/fig10.json     # cell key -> measured value
        meta/fig10.json      # cell key -> diagnostic metadata (optional)
        fig10.json           # final ExperimentResult artifact

Each ``cells/`` and ``meta/`` file is the *complete* mapping of its
experiment, rewritten atomically.  A write therefore re-reads the file
and merges its new entries in first, so two stores writing one
directory never erase each other's cells.
"""

from __future__ import annotations

import json
import os

from repro.eval.backends.base import atomic_write_text

__all__ = ["DirectoryBackend"]

_MANIFEST = "manifest.json"


class DirectoryBackend:
    """One run directory as a :class:`~repro.eval.backends.StoreBackend`."""

    def __init__(self, path: str):
        self.path = str(path)
        self.url = f"dir:{self.path}"

    def ensure(self) -> None:
        os.makedirs(self.path, exist_ok=True)
        os.makedirs(os.path.join(self.path, "cells"), exist_ok=True)

    # -- manifest --------------------------------------------------------
    def load_manifest(self) -> dict | None:
        try:
            with open(os.path.join(self.path, _MANIFEST)) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return None

    def save_manifest(self, manifest: dict) -> None:
        self.ensure()
        atomic_write_text(os.path.join(self.path, _MANIFEST),
                          json.dumps(manifest, indent=2))

    # -- cells and their metadata ---------------------------------------
    def _cells_path(self, experiment: str) -> str:
        return os.path.join(self.path, "cells", f"{experiment}.json")

    def _meta_path(self, experiment: str) -> str:
        return os.path.join(self.path, "meta", f"{experiment}.json")

    @staticmethod
    def _load_mapping(path: str) -> dict:
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}

    def _merge_into(self, path: str, entries: dict) -> None:
        """Rewrite one complete-mapping file with ``entries`` merged in."""
        recorded = self._load_mapping(path)
        recorded.update(entries)
        atomic_write_text(path, json.dumps(recorded, indent=0,
                                           sort_keys=True))

    def load_cells(self, experiment: str) -> dict[str, float]:
        return self._load_mapping(self._cells_path(experiment))

    def save_cells(self, experiment: str, cells: dict[str, float],
                   meta: dict[str, dict] | None = None) -> None:
        self.ensure()
        self._merge_into(self._cells_path(experiment), cells)
        if meta:
            os.makedirs(os.path.join(self.path, "meta"), exist_ok=True)
            self._merge_into(self._meta_path(experiment), meta)

    def experiments_with_cells(self) -> list[str]:
        try:
            names = os.listdir(os.path.join(self.path, "cells"))
        except OSError:
            return []
        return sorted(n[:-5] for n in names if n.endswith(".json"))

    def load_cell_meta(self, experiment: str) -> dict[str, dict]:
        return self._load_mapping(self._meta_path(experiment))

    # -- artifacts -------------------------------------------------------
    def save_artifact(self, experiment: str, text: str) -> str:
        self.ensure()
        path = os.path.join(self.path, f"{experiment}.json")
        atomic_write_text(path, text)
        return path

    def load_artifact(self, experiment: str) -> str | None:
        try:
            with open(os.path.join(self.path, f"{experiment}.json")) as f:
                return f.read()
        except OSError:
            return None

    # -- misc ------------------------------------------------------------
    def close(self) -> None:
        pass
