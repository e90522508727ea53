"""Directory store backend: the original on-disk run-directory format.

Layout at rest (unchanged from the pre-backend ``RunStore`` — existing
run directories keep working, and the bytes written are identical)::

    run_dir/
        manifest.json        # fingerprint + per-experiment status
        cells/fig10.json     # cell key -> measured value
        meta/fig10.json      # cell key -> diagnostic metadata (optional)
        fig10.json           # final ExperimentResult artifact

While a grid runs, each finished cell is one appended line of
``cells/fig10.jsonl``, the experiment's *journal*:
``[{key: value}, {key: meta}]``, written with one ``write`` call and
preceded by its newline.  Every manifest write and
:meth:`DirectoryBackend.close` fold the journals back: the ``cells/``
and ``meta/`` files are re-read, the journal is merged in, each file is
rewritten atomically as the *complete* mapping, and the journal is
deleted.  A finished grid ends with a manifest write, so it leaves
only the files above.  Reads return the file merged with its journal,
so two stores writing one directory never erase each other's cells.
A final line torn by a killed writer is skipped: it is the cell that
was in flight, and a resume simulates it again.
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
        self._fold_journals()
        atomic_write_text(os.path.join(self.path, _MANIFEST),
                          json.dumps(manifest, indent=2))

    # -- cells and their metadata ---------------------------------------
    def _cells_path(self, experiment: str) -> str:
        return os.path.join(self.path, "cells", f"{experiment}.json")

    def _meta_path(self, experiment: str) -> str:
        return os.path.join(self.path, "meta", f"{experiment}.json")

    def _journal_path(self, experiment: str) -> str:
        return os.path.join(self.path, "cells", f"{experiment}.jsonl")

    @staticmethod
    def _load_mapping(path: str) -> dict:
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}

    def _load_journal(self, experiment: str) -> tuple[dict, dict] | None:
        """The journal's ``(cells, meta)``, later lines winning, or
        ``None`` when there is no journal.  Undecodable lines (a
        writer killed mid-append) are skipped."""
        try:
            with open(self._journal_path(experiment), "rb") as f:
                lines = f.read().splitlines()
        except OSError:
            return None
        cells: dict = {}
        meta: dict = {}
        for line in lines:
            if not line:
                continue
            try:
                values, metas = json.loads(line)
            except ValueError:
                continue
            cells.update(values)
            meta.update(metas)
        return cells, meta

    def _merge_into(self, path: str, entries: dict) -> None:
        """Rewrite one complete-mapping file with ``entries`` merged in."""
        recorded = self._load_mapping(path)
        recorded.update(entries)
        atomic_write_text(path, json.dumps(recorded, indent=0,
                                           sort_keys=True))

    def _fold_journals(self) -> None:
        """Merge every experiment's journal into its ``cells/`` and
        ``meta/`` files, then delete the journal."""
        try:
            names = os.listdir(os.path.join(self.path, "cells"))
        except OSError:
            return
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            experiment = name[:-6]
            journal = self._load_journal(experiment)
            if journal is None:
                continue
            cells, meta = journal
            self._merge_into(self._cells_path(experiment), cells)
            if meta:
                os.makedirs(os.path.join(self.path, "meta"), exist_ok=True)
                self._merge_into(self._meta_path(experiment), meta)
            os.unlink(self._journal_path(experiment))

    def load_cells(self, experiment: str) -> dict[str, float]:
        cells = self._load_mapping(self._cells_path(experiment))
        journal = self._load_journal(experiment)
        if journal is not None:
            cells.update(journal[0])
        return cells

    def save_cells(self, experiment: str, cells: dict[str, float],
                   meta: dict[str, dict] | None = None) -> None:
        # the newline leads, so a line torn by a killed writer ends
        # where the next append starts instead of swallowing it
        line = ("\n" + json.dumps([cells, meta or {}])).encode()
        path = self._journal_path(experiment)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(path, flags, 0o666)
        except FileNotFoundError:
            self.ensure()
            fd = os.open(path, flags, 0o666)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def experiments_with_cells(self) -> list[str]:
        try:
            names = os.listdir(os.path.join(self.path, "cells"))
        except OSError:
            return []
        return sorted({n.rsplit(".", 1)[0] for n in names
                       if n.endswith((".json", ".jsonl"))})

    def load_cell_meta(self, experiment: str) -> dict[str, dict]:
        meta = self._load_mapping(self._meta_path(experiment))
        journal = self._load_journal(experiment)
        if journal is not None:
            meta.update(journal[1])
        return meta

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
        self._fold_journals()
