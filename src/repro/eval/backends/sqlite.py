"""SQLite store backend: one campaign per database file.

Selected with ``sqlite:PATH.db``.  The whole run store — manifest, cell
values, artifacts — lives in a single file, which travels better than a
run directory (one ``scp`` per shard) and supports concurrent readers.

Schema::

    kv(key TEXT PRIMARY KEY, value TEXT)                -- manifest JSON
    cells(experiment, key, value REAL,
          PRIMARY KEY (experiment, key))                -- resume granularity
    artifacts(experiment TEXT PRIMARY KEY, body TEXT)   -- ExperimentResult JSON
    cell_meta(experiment, key, body TEXT,
          PRIMARY KEY (experiment, key))                -- diagnostic metadata

Cell values are IPC floats; SQLite ``REAL`` is an IEEE double, so values
round-trip bit-exactly against the directory backend's JSON (property
tested in ``tests/test_backends.py``).  Reads never create the database
(``merge_runs`` probes sources read-only); the first write does.
"""

from __future__ import annotations

import json
import os
import sqlite3

__all__ = ["SQLiteBackend"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kv (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    experiment TEXT NOT NULL,
    key TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (experiment, key)
);
CREATE TABLE IF NOT EXISTS artifacts (
    experiment TEXT PRIMARY KEY,
    body TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cell_meta (
    experiment TEXT NOT NULL,
    key TEXT NOT NULL,
    body TEXT NOT NULL,
    PRIMARY KEY (experiment, key)
);
"""


class SQLiteBackend:
    """One SQLite database as a :class:`~repro.eval.backends.StoreBackend`.

    Subclasses may extend :attr:`SCHEMA` with extra tables and override
    :attr:`SCHEME` / :attr:`ISOLATION` (the queue backend runs in
    autocommit mode so it can issue explicit ``BEGIN IMMEDIATE``
    claiming transactions; ``commit()`` is then a no-op).
    """

    SCHEME = "sqlite"
    SCHEMA = _SCHEMA
    #: sqlite3 ``isolation_level``: "" = implicit deferred transactions.
    ISOLATION: str | None = ""
    #: seconds to wait on a locked database before erroring.
    TIMEOUT = 30.0

    def __init__(self, path: str):
        self.path = str(path)
        self.url = f"{self.SCHEME}:{self.path}"
        self._conn: sqlite3.Connection | None = None
        #: per-experiment mirror of what the database already holds, so a
        #: complete-mapping save only upserts the changed rows.
        self._known: dict[str, dict[str, float]] = {}

    def _connect(self, create: bool) -> sqlite3.Connection | None:
        if self._conn is None:
            if not create and not os.path.exists(self.path):
                return None
            parent = os.path.dirname(self.path)
            if create and parent:
                os.makedirs(parent, exist_ok=True)
            self._conn = sqlite3.connect(self.path, timeout=self.TIMEOUT,
                                         isolation_level=self.ISOLATION)
            self._conn.executescript(self.SCHEMA)
            self._conn.commit()
        return self._conn

    def ensure(self) -> None:
        self._connect(create=True)

    # -- manifest --------------------------------------------------------
    def load_manifest(self) -> dict | None:
        conn = self._connect(create=False)
        if conn is None:
            return None
        row = conn.execute(
            "SELECT value FROM kv WHERE key = 'manifest'").fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError:
            return None

    def save_manifest(self, manifest: dict) -> None:
        conn = self._connect(create=True)
        conn.execute(
            "INSERT INTO kv (key, value) VALUES ('manifest', ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (json.dumps(manifest, indent=2),))
        conn.commit()

    # -- cells -----------------------------------------------------------
    def load_cells(self, experiment: str) -> dict[str, float]:
        conn = self._connect(create=False)
        if conn is None:
            return {}
        rows = conn.execute(
            "SELECT key, value FROM cells WHERE experiment = ?",
            (experiment,)).fetchall()
        cells = dict(rows)
        self._known[experiment] = dict(cells)
        return cells

    def save_cells(self, experiment: str, cells: dict[str, float]) -> None:
        conn = self._connect(create=True)
        known = self._known.get(experiment)
        if known is None:
            known = self.load_cells(experiment)
        fresh = [(experiment, k, v) for k, v in cells.items()
                 if known.get(k) != v]
        if fresh:
            conn.executemany(
                "INSERT INTO cells (experiment, key, value) VALUES (?, ?, ?) "
                "ON CONFLICT (experiment, key) "
                "DO UPDATE SET value = excluded.value",
                fresh)
            conn.commit()
        self._known[experiment] = dict(cells)

    def experiments_with_cells(self) -> list[str]:
        conn = self._connect(create=False)
        if conn is None:
            return []
        rows = conn.execute(
            "SELECT DISTINCT experiment FROM cells ORDER BY experiment")
        return [r[0] for r in rows]

    # -- cell metadata ----------------------------------------------------
    def save_cell_meta(self, experiment: str, key: str, meta: dict) -> None:
        conn = self._connect(create=True)
        conn.execute(
            "INSERT INTO cell_meta (experiment, key, body) VALUES (?, ?, ?) "
            "ON CONFLICT (experiment, key) DO UPDATE SET body = excluded.body",
            (experiment, key, json.dumps(meta, sort_keys=True)))
        conn.commit()

    def load_cell_meta(self, experiment: str) -> dict[str, dict]:
        conn = self._connect(create=False)
        if conn is None:
            return {}
        rows = conn.execute(
            "SELECT key, body FROM cell_meta WHERE experiment = ?",
            (experiment,)).fetchall()
        return {k: json.loads(body) for k, body in rows}

    # -- artifacts -------------------------------------------------------
    def save_artifact(self, experiment: str, text: str) -> str:
        conn = self._connect(create=True)
        conn.execute(
            "INSERT INTO artifacts (experiment, body) VALUES (?, ?) "
            "ON CONFLICT (experiment) DO UPDATE SET body = excluded.body",
            (experiment, text))
        conn.commit()
        return f"{self.url}#{experiment}"

    def load_artifact(self, experiment: str) -> str | None:
        conn = self._connect(create=False)
        if conn is None:
            return None
        row = conn.execute(
            "SELECT body FROM artifacts WHERE experiment = ?",
            (experiment,)).fetchone()
        return row[0] if row else None

    # -- misc ------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
