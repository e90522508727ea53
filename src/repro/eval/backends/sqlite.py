"""SQLite store backend: one campaign per database file, one row per cell.

Selected with ``sqlite:PATH.db``, or with ``queue:PATH.db`` for a
worker-pull campaign (:class:`QueueBackend` is this class under the
scheme the queue verbs require).  The whole run store — manifest, cell
values, queue state, artifacts — lives in a single file, which travels
better than a run directory (one ``scp`` per shard) and supports
concurrent readers.

Schema version 2 (stamped in ``kv`` under ``schema``)::

    kv(key TEXT PRIMARY KEY, value TEXT)     -- manifest, campaign spec
    cells(experiment, key,                   -- PRIMARY KEY
          value REAL,                        -- NULL until done
          status TEXT,                       -- open | claimed | done | failed
          cell TEXT,                         -- serialized Cell, once enqueued
          worker, attempt, error,            -- claimant, claim count, failure
          heartbeat REAL, claimed_at REAL,   -- stamped by claim and finish
          meta TEXT)                         -- legacy metadata (JSON)
    artifacts(experiment TEXT PRIMARY KEY, body TEXT)  -- ExperimentResult

A row carries a cell's value and queue state, so no write has to keep
tables in step.  Every value write marks its row done, whatever its
status was; a ``sqlite:`` store holds only done rows.  The *queue* is
the rows that were enqueued (``cell`` is set).  No write sets ``meta``:
it holds the per-cell metadata (engine name and counters) that older
releases recorded beside each value, which
:meth:`~SQLiteBackend.load_cell_meta` still reads back.

**Claiming is crash-safe.**  A claim is one ``BEGIN IMMEDIATE``
transaction — SQLite takes the write lock before the read, so two
workers can never select the same open cell — wrapped in an
``O_CREAT|O_EXCL`` lockfile (``PATH.db.lock``) because SQLite's own
byte-range locks are unreliable on NFS, where fleet campaigns typically
share the store; the lockfile also guards finish, enqueue and reset.
A claim may first record the value of its worker's previous cell, in
the same transaction, so a drained cell costs one claim.  The claim
stamps the row's heartbeat and recording the value stamps it again;
nothing beats in between, so ``ttl`` must exceed the slowest cell.  If
a worker dies before its value is recorded, its claim goes *stale*
``ttl`` seconds after the claim and the next claimer reclaims the cell
(``attempt`` increments), or marks it failed once ``max_attempts``
claims have been burned.  Release and fail act only on the caller's own
claim, so a worker whose stale claim was reclaimed cannot reopen or fail
the new claimant's cell.

Cell values are IPC floats; SQLite ``REAL`` is an IEEE double, so values
round-trip bit-exactly against the directory backend's JSON (property
tested in ``tests/test_backends.py``).  Reads never create the database
(``merge_runs`` probes sources read-only); :meth:`~SQLiteBackend.ensure`
and the writes do.  A file without the stamp is version 1, written
before the tables were folded (values in ``cells``, beside ``queue`` and
``cell_meta`` tables): the first write upgrades it in place, in one
transaction that keeps every value, queue row and metadata record, and
reads refuse it until then with a :class:`ValueError` naming its
version.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import time

__all__ = ["QUEUE_STATUSES", "SCHEMA_VERSION", "QueueBackend",
           "SQLiteBackend"]

#: the store layout this module reads and writes (``kv['schema']``).
SCHEMA_VERSION = 2

#: every state a queued cell can be in (the lifecycle is documented in
#: DESIGN.md §8 and docs/OPERATIONS.md).
QUEUE_STATUSES = ("open", "claimed", "done", "failed")

#: the open and the stale cells, each in claim order; it supersedes an
#: index on ``status`` alone.
_CLAIM_INDEX = (
    "DROP INDEX IF EXISTS cells_by_status",
    "CREATE INDEX IF NOT EXISTS cells_claim_order"
    " ON cells (status, experiment, key)",
)

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS kv ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS cells ("
    " experiment TEXT NOT NULL, key TEXT NOT NULL, value REAL,"
    " status TEXT, cell TEXT, worker TEXT,"
    " attempt INTEGER NOT NULL DEFAULT 0, error TEXT,"
    " heartbeat REAL, claimed_at REAL, meta TEXT,"
    " PRIMARY KEY (experiment, key))",
    *_CLAIM_INDEX,
    "CREATE TABLE IF NOT EXISTS artifacts ("
    " experiment TEXT PRIMARY KEY, body TEXT NOT NULL)",
    "INSERT OR IGNORE INTO kv (key, value) "
    f"VALUES ('schema', '{SCHEMA_VERSION}')",
)

#: version 1 -> 2: values become done rows, queue rows keep their
#: state, metadata joins its row.  A version-1 ``sqlite:`` file has no
#: ``queue`` table; an empty stand-in keeps the script unconditional.
_UPGRADE_V1 = (
    "ALTER TABLE cells RENAME TO cells_v1",
    *_SCHEMA,
    "CREATE TABLE IF NOT EXISTS queue (experiment, key, cell, status,"
    " worker, attempt, error, heartbeat, claimed_at)",
    "INSERT INTO cells (experiment, key, status, cell, worker, attempt,"
    " error, heartbeat, claimed_at) SELECT experiment, key, status, cell,"
    " worker, attempt, error, heartbeat, claimed_at FROM queue",
    "INSERT INTO cells (experiment, key, value, status)"
    " SELECT experiment, key, value, 'done' FROM cells_v1 WHERE true"
    " ON CONFLICT (experiment, key)"
    " DO UPDATE SET value = excluded.value, status = 'done'",
    "INSERT INTO cells (experiment, key, meta)"
    " SELECT experiment, key, body FROM cell_meta WHERE true"
    " ON CONFLICT (experiment, key) DO UPDATE SET meta = excluded.meta",
    "DROP TABLE cells_v1",
    "DROP TABLE queue",
    "DROP TABLE cell_meta",
)

#: the script that brings a file of each older version up to date (a
#: version-2 file from before the claim index gets the index).
_MIGRATIONS = {0: _SCHEMA, 1: _UPGRADE_V1, 2: _CLAIM_INDEX}

#: the one value write (``save_cells``, ``finish`` and a claim that
#: records its worker's previous cell): whatever the row's state was, a
#: recorded value makes it done.
_RECORD = (
    "INSERT INTO cells (experiment, key, value, status, heartbeat) "
    "VALUES (?, ?, ?, 'done', ?) ON CONFLICT (experiment, key) "
    "DO UPDATE SET value = excluded.value, status = 'done', error = NULL, "
    "heartbeat = coalesce(excluded.heartbeat, heartbeat)")


@contextlib.contextmanager
def _immediate(conn: sqlite3.Connection):
    """One ``BEGIN IMMEDIATE`` ... ``COMMIT`` transaction."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


#: the next runnable cell: the earlier of the first open cell and the
#: first stale claim, each read in key order from ``cells_claim_order``.
#: SQLite refuses a compound SELECT as a row value: select the rowid.
_NEXT_CELL = (
    "SELECT id FROM ("
    "SELECT * FROM (SELECT rowid AS id, experiment, key FROM cells"
    " WHERE status = 'open' ORDER BY experiment, key LIMIT 1)"
    " UNION ALL "
    "SELECT * FROM (SELECT rowid AS id, experiment, key FROM cells"
    " WHERE status = 'claimed' AND heartbeat < ?"
    " ORDER BY experiment, key LIMIT 1)"
    ") ORDER BY experiment, key LIMIT 1")


def _schema_state(conn: sqlite3.Connection) -> tuple[int, bool]:
    """The file's store schema (0: no store tables yet), and whether it
    has the claim index."""
    names = {row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master "
        "WHERE name IN ('kv', 'cells_claim_order')")}
    if "kv" not in names:
        return 0, False
    row = conn.execute(
        "SELECT value FROM kv WHERE key = 'schema'").fetchone()
    return (int(row[0]) if row else 1), "cells_claim_order" in names


class _FileLock:
    """``O_CREAT|O_EXCL`` lockfile serializing queue transactions.

    SQLite's byte-range locks are famously unreliable on NFS; the
    portable primitive that *is* atomic there is exclusive file
    creation, so every claiming transaction additionally holds
    ``PATH.db.lock``.  A lock whose mtime is older than ``stale_after``
    is presumed to belong to a dead process and is broken (the
    transactions it guards are short — milliseconds, not cell
    executions).
    """

    def __init__(self, path: str, *, stale_after: float = 30.0,
                 timeout: float = 60.0, poll: float = 0.01):
        self.path = path
        self.stale_after = stale_after
        self.timeout = timeout
        self.poll = poll

    def __enter__(self) -> "_FileLock":
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(self.path)
                except OSError:
                    continue  # holder released between open and stat
                if age > self.stale_after:
                    try:
                        os.unlink(self.path)  # break a dead holder's lock
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not acquire queue lock {self.path!r} "
                        f"within {self.timeout}s (held {age:.0f}s; delete "
                        f"it if the holding process is gone)") from None
                time.sleep(self.poll)
            else:
                import socket

                with os.fdopen(fd, "w") as f:
                    f.write(f"{socket.gethostname()}:{os.getpid()} "
                            f"{time.time():.3f}\n")
                return self

    def __exit__(self, *exc) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


class SQLiteBackend:
    """One SQLite database as a :class:`~repro.eval.backends.StoreBackend`,
    plus the worker-pull queue primitives (enqueue, claim, finish,
    release, fail) over the same cell rows.

    The connection runs in autocommit mode: a single statement commits
    on its own, and every multi-statement write (claim, enqueue,
    :meth:`save_cells`) is one explicit ``BEGIN IMMEDIATE``
    transaction.  Cells cross this boundary as plain dicts, never as
    :class:`~repro.eval.runner.Cell` objects; the worker loop lives in
    :mod:`repro.eval.queue`.
    """

    SCHEME = "sqlite"
    #: seconds to wait on a locked database before erroring.
    TIMEOUT = 30.0

    def __init__(self, path: str):
        self.path = str(path)
        self.url = f"{self.SCHEME}:{self.path}"
        self._conn: sqlite3.Connection | None = None
        #: the file has the claim index (a write adds it when missing)
        self._indexed = False

    def _connect(self, create: bool) -> sqlite3.Connection | None:
        conn = self._conn
        if conn is not None and (self._indexed or not create):
            return conn
        if conn is None:
            if not create and not os.path.exists(self.path):
                return None
            parent = os.path.dirname(self.path)
            if create and parent:
                os.makedirs(parent, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=self.TIMEOUT,
                                   isolation_level=None)
        try:
            version, self._indexed = _schema_state(conn)
            if create and not self._indexed and version <= SCHEMA_VERSION:
                with _immediate(conn):
                    # re-read under the write lock: a concurrent opener
                    # may have created or upgraded the file meanwhile
                    version, _ = _schema_state(conn)
                    for statement in _MIGRATIONS.get(version, ()):
                        conn.execute(statement)
                self._indexed = True
            elif version == 0:
                conn.close()  # an empty file: nothing to read yet
                return None
            elif version != SCHEMA_VERSION:
                hint = "" if version > SCHEMA_VERSION else (
                    "; write to it once to upgrade it in place, keeping "
                    "every value, queue row and metadata record (re-run "
                    f"queue-init, merge a run into it, run with --store "
                    f"{self.url} or call open_backend({self.url!r})"
                    ".ensure())")
                raise ValueError(
                    f"{self.url!r} holds store schema version {version}; "
                    f"this release reads version {SCHEMA_VERSION}{hint}")
        except BaseException:
            conn.close()
            self._conn = None
            raise
        self._conn = conn
        return conn

    def ensure(self) -> None:
        self._connect(create=True)

    def _lock(self) -> _FileLock:
        return _FileLock(self.path + ".lock")

    def _locked_write(self, sql: str, params=()) -> int:
        """One statement (its own transaction) inside the lockfile."""
        with self._lock():
            return self._connect(create=True).execute(sql, params).rowcount

    def _read(self, sql: str, params=()) -> list[tuple]:
        conn = self._connect(create=False)
        return [] if conn is None else conn.execute(sql, params).fetchall()

    # -- key/value documents (manifest, campaign spec) ---------------------
    def _load_kv(self, key: str) -> str | None:
        rows = self._read("SELECT value FROM kv WHERE key = ?", (key,))
        return rows[0][0] if rows else None

    def _save_kv(self, key: str, text: str) -> None:
        self._connect(create=True).execute(
            "INSERT INTO kv (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, text))

    def load_manifest(self) -> dict | None:
        text = self._load_kv("manifest")
        try:
            return None if text is None else json.loads(text)
        except json.JSONDecodeError:
            return None

    def save_manifest(self, manifest: dict) -> None:
        self._save_kv("manifest", json.dumps(manifest, indent=2))

    def save_campaign(self, spec: dict) -> None:
        """Persist the campaign spec workers rebuild their context from."""
        self._save_kv("campaign", json.dumps(spec, indent=2, sort_keys=True))

    def load_campaign(self) -> dict | None:
        """The stored campaign spec, or ``None`` before queue-init."""
        text = self._load_kv("campaign")
        return None if text is None else json.loads(text)

    # -- cells -----------------------------------------------------------
    def load_cells(self, experiment: str) -> dict[str, float]:
        return dict(self._read(
            "SELECT key, value FROM cells WHERE experiment = ? "
            "AND value IS NOT NULL", (experiment,)))

    def save_cells(self, experiment: str, cells: dict[str, float]) -> None:
        rows = [(experiment, key, value, None)
                for key, value in cells.items()]
        if rows:
            with _immediate(self._connect(create=True)) as conn:
                conn.executemany(_RECORD, rows)

    def experiments_with_cells(self) -> list[str]:
        return [r[0] for r in self._read(
            "SELECT DISTINCT experiment FROM cells WHERE value IS NOT NULL "
            "ORDER BY experiment")]

    def load_cell_meta(self, experiment: str) -> dict[str, dict]:
        """The metadata rows written by older releases still carry."""
        return {k: json.loads(meta) for k, meta in self._read(
            "SELECT key, meta FROM cells WHERE experiment = ? "
            "AND meta IS NOT NULL", (experiment,))}

    # -- artifacts -------------------------------------------------------
    def save_artifact(self, experiment: str, text: str) -> str:
        self._connect(create=True).execute(
            "INSERT INTO artifacts (experiment, body) VALUES (?, ?) "
            "ON CONFLICT (experiment) DO UPDATE SET body = excluded.body",
            (experiment, text))
        return f"{self.url}#{experiment}"

    def load_artifact(self, experiment: str) -> str | None:
        rows = self._read("SELECT body FROM artifacts WHERE experiment = ?",
                          (experiment,))
        return rows[0][0] if rows else None

    # -- queue: enqueue ----------------------------------------------------
    def enqueue(self, experiment: str, cells: dict[str, dict]) -> int:
        """Add ``{key: serialized-cell}`` rows to the queue as open cells.

        Idempotent: keys already queued are left untouched (their
        status, attempts and errors survive a re-init), and a key whose
        value is already recorded joins the queue as done — migrating a
        partially-complete ``dir:`` / ``sqlite:`` run into a queue
        leaves only the remaining work open.  Returns the number of
        keys newly added to the queue.
        """
        rows = [(experiment, key, json.dumps(cells[key], sort_keys=True))
                for key in sorted(cells)]
        with self._lock(), _immediate(self._connect(create=True)) as conn:
            return conn.executemany(
                "INSERT INTO cells (experiment, key, status, cell) "
                "VALUES (?, ?, 'open', ?) ON CONFLICT (experiment, key) "
                "DO UPDATE SET cell = excluded.cell, "
                "status = coalesce(status, 'open') WHERE cell IS NULL",
                rows).rowcount

    # -- queue: claim / completion -----------------------------------------
    def claim(self, worker: str, *, ttl: float, max_attempts: int = 3,
              now: float | None = None,
              record: tuple | None = None) -> dict | None:
        """Atomically claim the next runnable cell for ``worker``.

        Runnable = status ``open``, or ``claimed`` with a heartbeat
        older than ``ttl`` seconds (the claimant is presumed dead; the
        cell is *reclaimed* and its ``attempt`` count grows).  Stale
        claims that already burned ``max_attempts`` claims are marked
        failed instead of being retried forever.  Returns ``None`` when
        nothing is runnable, else ``{"experiment", "key", "cell",
        "attempt"}`` with ``cell`` as the serialized field dict.

        ``record=(experiment, key, value)`` first records the worker's
        previous cell, as :meth:`finish` would, in the same lockfile and
        transaction, whether or not a cell is left to claim.
        """
        now = time.time() if now is None else now
        stale = now - ttl
        with self._lock(), _immediate(self._connect(create=True)) as conn:
            if record is not None:
                conn.execute(_RECORD, (*record, now))
            conn.execute(
                "UPDATE cells SET status = 'failed', worker = NULL, "
                "error = 'heartbeat expired after ' || attempt || "
                "' attempts' WHERE status = 'claimed' AND heartbeat < ? "
                "AND attempt >= ?", (stale, max_attempts))
            rows = conn.execute(
                "UPDATE cells SET status = 'claimed', worker = ?, "
                "attempt = attempt + 1, heartbeat = ?, claimed_at = ?, "
                f"error = NULL WHERE rowid = ({_NEXT_CELL}) "
                "RETURNING experiment, key, cell, attempt",
                (worker, now, now, stale)).fetchall()
        if not rows:
            return None
        ((experiment, key, cell_json, attempt),) = rows
        return {"experiment": experiment, "key": key,
                "cell": json.loads(cell_json), "attempt": attempt}

    def finish(self, experiment: str, key: str, value: float) -> None:
        """Record a claimed cell's value; it is then done.

        One statement writes value, status and heartbeat, so a crash can
        never leave a done row without its value; at worst the cell is
        re-executed, which is idempotent because simulations are
        deterministic.  A worker records its values through its next
        :meth:`claim`, and finishes only the last one.
        """
        self._locked_write(_RECORD, (experiment, key, value, time.time()))

    def fail(self, experiment: str, key: str, worker: str,
             error: str) -> None:
        """Mark ``worker``'s claim on a cell failed with a diagnostic.

        A no-op once the claim is no longer ``worker``'s (another worker
        reclaimed it, or it was finished meanwhile)."""
        self._connect(create=True).execute(
            "UPDATE cells SET status = 'failed', error = ?, heartbeat = ? "
            "WHERE experiment = ? AND key = ? AND status = 'claimed' "
            "AND worker = ?",
            (error, time.time(), experiment, key, worker))

    def release(self, experiment: str, key: str, worker: str,
                error: str | None = None) -> None:
        """Return ``worker``'s claim on a cell to ``open`` for another
        attempt (a no-op once the claim is no longer ``worker``'s).

        Unlike :meth:`reset`, the attempt count is kept — the claim
        already charged it, so a cell that keeps blowing up still runs
        out of attempts and parks as failed instead of looping forever.
        The error text is recorded for forensics (``queue-status`` shows
        why the cell bounced) until the next claim clears it.
        """
        self._connect(create=True).execute(
            "UPDATE cells SET status = 'open', worker = NULL, "
            "heartbeat = NULL, claimed_at = NULL, error = ? "
            "WHERE experiment = ? AND key = ? AND status = 'claimed' "
            "AND worker = ?",
            (error, experiment, key, worker))

    # -- queue: recovery / monitoring ----------------------------------------
    def reset(self, *, failed: bool = True,
              stale_ttl: float | None = None) -> int:
        """Return failed (and optionally stale-claimed) cells to open.

        ``stale_ttl`` additionally releases claims whose heartbeat is
        older than that many seconds — immediate recovery from a known-
        dead worker without waiting for the next claimer's reaper.
        Attempts and errors are cleared: a reset is a fresh start.
        Returns the number of cells reopened.
        """
        clauses, params = [], []
        if failed:
            clauses.append("status = 'failed'")
        if stale_ttl is not None:
            clauses.append("(status = 'claimed' AND "
                           "(heartbeat IS NULL OR heartbeat < ?))")
            params.append(time.time() - stale_ttl)
        if not clauses:
            return 0
        return self._locked_write(
            "UPDATE cells SET status = 'open', worker = NULL, "
            "error = NULL, attempt = 0, heartbeat = NULL, "
            "claimed_at = NULL WHERE " + " OR ".join(clauses), params)

    def queue_counts(self) -> dict[str, int]:
        """Queued cells per status (every status present, zeros included)."""
        counts = dict.fromkeys(QUEUE_STATUSES, 0)
        counts.update(self._read(
            "SELECT status, COUNT(*) FROM cells WHERE cell IS NOT NULL "
            "GROUP BY status"))
        return counts

    def queue_rows(self, status: str | None = None) -> list[dict]:
        """Queued rows (optionally one status), ordered by identity."""
        names = ("experiment", "key", "status", "worker", "attempt",
                 "error", "heartbeat", "claimed_at")
        rows = self._read(
            f"SELECT {', '.join(names)} FROM cells WHERE cell IS NOT NULL"
            + (" AND status = ?" if status else "")
            + " ORDER BY experiment, key", (status,) if status else ())
        return [dict(zip(names, r)) for r in rows]

    # -- misc ------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class QueueBackend(SQLiteBackend):
    """The same store addressed as a worker-pull queue (``queue:``): the
    queue verbs accept only this scheme, so a campaign's queue is never
    mistaken for an ordinary run store."""

    SCHEME = "queue"
