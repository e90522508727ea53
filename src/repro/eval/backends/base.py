"""The result-store backend protocol and store-URL parsing.

A *store backend* is the persistence layer under
:class:`~repro.eval.store.RunStore`: it knows how to read and write the
three kinds of campaign state — the manifest (fingerprint +
per-experiment status), per-experiment cell values (resume granularity)
and final :class:`~repro.eval.result.ExperimentResult` artifacts — but
none of the campaign semantics (fingerprint guards, merge validation,
resume).  Those live in :class:`~repro.eval.store.RunStore`, which works
against any object satisfying :class:`StoreBackend`.

Backends are selected by URL::

    dir:results/         directory backend (also the default for bare paths)
    sqlite:campaign.db   SQLite backend (one file per campaign)
    queue:campaign.db    the same SQLite file, addressed as a worker-pull
                         cell queue (the scheme the queue verbs require)

``repro-eval --store URL`` and ``Session(store=URL)`` both route through
:func:`repro.eval.backends.open_backend`.
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import Protocol, runtime_checkable

__all__ = ["StoreBackend", "atomic_write_text", "parse_store_url"]

#: registered URL schemes -> backend kind.
SCHEMES = ("dir", "sqlite", "queue")

#: something that *looks like* a URL scheme prefix (>= 2 chars, so a
#: one-letter Windows drive prefix never matches).
_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]+):")


def parse_store_url(url: str) -> tuple[str, str]:
    """Split a store URL into ``(scheme, path)``.

    ``dir:PATH``, ``sqlite:PATH`` and ``queue:PATH`` select a backend
    explicitly; a bare
    path (no scheme prefix) is a directory store, which keeps every
    pre-URL call site (``--out results/``, ``RunStore("results")``)
    meaning exactly what it always meant.  Anything that looks like a
    scheme but is not a registered one (``sqlite3:x.db``, ``sqllite:…``)
    is rejected rather than silently treated as a directory named after
    the typo; prefix such a path with ``dir:`` to force the literal
    name.
    """
    match = _SCHEME_RE.match(url)
    if match is None:
        return "dir", url
    scheme, path = match.group(1), url[match.end():]
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown store scheme {scheme!r} in {url!r}; choose from "
            f"{', '.join(s + ':PATH' for s in SCHEMES)} (or dir:{url!r} "
            f"for a directory literally named that)")
    if not path:
        raise ValueError(f"store URL {url!r} has an empty path")
    return scheme, path


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + ``os.replace``.

    A crash mid-write leaves the previous file contents (or no file)
    rather than a truncated one, and a write that fails for any reason
    (an ``OSError``, a ``text`` that is not a string, a
    ``KeyboardInterrupt``) removes its temp file before re-raising.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@runtime_checkable
class StoreBackend(Protocol):
    """Persistence primitives one result-store backend must provide.

    Implementations must be *lazy on reads*: reading from storage that
    does not exist yet returns ``None`` / empty collections and must not
    create it (``merge_runs`` probes sources read-only).  Only
    :meth:`ensure` and the ``save_*`` methods may create storage.
    """

    #: canonical URL of this backend (``dir:...`` / ``sqlite:...``).
    url: str
    #: filesystem anchor (directory path or database file path).
    path: str

    def ensure(self) -> None:
        """Create the underlying storage if it does not exist (the
        SQLite backend also upgrades an older file's schema here)."""
        ...

    def load_manifest(self) -> dict | None:
        """The stored manifest, or ``None`` if absent/unreadable."""
        ...

    def save_manifest(self, manifest: dict) -> None:
        """Persist the manifest (atomically replacing any previous one)."""
        ...

    def load_cells(self, experiment: str) -> dict[str, float]:
        """Recorded cell values of one experiment (may be empty)."""
        ...

    def save_cells(self, experiment: str, cells: dict[str, float]) -> None:
        """Record ``cells`` (key -> value) of one experiment in one write.

        An upsert: cells recorded earlier, by this or any other writer,
        are kept."""
        ...

    def experiments_with_cells(self) -> list[str]:
        """Experiments with recorded cell values, sorted by name."""
        ...

    def load_cell_meta(self, experiment: str) -> dict[str, dict]:
        """Per-cell metadata (engine name and counters) that a store
        written by an older release holds for one experiment.

        Nothing writes metadata any more, so a new store returns ``{}``.
        It was best-effort provenance, never part of a cell's value or
        the resume contract."""
        ...

    def save_artifact(self, experiment: str, text: str) -> str:
        """Persist one serialized artifact; returns its location."""
        ...

    def load_artifact(self, experiment: str) -> str | None:
        """The serialized artifact, or ``None`` if absent."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...
