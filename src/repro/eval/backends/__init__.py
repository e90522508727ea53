"""Pluggable result-store backends behind :class:`~repro.eval.store.RunStore`.

Two implementations ship: :class:`DirectoryBackend` (the original
run-directory format, byte-identical on disk) and :class:`SQLiteBackend`
(one database file per campaign, one ``cells`` row per cell carrying its
value, queue status and metadata — store schema version 2; files of
version 1 are upgraded in place by the first write, and refused by
reads until then).  :class:`QueueBackend` is the SQLite backend under
the ``queue:`` scheme, which the worker-pull queue verbs require.  All
satisfy the :class:`StoreBackend` protocol, are selected by URL —
``dir:PATH`` / ``sqlite:PATH.db`` / ``queue:PATH.db``, with bare paths
meaning ``dir:`` — and interoperate:
:func:`~repro.eval.store.merge_runs` unions cells across backends, and a
campaign started in one backend can be merged into, and resumed from,
any other.
"""

from __future__ import annotations

from repro.eval.backends.base import StoreBackend, parse_store_url
from repro.eval.backends.directory import DirectoryBackend
from repro.eval.backends.sqlite import QueueBackend, SQLiteBackend

__all__ = [
    "DirectoryBackend",
    "QueueBackend",
    "SQLiteBackend",
    "StoreBackend",
    "open_backend",
    "parse_store_url",
]

_BACKENDS = {"dir": DirectoryBackend, "sqlite": SQLiteBackend,
             "queue": QueueBackend}


def open_backend(url: str) -> StoreBackend:
    """Instantiate the backend a store URL names (without creating it)."""
    scheme, path = parse_store_url(str(url))
    return _BACKENDS[scheme](path)
