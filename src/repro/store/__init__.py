"""Pluggable result stores for distributed sweeps (see :mod:`repro.store.base`).

The one function most callers need is :func:`open_store`, which turns a
``sqlite:PATH`` / ``http://HOST:PORT`` URL (or a parsed :class:`StoreSpec`)
into a live :class:`ResultStore`; :func:`open_cache_dir` opens the local
cache of a ``--cache-dir`` sweep.
"""

from __future__ import annotations

from pathlib import Path

from repro.store.base import (
    CLAIM_ACQUIRED,
    CLAIM_DONE,
    CLAIM_LEASED,
    DEFAULT_LEASE_SECONDS,
    STORE_KEY_EXCLUDED_FIELDS,
    STORE_SCHEMES,
    Claim,
    LeaseReport,
    ResultStore,
    StoreError,
    StoreSpec,
    StoreStatus,
    WorkloadStats,
    checked_lease,
    default_owner,
    parse_store_url,
    workload_label,
)

__all__ = [
    "CLAIM_ACQUIRED",
    "CLAIM_DONE",
    "CLAIM_LEASED",
    "DEFAULT_LEASE_SECONDS",
    "STORE_KEY_EXCLUDED_FIELDS",
    "STORE_SCHEMES",
    "Claim",
    "LeaseReport",
    "ResultStore",
    "StoreError",
    "StoreSpec",
    "StoreStatus",
    "WorkloadStats",
    "default_owner",
    "open_cache_dir",
    "open_store",
    "parse_store_url",
    "workload_label",
]


def open_store(store, lease_seconds: float = DEFAULT_LEASE_SECONDS) -> ResultStore:
    """Open a result store from a URL, a :class:`StoreSpec`, or pass through.

    Accepts ``sqlite:PATH`` (many processes on one host; ``sqlite::memory:``
    writes no file) and ``http(s)://HOST:PORT`` (``repro store serve``
    daemon, many hosts).  An already-open :class:`ResultStore` is returned
    unchanged, so APIs can take either.  The HTTP client imports only when
    a URL names it.
    """
    if isinstance(store, ResultStore):
        return store
    if isinstance(store, StoreSpec):
        spec = store
    else:
        spec = parse_store_url(str(store), lease_seconds=lease_seconds)
    if spec.scheme == "sqlite":
        from repro.store.sqlite import SqliteStore

        return SqliteStore(spec.location, lease_seconds=spec.lease_seconds)
    from repro.store.http import HttpStore

    return HttpStore(spec.location, lease_seconds=spec.lease_seconds)


def open_cache_dir(
    directory: str | Path,
    name: str,
    resume: bool = True,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
) -> ResultStore:
    """Open the SQLite cache ``<directory>/<name>.sqlite`` of a local sweep.

    A sweep names its cache after its workload and engine
    (``epidemic-count``), so one directory holds the caches of many
    sweeps, and any number of drivers may share one.  Without ``resume``
    the cache and the ``<name>.jsonl`` shard of an earlier version are
    removed first.  A ``<name>.jsonl`` shard beside a cache that holds no
    result yet is imported
    (:meth:`~repro.store.sqlite.SqliteStore.import_jsonl`), so a cache
    directory written by an earlier version resumes where it stopped.
    """
    from repro.store.sqlite import SqliteStore

    checked_lease(lease_seconds)
    path = Path(directory) / f"{name}.sqlite"
    legacy = Path(directory) / f"{name}.jsonl"
    if not resume:
        # A killed sweep leaves its write-ahead log, which SQLite would
        # replay into a new database of the same name.
        for stale in (legacy, path, Path(f"{path}-wal"), Path(f"{path}-shm")):
            stale.unlink(missing_ok=True)
    store = SqliteStore(path, lease_seconds=lease_seconds)
    if legacy.exists():
        store.import_jsonl(legacy)
    return store
