"""SQLite result store: atomic compare-and-claim for many drivers on one host.

One database file, two tables:

``results(key, record, workload, interactions, wall_seconds, appended_at)``
    Append-only finished trials.  ``record`` is the exact strict-JSON
    serialisation every store writes (:func:`record_to_dict`), so the
    record round-trips bit-identically; the remaining columns are *store
    metadata* (denormalised for status reports) and never flow back into
    the record.
``leases(key, owner, acquired_at, expires_at)``
    At most one row per key: the live claim.  A lease either ends in
    ``append`` (the row is deleted in the same transaction that inserts the
    result) or expires — ``claim`` treats an ``expires_at`` in the past as
    vacant and atomically takes the row over, which is exactly how a crashed
    worker's trials get reclaimed.

Claims run inside ``BEGIN IMMEDIATE`` transactions, so the read-check-write
is a single critical section serialised by SQLite's write lock: two drivers
can never both observe "vacant" and both acquire.  WAL mode keeps readers
(status, pending) from blocking claimers.  The path ``:memory:`` opens a
store that writes no file: a sweep with no store of its own claims from
one.

Earlier versions kept a ``--cache-dir`` cache as JSON lines
(``{"key": ..., "record": ...}`` per finished trial);
:meth:`SqliteStore.import_jsonl` loads such a shard, so an old cache
resumes.

Wall-clock reads (``time.time``) are confined to this layer by design —
lease expiry is *about* wall time — and carry a committed D302 waiver; the
trial records themselves remain fully deterministic.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from repro.harness.results import RunRecord
from repro.store.base import (
    CLAIM_ACQUIRED,
    CLAIM_DONE,
    CLAIM_LEASED,
    Claim,
    DEFAULT_LEASE_SECONDS,
    LeaseReport,
    ResultStore,
    StoreError,
    StoreStatus,
    checked_lease,
    default_owner,
    record_from_dict,
    record_to_dict,
    workload_label,
)

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    record       TEXT NOT NULL,
    workload     TEXT NOT NULL,
    interactions INTEGER NOT NULL DEFAULT 0,
    wall_seconds REAL NOT NULL DEFAULT 0.0,
    appended_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    key         TEXT PRIMARY KEY,
    owner       TEXT NOT NULL,
    acquired_at REAL NOT NULL,
    expires_at  REAL NOT NULL
);
"""


_INSERT_RESULT = (
    "INSERT OR IGNORE INTO results "
    "(key, record, workload, interactions, wall_seconds, appended_at) "
    "VALUES (?, ?, ?, ?, ?, ?)"
)


def _result_row(
    key: str, record: RunRecord, wall_seconds: float | None, now: float
) -> tuple:
    """The ``results`` row of one finished trial."""
    return (
        key,
        json.dumps(record_to_dict(record), sort_keys=True, allow_nan=False),
        workload_label(record),
        int((record.extra or {}).get("interactions", 0) or 0),
        float(wall_seconds or 0.0),
        now,
    )


def _jsonl_records(path: str | Path):
    """``(key, record)`` of each line of a JSONL shard that parses.

    A line that does not (the torn last line of a killed sweep) is skipped.
    """
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                payload = json.loads(line)
                yield payload["key"], record_from_dict(payload["record"])
            except (json.JSONDecodeError, KeyError, TypeError):
                continue


class SqliteStore(ResultStore):
    """WAL-mode SQLite store with lease-expiry compare-and-claim.

    Safe for any number of processes (and threads — a lock serialises this
    handle) sharing one database file on one host.  For cross-host sweeps,
    front it with ``repro store serve`` and point drivers at the ``http:``
    URL.
    """

    def __init__(
        self,
        path: str | Path,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        timeout: float = 30.0,
    ) -> None:
        self.path = Path(path)
        self.lease_seconds = checked_lease(lease_seconds)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False
        )
        try:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
            with self._lock:
                self._connection.executescript(_SCHEMA)
                self._connection.commit()
        except sqlite3.DatabaseError as error:
            # A truncated or foreign file is bad input, named by its path.
            self._connection.close()
            raise StoreError(
                f"cannot open {self.path} as a SQLite store: {error}"
            ) from error

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # -- reads ---------------------------------------------------------------

    def get(self, key: str) -> RunRecord | None:
        with self._lock:
            row = self._connection.execute(
                "SELECT record FROM results WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        return record_from_dict(json.loads(row[0]))

    def pending(self, keys) -> list[str]:
        if not keys:
            return []
        done: set[str] = set()
        with self._lock:
            # SQLite caps host parameters; chunk well below the default 999.
            for start in range(0, len(keys), 500):
                chunk = list(keys[start : start + 500])
                marks = ",".join("?" for _ in chunk)
                rows = self._connection.execute(
                    f"SELECT key FROM results WHERE key IN ({marks})", chunk
                ).fetchall()
                done.update(row[0] for row in rows)
        return [key for key in keys if key not in done]

    # -- writes --------------------------------------------------------------

    def append(
        self, key: str, record: RunRecord, wall_seconds: float | None = None
    ) -> None:
        now = time.time()
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                if wall_seconds is None:
                    # Derive execution time from the claim that started the
                    # trial, keeping all wall-clock bookkeeping inside the
                    # store layer (drivers stay clock-free for determinism).
                    lease_row = self._connection.execute(
                        "SELECT acquired_at FROM leases WHERE key = ?", (key,)
                    ).fetchone()
                    if lease_row is not None:
                        wall_seconds = max(0.0, now - lease_row[0])
                self._connection.execute(
                    _INSERT_RESULT, _result_row(key, record, wall_seconds, now)
                )
                self._connection.execute(
                    "DELETE FROM leases WHERE key = ?", (key,)
                )
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise

    def import_jsonl(self, path: str | Path) -> int:
        """Load a JSONL cache shard of an earlier version into an empty store.

        Each line of the shard holds ``{"key": ..., "record": ...}``; a line
        that does not parse, such as the torn last line of a killed sweep,
        is skipped.  The records go in one transaction, in file order, and
        only while the store holds no result, so drivers that open one cache
        together import it once.  Returns the number of records imported.
        """
        now = time.time()
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                if self._connection.execute(
                    "SELECT 1 FROM results LIMIT 1"
                ).fetchone() is not None:
                    self._connection.commit()
                    return 0
                imported = self._connection.executemany(
                    _INSERT_RESULT,
                    (
                        _result_row(key, record, None, now)
                        for key, record in _jsonl_records(path)
                    ),
                ).rowcount
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise
        return imported

    def claim(
        self, key: str, lease: float | None = None, owner: str | None = None
    ) -> Claim:
        owner = owner or default_owner()
        duration = self.lease_seconds if lease is None else checked_lease(lease)
        now = time.time()
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                row = self._connection.execute(
                    "SELECT record FROM results WHERE key = ?", (key,)
                ).fetchone()
                if row is not None:
                    self._connection.commit()
                    return Claim(
                        status=CLAIM_DONE, record=record_from_dict(json.loads(row[0]))
                    )
                holder = self._connection.execute(
                    "SELECT owner, expires_at FROM leases WHERE key = ?", (key,)
                ).fetchone()
                if holder is not None and holder[1] > now and holder[0] != owner:
                    self._connection.commit()
                    return Claim(
                        status=CLAIM_LEASED, owner=holder[0], expires=holder[1]
                    )
                expires = now + duration
                self._connection.execute(
                    "INSERT INTO leases (key, owner, acquired_at, expires_at) "
                    "VALUES (?, ?, ?, ?) "
                    "ON CONFLICT(key) DO UPDATE SET "
                    "owner=excluded.owner, acquired_at=excluded.acquired_at,"
                    " expires_at=excluded.expires_at",
                    (key, owner, now, expires),
                )
                self._connection.commit()
                return Claim(status=CLAIM_ACQUIRED, owner=owner, expires=expires)
            except BaseException:
                self._connection.rollback()
                raise

    def release(self, key: str, owner: str | None = None) -> None:
        with self._lock:
            if owner is None:
                self._connection.execute(
                    "DELETE FROM leases WHERE key = ?", (key,)
                )
            else:
                self._connection.execute(
                    "DELETE FROM leases WHERE key = ? AND owner = ?", (key, owner)
                )
            self._connection.commit()

    # -- reporting -----------------------------------------------------------

    def status(self) -> StoreStatus:
        now = time.time()
        with self._lock:
            completed = self._connection.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]
            lease_rows = self._connection.execute(
                "SELECT key, owner, expires_at FROM leases ORDER BY key"
            ).fetchall()
            workload_rows = self._connection.execute(
                "SELECT workload, interactions, wall_seconds FROM results"
            ).fetchall()
        leases = tuple(
            LeaseReport(key=key, owner=owner, expires=expires, stale=expires <= now)
            for key, owner, expires in lease_rows
        )
        stale = sum(1 for entry in leases if entry.stale)
        return StoreStatus(
            completed=int(completed),
            leased=len(leases) - stale,
            stale=stale,
            leases=leases,
            workloads=self._aggregate_workloads(workload_rows),
        )
