"""JSONL result store: one append-only JSON-lines file per sweep.

The store keeps one JSON line per finished trial in ``<dir>/<name>.jsonl``::

    {"key": "<sha256 of the spec>", "record": {<RunRecord fields>}}

Records are appended as each trial finishes, so a sweep killed half-way
leaves a valid prefix on disk; re-running the same sweep against the store
replays the finished trials and executes only the missing ones.  A torn
final line (the process died mid-write) is skipped on load.  Because the key
hashes every field of the spec, one directory can safely accumulate results
from many different sweeps without false hits.  Every line is strict JSON
(see :func:`~repro.store.base.record_to_dict`).

Without a directory the store lives in memory only and writes no file: the
sweep driver claims from such a store when a sweep has no store of its own,
so every sweep runs the same claim loop.

Leases are tracked *in process only*: JSONL files have no atomic
compare-and-claim primitive, so this store is correct for any number of
worker processes under **one** driver (the driver serialises claims) but does
not coordinate multiple concurrent drivers — two drivers pointed at the same
directory would duplicate work, not corrupt it (appends themselves are
atomic; last-writer-wins on identical records).  Multi-driver sweeps should
use ``sqlite:`` or ``http:`` stores.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

try:  # advisory file locks: POSIX only, and the writes are atomic anyway
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.harness.results import RunRecord
from repro.store.base import (
    CLAIM_ACQUIRED,
    CLAIM_DONE,
    CLAIM_LEASED,
    Claim,
    DEFAULT_LEASE_SECONDS,
    LeaseReport,
    ResultStore,
    StoreStatus,
    default_owner,
    record_from_dict,
    record_to_dict,
    workload_label,
)

__all__ = ["JsonlStore", "append_jsonl_line"]


def append_jsonl_line(path: str | Path, line: str) -> None:
    """Append one line to a JSONL file safely under concurrent writers.

    Two layers of protection against interleaved appends from multiple
    processes sharing one shard file:

    * the file is opened with ``O_APPEND`` and the whole line leaves in a
      *single* ``os.write`` call — POSIX guarantees the seek-to-end and the
      write are atomic with respect to other ``O_APPEND`` writers, so lines
      cannot interleave even without a lock;
    * an advisory ``flock`` around the write (where available) additionally
      serialises writers, covering filesystems with weaker append semantics
      (and any future multi-``write`` record format).

    A torn *final* line (the process died mid-write) remains possible and is
    skipped on load.
    """
    data = (line + "\n").encode("utf-8")
    descriptor = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
        try:
            os.write(descriptor, data)
        finally:
            if fcntl is not None:
                fcntl.flock(descriptor, fcntl.LOCK_UN)
    finally:
        os.close(descriptor)


class JsonlStore(ResultStore):
    """Single-driver store over one JSONL shard (or over memory alone).

    Parameters
    ----------
    directory:
        Shard directory (created if missing), or ``None`` for an in-memory
        store that writes no file.
    name:
        Stem of the shard file (``<name>.jsonl``), so several sweeps can
        share a directory.
    lease_seconds:
        Nominal lease duration; in-process leases never expire (the holder
        is this very process — if it died, the leases died with it), so the
        value is informational only.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        name: str = "sweep",
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        self.path: Path | None = None
        self.lease_seconds = float(lease_seconds)
        self._records: dict[str, RunRecord] = {}
        self._leases: dict[str, str] = {}
        self._source = "(memory)"
        if directory is not None:
            Path(directory).mkdir(parents=True, exist_ok=True)
            self.path = Path(directory) / f"{name}.jsonl"
            self._source = str(self.path)
            self._load(self.path)

    @classmethod
    def read_shards(cls, directory: str | Path) -> "JsonlStore":
        """Every ``*.jsonl`` shard of ``directory``, merged in memory.

        A sweep writes one shard per workload and engine
        (``<workload>-<engine>.jsonl``), so no single shard stands for the
        directory; this view of all of them is what ``repro store status
        --store jsonl:DIR`` reports on.  It creates and writes no file.
        """
        store = cls()
        store._source = str(Path(directory) / "*.jsonl")
        for shard in sorted(Path(directory).glob("*.jsonl")):
            store._load(shard)
        return store

    def _load(self, path: Path) -> None:
        if not path.exists():
            return
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    record = record_from_dict(payload["record"])
                    key = payload["key"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # Torn write from a killed sweep: ignore the partial line.
                    continue
                self._records[key] = record

    def describe(self) -> str:
        return f"jsonl:{self._source}"

    def get(self, key: str) -> RunRecord | None:
        return self._records.get(key)

    def append(
        self, key: str, record: RunRecord, wall_seconds: float | None = None
    ) -> None:
        self._records[key] = record
        self._leases.pop(key, None)
        if self.path is None:
            return
        # record_to_dict canonicalised every value; allow_nan=False turns any
        # remaining non-finite float into a hard error rather than silently
        # writing an invalid-JSON Infinity/NaN token.
        line = json.dumps(
            {"key": key, "record": record_to_dict(record)},
            sort_keys=True,
            allow_nan=False,
        )
        append_jsonl_line(self.path, line)

    def claim(
        self, key: str, lease: float | None = None, owner: str | None = None
    ) -> Claim:
        record = self._records.get(key)
        if record is not None:
            return Claim(status=CLAIM_DONE, record=record)
        owner = owner or default_owner()
        holder = self._leases.get(key)
        if holder is not None and holder != owner:
            return Claim(status=CLAIM_LEASED, owner=holder)
        self._leases[key] = owner
        return Claim(status=CLAIM_ACQUIRED, owner=owner)

    def release(self, key: str, owner: str | None = None) -> None:
        holder = self._leases.get(key)
        if holder is None:
            return
        if owner is None or holder == owner:
            del self._leases[key]

    def clear(self) -> None:
        """Forget every record and delete the shard file."""
        self._records.clear()
        if self.path is not None and self.path.exists():
            self.path.unlink()

    def status(self) -> StoreStatus:
        leases = tuple(
            LeaseReport(key=key, owner=owner, expires=None, stale=False)
            for key, owner in sorted(self._leases.items())
        )
        rows = (
            (
                workload_label(record),
                int((record.extra or {}).get("interactions", 0) or 0),
                0.0,
            )
            for record in self._records.values()
        )
        return StoreStatus(
            completed=len(self._records),
            leased=len(leases),
            stale=0,
            leases=leases,
            workloads=self._aggregate_workloads(rows),
        )
