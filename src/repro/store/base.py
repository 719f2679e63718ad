"""The result-store abstraction: claim-based, resume-anywhere sweep storage.

Every sweep claims its trials from a store: *many* drivers, on one host or
many, share one store, each repeatedly claiming the next unowned trial,
running it, and appending the record — so duplicated work is structurally
impossible rather than merely unlikely, and a sweep resumes from any mix of
completed/leased/failed trials on any host.

:class:`ResultStore` is that contract.  Keys are the existing SHA-256 spec
hashes (:meth:`TrialSpec.cache_key`), so identical submissions deduplicate
through content addressing exactly as the local cache always did.  The four
core operations:

``claim(key, lease, owner)``
    Atomic compare-and-claim.  Returns one of three outcomes: ``done`` (a
    record already exists — here it is, no work to do), ``acquired`` (the
    caller now holds a lease and must run the trial), or ``leased``
    (another live worker holds it; come back later).  Leases expire: a
    worker that crashes mid-trial loses its lease after ``lease`` seconds
    and the trial is reclaimed by whoever asks next.
``append(key, record)``
    Publish a finished record and release the lease.  Append-only: a key is
    written once and never mutated, so records are immutable facts.
``get(key)`` / ``pending(keys)``
    Point lookup and batch which-of-these-are-missing, used by drivers to
    replay finished trials without claiming them.

Two implementations ship: :class:`~repro.store.sqlite.SqliteStore`
(WAL-mode SQLite, safe for many processes on one host; in memory for a
sweep with no store of its own) and :class:`~repro.store.http.HttpStore`
(thin client of ``repro store serve``, for many hosts).

Store selection is deliberately *outside* the trial cache key: the same
spec must hit regardless of which store serves it, so every
:class:`StoreSpec` field is audited as key-excluded
(:data:`STORE_KEY_EXCLUDED_FIELDS`, enforced by ``repro check`` rules
``K404``/``K405``).
"""

from __future__ import annotations

import abc
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import SimulationError
from repro.harness.results import RunRecord

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
    "checked_lease",
    "default_owner",
    "parse_store_url",
    "record_from_dict",
    "record_to_dict",
    "workload_label",
]


class StoreError(SimulationError):
    """A result-store operation failed (bad URL, unreachable server, ...)."""


#: Lease duration a driver holds on a claimed trial before crashed workers'
#: claims become reclaimable.  Generous relative to any small-n trial; large
#: sweeps pass an explicit ``--lease`` sized to their slowest trial.
DEFAULT_LEASE_SECONDS = 300.0


def checked_lease(seconds: float) -> float:
    """``seconds`` as a lease duration, which must be positive and finite.

    An infinite lease would never let a killed driver's trial be reclaimed,
    and a NaN one expires at no comparable time.
    """
    if not 0 < seconds < math.inf:
        raise StoreError(f"a lease must be positive and finite, got {seconds}")
    return float(seconds)


#: Outcomes of :meth:`ResultStore.claim`.
CLAIM_ACQUIRED = "acquired"
CLAIM_DONE = "done"
CLAIM_LEASED = "leased"

#: URL schemes understood by :func:`parse_store_url`.
STORE_SCHEMES = ("sqlite", "http", "https")


@dataclass(frozen=True)
class Claim:
    """Outcome of one atomic compare-and-claim.

    Attributes
    ----------
    status:
        ``"done"`` (record exists, no work), ``"acquired"`` (caller holds
        the lease and must run the trial) or ``"leased"`` (someone else is
        running it).
    record:
        The finished record when ``status == "done"``.
    owner / expires:
        Lease holder and expiry (unix seconds) when ``status == "leased"``
        or ``"acquired"``.
    """

    status: str
    record: RunRecord | None = None
    owner: str | None = None
    expires: float | None = None

    @property
    def acquired(self) -> bool:
        return self.status == CLAIM_ACQUIRED

    @property
    def done(self) -> bool:
        return self.status == CLAIM_DONE

    @property
    def leased(self) -> bool:
        return self.status == CLAIM_LEASED


@dataclass(frozen=True)
class LeaseReport:
    """One outstanding lease, as reported by :meth:`ResultStore.status`."""

    key: str
    owner: str
    expires: float | None
    stale: bool


@dataclass(frozen=True)
class WorkloadStats:
    """Completed-trial aggregates for one workload (see :func:`workload_label`)."""

    workload: str
    trials: int
    interactions: int
    wall_seconds: float

    @property
    def interactions_per_second(self) -> float | None:
        if self.wall_seconds <= 0:
            return None
        return self.interactions / self.wall_seconds


@dataclass(frozen=True)
class StoreStatus:
    """Snapshot of a store: completion counts, leases, throughput."""

    completed: int
    leased: int
    stale: int
    leases: tuple[LeaseReport, ...] = ()
    workloads: tuple[WorkloadStats, ...] = ()


def workload_label(record: RunRecord) -> str:
    """Grouping label of a record for per-workload status summaries.

    Records carry their provenance in ``extra``: CRN trials name the
    network, finite-state/vector trials at least name the engine.
    """
    extra = record.extra or {}
    crn = extra.get("crn")
    protocol = extra.get("protocol")
    engine = extra.get("engine", "?")
    if crn is not None:
        return f"crn:{crn}@{engine}"
    if protocol is not None:
        return f"{protocol}@{engine}"
    return str(engine)


def _canonicalise(value):
    """Make ``value`` strict-JSON-able: non-finite floats become ``None``.

    Numpy scalars are unwrapped first (``.item()``), containers are walked
    recursively, and anything else non-JSON-native is stringified.
    """
    item = getattr(value, "item", None)
    if callable(item) and not isinstance(value, (int, float, str, bool)):
        value = item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _canonicalise(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalise(entry) for entry in value]
    if value is None or isinstance(value, (int, str, bool)):
        return value
    return str(value)


def record_to_dict(record: RunRecord) -> dict:
    """Serialise a :class:`RunRecord` to plain, strict-JSON-able data.

    Every store persists records in this form.  Non-finite floats anywhere
    in the record — the top-level ``max_additive_error`` (``NaN`` where not
    applicable, ``inf`` for a non-converged trial with no estimates) as well
    as values nested inside ``extra`` — are mapped to ``None``: the
    ``Infinity`` / ``NaN`` tokens Python's ``json`` would otherwise emit are
    not JSON and break strict parsers (``jq``, other languages).
    """
    return {
        "population_size": int(record.population_size),
        "seed": int(record.seed),
        "converged": bool(record.converged),
        "convergence_time": _canonicalise(
            None if record.convergence_time is None else float(record.convergence_time)
        ),
        "max_additive_error": _canonicalise(record.max_additive_error),
        "extra": _canonicalise(record.extra),
    }


def record_from_dict(payload: dict) -> RunRecord:
    """Rebuild a :class:`RunRecord` from :func:`record_to_dict` output.

    A ``null`` ``max_additive_error`` loads as ``NaN`` — that covers both
    sources of a ``null`` on disk (a ``NaN`` "not applicable" and the ``inf``
    of a non-converged trial; the distinction is recoverable from
    ``converged``).  ``null`` values nested in ``extra`` stay ``None``.
    """
    error = payload.get("max_additive_error")
    return RunRecord(
        population_size=payload["population_size"],
        seed=payload["seed"],
        converged=payload["converged"],
        convergence_time=payload["convergence_time"],
        max_additive_error=math.nan if error is None else error,
        extra=payload.get("extra", {}),
    )


def default_owner() -> str:
    """Host-unique worker identity used as the default lease owner."""
    return f"{os.uname().nodename}:{os.getpid()}"


@dataclass(frozen=True)
class StoreSpec:
    """Parsed store selection: *where results live*, never *what they are*.

    Every field here is deliberately excluded from the trial cache key —
    the same :class:`TrialSpec` must hit the same record no matter which
    store serves it (``sqlite`` today, ``http`` tomorrow).  The exclusion is
    machine-checked: each field must be listed in
    :data:`STORE_KEY_EXCLUDED_FIELDS` (rule ``K404``) and must not leak
    into the trial key payload (rule ``K405``), so adding a field without
    deciding its key status fails CI.

    Attributes
    ----------
    scheme:
        One of :data:`STORE_SCHEMES`.
    location:
        Scheme-specific address: a database path (``sqlite``; ``:memory:``
        for a store that writes no file) or a base URL (``http``/``https``).
    lease_seconds:
        Driver-side default lease duration for claims through this store.
    """

    scheme: str
    location: str
    lease_seconds: float = DEFAULT_LEASE_SECONDS

    def __post_init__(self) -> None:
        if self.scheme == "jsonl":
            raise StoreError(
                "jsonl: is not a store URL; a JSONL cache directory resumes "
                "through --cache-dir DIR, which imports its shards, and a "
                "shared store is sqlite:PATH or http://HOST:PORT"
            )
        if self.scheme not in STORE_SCHEMES:
            raise StoreError(
                f"unknown store scheme {self.scheme!r}; expected one of "
                f"{', '.join(STORE_SCHEMES)}"
            )
        if not self.location:
            raise StoreError(f"store URL {self.scheme}: needs a location")
        checked_lease(self.lease_seconds)

    def url(self) -> str:
        """The canonical URL form (``scheme:location``)."""
        if self.scheme in ("http", "https"):
            return self.location
        return f"{self.scheme}:{self.location}"


def parse_store_url(
    url: str, lease_seconds: float = DEFAULT_LEASE_SECONDS
) -> StoreSpec:
    """Parse ``sqlite:PATH`` / ``http://HOST:PORT``.

    The ``http`` scheme keeps the whole URL as the location (so
    ``http://host:8512`` round-trips); ``sqlite`` splits on the first
    colon, so Windows-style or relative paths after the scheme are
    preserved verbatim.
    """
    scheme, separator, rest = url.partition(":")
    if not separator or not scheme:
        raise StoreError(
            f"malformed store URL {url!r}; expected sqlite:PATH or "
            f"http://HOST:PORT"
        )
    location = url if scheme in ("http", "https") else rest
    return StoreSpec(scheme=scheme, location=location, lease_seconds=lease_seconds)


#: Every :class:`StoreSpec` field, by name, audited as excluded from the
#: trial cache key.  ``repro check`` (rule ``K404``) fails when a StoreSpec
#: field is missing here — adding a store field forces an explicit decision
#: — and rule ``K405`` fails if any of these names ever appears in the
#: :meth:`TrialSpec.cache_payload` key set or among TrialSpec's fields.
STORE_KEY_EXCLUDED_FIELDS = ("scheme", "location", "lease_seconds")


class ResultStore(abc.ABC):
    """Claim/append/get/pending storage contract for distributed sweeps.

    Consistency guarantees every implementation must honour:

    * ``append`` is the *only* write of a record; a key, once appended, is
      immutable and every subsequent ``get``/``claim`` observes it.
    * ``claim`` is atomic: for one key, at most one live (unexpired) lease
      exists at any time, so two drivers can never both hold ``acquired``.
    * A lease either ends in ``append`` (normal completion) or expires
      (crashed worker); expiry makes the key claimable again, never lost.
    * Records are exactly the driver's :class:`RunRecord` values — the
      store layer neither inspects nor rewrites them beyond the JSON
      canonicalisation of :func:`record_to_dict`.
    """

    #: Default lease duration for claims when the caller passes none.
    lease_seconds: float = DEFAULT_LEASE_SECONDS

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line identity (scheme + location) for logs and CLI output."""

    @abc.abstractmethod
    def get(self, key: str) -> RunRecord | None:
        """Return the finished record for ``key``, or ``None``."""

    @abc.abstractmethod
    def append(
        self, key: str, record: RunRecord, wall_seconds: float | None = None
    ) -> None:
        """Publish a finished record and release any lease on ``key``.

        ``wall_seconds`` is optional driver-measured execution time, kept
        as store metadata (for throughput reports) strictly *outside* the
        record, so stored records stay bit-identical to serial runs.
        """

    @abc.abstractmethod
    def claim(
        self, key: str, lease: float | None = None, owner: str | None = None
    ) -> Claim:
        """Atomically claim ``key`` for execution (see :class:`Claim`)."""

    @abc.abstractmethod
    def release(self, key: str, owner: str | None = None) -> None:
        """Drop a lease without appending (a failed or abandoned trial)."""

    @abc.abstractmethod
    def status(self) -> StoreStatus:
        """Snapshot of completion counts, leases and per-workload totals."""

    def pending(self, keys: Sequence[str]) -> list[str]:
        """The subset of ``keys`` with no finished record, in input order.

        Implementations with a cheaper batch query override this.
        """
        return [key for key in keys if self.get(key) is None]

    def close(self) -> None:
        """Release any connections; further calls may fail."""

    # -- conveniences shared by all stores ----------------------------------

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _aggregate_workloads(
        rows: Iterable[tuple[str, int, float]],
    ) -> tuple[WorkloadStats, ...]:
        """Fold (label, interactions, wall_seconds) rows into per-workload stats."""
        totals: dict[str, list[float]] = {}
        for label, interactions, wall_seconds in rows:
            bucket = totals.setdefault(label, [0, 0, 0.0])
            bucket[0] += 1
            bucket[1] += int(interactions or 0)
            bucket[2] += float(wall_seconds or 0.0)
        return tuple(
            WorkloadStats(
                workload=label,
                trials=int(trials),
                interactions=int(interactions),
                wall_seconds=wall,
            )
            for label, (trials, interactions, wall) in sorted(totals.items())
        )
