"""HTTP result store: thin urllib client of ``repro store serve``.

Every :class:`~repro.store.base.ResultStore` method maps to one request
against the server in :mod:`repro.store.server`; records cross the wire in
the exact :func:`record_to_dict` JSON every store writes, so results
fetched over HTTP are bit-identical to local ones.  The client holds no
state beyond the base URL — all coordination lives in the server's
SqliteStore — so any number of clients on any number of hosts are safe.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from urllib.parse import quote

from repro.harness.results import RunRecord
from repro.store.base import (
    Claim,
    DEFAULT_LEASE_SECONDS,
    LeaseReport,
    ResultStore,
    StoreError,
    StoreStatus,
    WorkloadStats,
    default_owner,
    record_from_dict,
    record_to_dict,
)

__all__ = ["HttpStore"]


class HttpStore(ResultStore):
    """Client of a ``repro store serve`` daemon.

    Parameters
    ----------
    url:
        Base URL of the server, e.g. ``http://127.0.0.1:8512``.
    lease_seconds:
        Default lease duration sent with each claim.
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(
        self,
        url: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        timeout: float = 30.0,
    ) -> None:
        self.url = url.rstrip("/")
        self.lease_seconds = float(lease_seconds)
        self.timeout = float(timeout)

    def describe(self) -> str:
        return self.url

    # -- wire plumbing -------------------------------------------------------

    def _request(self, path: str, payload: dict | None = None) -> dict:
        url = f"{self.url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            if error.code == 404 and path.startswith("/record"):
                return {}
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error", "")
            except Exception:
                detail = ""
            raise StoreError(
                f"store server {self.url} rejected {path}: "
                f"HTTP {error.code} {detail}".rstrip()
            ) from error
        except urllib.error.URLError as error:
            raise StoreError(
                f"cannot reach store server {self.url}: {error.reason}"
            ) from error

    # -- ResultStore contract ------------------------------------------------

    def health(self) -> dict:
        """Server identity probe (``GET /health``)."""
        return self._request("/health")

    def get(self, key: str) -> RunRecord | None:
        payload = self._request(f"/record?key={quote(key)}")
        if "record" not in payload:
            return None
        return record_from_dict(payload["record"])

    def pending(self, keys) -> list[str]:
        if not keys:
            return []
        return list(self._request("/pending", {"keys": list(keys)})["pending"])

    def append(
        self, key: str, record: RunRecord, wall_seconds: float | None = None
    ) -> None:
        self._request(
            "/append",
            {
                "key": key,
                "record": record_to_dict(record),
                "wall_seconds": wall_seconds,
            },
        )

    def claim(
        self, key: str, lease: float | None = None, owner: str | None = None
    ) -> Claim:
        payload = self._request(
            "/claim",
            {
                "key": key,
                "lease": self.lease_seconds if lease is None else float(lease),
                "owner": owner or default_owner(),
            },
        )
        record = payload.get("record")
        return Claim(
            status=payload["status"],
            record=None if record is None else record_from_dict(record),
            owner=payload.get("owner"),
            expires=payload.get("expires"),
        )

    def release(self, key: str, owner: str | None = None) -> None:
        self._request("/release", {"key": key, "owner": owner})

    def status(self) -> StoreStatus:
        payload = self._request("/status")
        return StoreStatus(
            completed=int(payload["completed"]),
            leased=int(payload["leased"]),
            stale=int(payload["stale"]),
            leases=tuple(
                LeaseReport(
                    key=entry["key"],
                    owner=entry["owner"],
                    expires=entry["expires"],
                    stale=bool(entry["stale"]),
                )
                for entry in payload.get("leases", ())
            ),
            workloads=tuple(
                WorkloadStats(
                    workload=entry["workload"],
                    trials=int(entry["trials"]),
                    interactions=int(entry["interactions"]),
                    wall_seconds=float(entry["wall_seconds"]),
                )
                for entry in payload.get("workloads", ())
            ),
        )
