"""``repro store serve``: a stdlib HTTP daemon fronting a SqliteStore.

One server process owns the SQLite database; any number of drivers on any
number of hosts talk to it through :class:`~repro.store.http.HttpStore`.
The wire protocol is deliberately tiny — JSON bodies over six endpoints,
each a direct projection of one :class:`~repro.store.base.ResultStore`
method — so the client stays a ~hundred-line urllib wrapper and the server
inherits every consistency guarantee from the SqliteStore it fronts
(claims still serialise through ``BEGIN IMMEDIATE``; the HTTP layer adds
no coordination of its own).

Endpoints::

    GET  /health            -> {"ok": true, "store": "sqlite:..."}
    GET  /status            -> StoreStatus as JSON
    GET  /record?key=K      -> {"record": {...}} | 404
    POST /claim             {"key", "lease"?, "owner"?} -> Claim as JSON
    POST /append            {"key", "record", "wall_seconds"?} -> {"ok": true}
    POST /release           {"key", "owner"?} -> {"ok": true}
    POST /pending           {"keys": [...]} -> {"pending": [...]}

Records cross the wire in the exact :func:`record_to_dict` JSON form every
store writes, so an HTTP round-trip is bit-identical to a local one.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.store.base import DEFAULT_LEASE_SECONDS, record_from_dict, record_to_dict
from repro.store.sqlite import SqliteStore

__all__ = ["StoreServer", "serve_store"]


def _status_payload(status) -> dict:
    return {
        "completed": status.completed,
        "leased": status.leased,
        "stale": status.stale,
        "leases": [
            {
                "key": entry.key,
                "owner": entry.owner,
                "expires": entry.expires,
                "stale": entry.stale,
            }
            for entry in status.leases
        ],
        "workloads": [
            {
                "workload": entry.workload,
                "trials": entry.trials,
                "interactions": entry.interactions,
                "wall_seconds": entry.wall_seconds,
            }
            for entry in status.workloads
        ],
    }


class _StoreRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's backing SqliteStore."""

    # The backing store hangs off the *server* object (set by StoreServer).
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    @property
    def store(self) -> SqliteStore:
        return self.server.store  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def _reply(self, payload: dict, code: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True, allow_nan=False).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/health":
                self._reply({"ok": True, "store": self.store.describe()})
            elif parsed.path == "/status":
                self._reply(_status_payload(self.store.status()))
            elif parsed.path == "/record":
                key = parse_qs(parsed.query).get("key", [None])[0]
                if not key:
                    self._reply({"error": "missing key"}, code=400)
                    return
                record = self.store.get(key)
                if record is None:
                    self._reply({"error": "not found"}, code=404)
                else:
                    self._reply({"record": record_to_dict(record)})
            else:
                self._reply({"error": "unknown endpoint"}, code=404)
        except Exception as error:  # pragma: no cover - defensive
            self._reply({"error": str(error)}, code=500)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            body = self._read_body()
            if self.path == "/claim":
                claim = self.store.claim(
                    body["key"],
                    lease=body.get("lease"),
                    owner=body.get("owner"),
                )
                payload = {
                    "status": claim.status,
                    "owner": claim.owner,
                    "expires": claim.expires,
                }
                if claim.record is not None:
                    payload["record"] = record_to_dict(claim.record)
                self._reply(payload)
            elif self.path == "/append":
                self.store.append(
                    body["key"],
                    record_from_dict(body["record"]),
                    wall_seconds=body.get("wall_seconds"),
                )
                self._reply({"ok": True})
            elif self.path == "/release":
                self.store.release(body["key"], owner=body.get("owner"))
                self._reply({"ok": True})
            elif self.path == "/pending":
                self._reply({"pending": self.store.pending(list(body["keys"]))})
            else:
                self._reply({"error": "unknown endpoint"}, code=404)
        except (KeyError, TypeError, ValueError) as error:
            self._reply({"error": f"bad request: {error}"}, code=400)
        except Exception as error:  # pragma: no cover - defensive
            self._reply({"error": str(error)}, code=500)


class StoreServer:
    """A ``ThreadingHTTPServer`` fronting one SqliteStore.

    Usable inline from tests (``start()`` on port 0, then ``url``) or
    blocking from the CLI (``serve_forever()``).
    """

    def __init__(
        self,
        db_path,
        host: str = "127.0.0.1",
        port: int = 8512,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        verbose: bool = False,
    ) -> None:
        self.store = SqliteStore(db_path, lease_seconds=lease_seconds)
        self.httpd = ThreadingHTTPServer((host, port), _StoreRequestHandler)
        self.httpd.store = self.store  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StoreServer":
        """Serve on a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-store", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass

    def stop(self) -> None:
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.httpd.server_close()
        self.store.close()

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_store(
    db_path,
    host: str = "127.0.0.1",
    port: int = 8512,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    verbose: bool = False,
) -> StoreServer:
    """Construct a :class:`StoreServer` (not yet serving)."""
    return StoreServer(
        db_path, host=host, port=port, lease_seconds=lease_seconds, verbose=verbose
    )
