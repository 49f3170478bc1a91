"""The HTTP result-store tier: ``python -m repro store-serve`` + client.

The server side fronts any local store (a :class:`~repro.store.sqlite.
SqliteStore` by default, so it inherits LRU/TTL/size-cap eviction) with a
dependency-free JSON/octet-stream API; the client side
(:class:`HTTPStore`) implements the full
:class:`~repro.store.base.ResultStore` protocol over it, which is what
lets ``python -m repro worker --store http://host:port`` commit outcomes
with **no shared filesystem**.

========  =========================  =====================================
method    path                       behaviour
========  =========================  =====================================
GET       ``/healthz``               liveness probe (never authenticated)
GET       ``/store/blob/<key>``      payload bytes, 404 on a miss
HEAD      ``/store/blob/<key>``      existence probe (``contains``)
PUT       ``/store/blob/<key>``      conditional put → ``BlobPutReply``
                                     (first writer wins, exactly-once)
GET       ``/store/report/<key>``    report memo as JSON, 404 on a miss
PUT       ``/store/report/<key>``    conditional put of a report memo
                                     (JSON body) → ``BlobPutReply``; 400
                                     unless the body is a report
GET       ``/store/stats``           ``StoreStatsReply`` counters + sizes
POST      ``/store/claim``           acquire an in-flight marker
POST      ``/store/release``         drop an in-flight marker
========  =========================  =====================================

Every route except ``/healthz`` requires the bearer token when the server
was given one (``--token`` / ``$REPRO_STORE_TOKEN``): a missing or wrong
``Authorization: Bearer <token>`` header answers a structured 401.  The
payload shapes and the auth header/scheme are frozen by the
``store-schema`` lint rule (see :mod:`repro.store.schema`).
"""

from __future__ import annotations

import json
import os

from repro.api.http import (
    JSONServer,
    RouteError,
    TransportError,
    request,
)
from repro.core.simulator import SimulationOutcome
from repro.store.base import (
    StoreStats,
    decode_payload,
    decode_report,
    encode_payload,
    valid_report,
)
from repro.store.schema import (
    STORE_SCHEMA_VERSION,
    TOKEN_ENV,
    BlobPutReply,
    ClaimReply,
    StoreStatsReply,
)

#: Default bind address of ``python -m repro store-serve``.
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``python -m repro store-serve``.
DEFAULT_PORT = 8878


class StoreError(RuntimeError):
    """The store server answered an error (or is unreachable)."""


class StoreAuthError(StoreError):
    """The store server refused this client's credentials (401)."""


class HTTPStore:
    """A :class:`~repro.store.base.ResultStore` client over HTTP.

    Args:
        base_url: The store server (``http://host:port``).
        token: Bearer token; None reads ``$REPRO_STORE_TOKEN``.  Sent on
            every request (the server ignores it when it runs open).
        timeout_s: Per-request network timeout.
    """

    def __init__(self, base_url: str, token: str | None = None,
                 *, timeout_s: float = 60.0):
        """Create the client (no traffic until the first operation)."""
        self.base_url = base_url.rstrip("/")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV)
        self.timeout_s = timeout_s
        self.stats = StoreStats()

    @property
    def locator(self) -> str:
        """The locator that re-opens this store (its base URL)."""
        return self.base_url

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | bytes | None = None,
                 *, missing_ok: bool = False) -> bytes | None:
        """One request; the reply body, or None for a 404 when ``missing_ok``."""
        try:
            status, reply = request(method, self.base_url + path, body,
                                    token=self.token, timeout=self.timeout_s)
        except TransportError as error:
            raise StoreError(
                f"store at {self.base_url} unreachable: {error}") from None
        if status == 401:
            raise StoreAuthError(
                f"store at {self.base_url} refused this client's "
                f"credentials (set ${TOKEN_ENV}): "
                f"{reply.decode(errors='replace')}")
        if status == 404 and missing_ok:
            return None
        if status >= 400:
            raise StoreError(
                f"store at {self.base_url} answered {status} to {method} "
                f"{path}: {reply.decode(errors='replace')}")
        return reply

    def _json(self, method: str, path: str,
              body: dict | bytes | None = None) -> dict:
        return json.loads(self._request(method, path, body))

    # ------------------------------------------------------------------
    # The ResultStore protocol
    # ------------------------------------------------------------------

    def get(self, key: str) -> SimulationOutcome | None:
        """Fetch and decode the payload under ``key`` (None on 404)."""
        blob = self._request("GET", f"/store/blob/{key}", missing_ok=True)
        outcome = decode_payload(blob) if blob is not None else None
        if outcome is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return outcome

    def put(self, key: str, outcome: SimulationOutcome) -> bool:
        """Conditionally upload the payload for ``key`` (first put wins)."""
        reply = BlobPutReply.from_dict(self._json(
            "PUT", f"/store/blob/{key}", encode_payload(outcome)))
        if reply.stored:
            self.stats.stores += 1
        else:
            self.stats.duplicate_puts += 1
        return reply.stored

    def get_report(self, key: str) -> dict | None:
        """Fetch the report memo under ``key`` (None on 404)."""
        blob = self._request("GET", f"/store/report/{key}", missing_ok=True)
        report = decode_report(blob) if blob is not None else None
        if report is None:
            self.stats.report_misses += 1
        else:
            self.stats.report_hits += 1
        return report

    def put_report(self, key: str, report: dict) -> bool:
        """Conditionally upload a report memo (first put wins)."""
        return BlobPutReply.from_dict(self._json(
            "PUT", f"/store/report/{key}", report)).stored

    def contains(self, key: str) -> bool:
        """HEAD-probe whether an entry for ``key`` exists."""
        return self._request("HEAD", f"/store/blob/{key}",
                             missing_ok=True) is not None

    def claim(self, token: str, owner: str, ttl_s: float) -> bool:
        """Acquire the in-flight marker ``token`` on the server."""
        reply = ClaimReply.from_dict(self._json("POST", "/store/claim", {
            "schema_version": STORE_SCHEMA_VERSION,
            "token": token, "owner": owner, "ttl_s": ttl_s}))
        if reply.granted:
            self.stats.claims += 1
        else:
            self.stats.claim_conflicts += 1
        return reply.granted

    def release(self, token: str, owner: str) -> None:
        """Drop the in-flight marker ``token`` on the server."""
        self._json("POST", "/store/release", {
            "schema_version": STORE_SCHEMA_VERSION,
            "token": token, "owner": owner})

    def stats_payload(self) -> dict:
        """The *server's* ``/store/stats`` payload (fleet-wide counters)."""
        return self._json("GET", "/store/stats")


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


class StoreServer(JSONServer):
    """The endpoint table in the module docstring over one backing store."""

    def __init__(self, address, backing, token: str | None = None):
        """Bind to ``address`` and serve ``backing`` (token = require auth)."""
        self.backing = backing
        super().__init__(address, [
            ("GET", "/store/blob/<key>", self._get_blob),
            ("HEAD", "/store/blob/<key>", self._has_blob),
            ("PUT", "/store/blob/<key>", self._put_blob),
            ("GET", "/store/report/<key>", self._get_report),
            ("PUT", "/store/report/<key>", self._put_report),
            ("GET", "/store/stats", self._stats),
            ("POST", "/store/claim", self._claim),
            ("POST", "/store/release", self._release),
        ], STORE_SCHEMA_VERSION, token=token)

    def _get_blob(self, request, key: str) -> tuple[int, bytes]:
        # Round-trips through the backing store's ``get`` so hit/miss/TTL
        # accounting happens exactly once, then re-encodes: the payload
        # codec is deterministic, so the bytes a client receives equal
        # the bytes any other tier would serve.
        outcome = self.backing.get(key)
        if outcome is None:
            raise RouteError(404, f"no entry for key {key!r}")
        return 200, encode_payload(outcome)

    def _has_blob(self, request, key: str) -> tuple[int, bytes]:
        return (200 if self.backing.contains(key) else 404), b""

    def _put_blob(self, request, key: str) -> tuple[int, dict]:
        outcome = decode_payload(request.read_body())
        if outcome is None:
            raise RouteError(400, f"payload for {key!r} is not a valid "
                                  f"cache-format entry")
        stored = self.backing.put(key, outcome)
        return 200, BlobPutReply(key=key, stored=stored,
                                 duplicate=not stored).to_dict()

    def _get_report(self, request, key: str) -> tuple[int, dict]:
        report = self.backing.get_report(key)
        if report is None:
            raise RouteError(404, f"no report for key {key!r}")
        return 200, report

    def _put_report(self, request, key: str) -> tuple[int, dict]:
        report = valid_report(request.read_json())
        if report is None:
            raise RouteError(400, "body is not an experiment report")
        stored = self.backing.put_report(key, report)
        return 200, BlobPutReply(key=key, stored=stored,
                                 duplicate=not stored).to_dict()

    def _stats(self, request) -> tuple[int, dict]:
        return 200, StoreStatsReply(**self.backing.stats_payload()).to_dict()

    def _claim(self, request) -> tuple[int, dict]:
        payload = request.read_json()
        token = str(payload.get("token", ""))
        owner = str(payload.get("owner", ""))
        try:
            ttl_s = float(payload.get("ttl_s", 60.0))
        except (TypeError, ValueError):
            raise RouteError(400, "ttl_s must be a number") from None
        granted = self.backing.claim(token, owner, ttl_s)
        holder = owner if granted else self._holder(token)
        return 200, ClaimReply(token=token, granted=granted,
                               holder=holder).to_dict()

    def _release(self, request) -> tuple[int, dict]:
        payload = request.read_json()
        token = str(payload.get("token", ""))
        self.backing.release(token, str(payload.get("owner", "")))
        return 200, ClaimReply(token=token, granted=False,
                               holder=self._holder(token)).to_dict()

    def _holder(self, token: str) -> str | None:
        """Current marker owner when the backing store can say (else None)."""
        probe = getattr(self.backing, "holder", None)
        return probe(token) if probe is not None else None


def make_store_server(host: str = DEFAULT_HOST, port: int = 0,
                      backing=None, token: str | None = None) -> StoreServer:
    """Create (but do not start) a :class:`StoreServer`.

    ``port=0`` binds an ephemeral free port (the chosen URL is
    ``server.url``); ``backing=None`` serves an in-memory
    :class:`~repro.store.sqlite.SqliteStore`.  Tests drive the returned
    server from a thread via ``serve_forever()``/``shutdown()``.
    """
    if backing is None:
        from repro.store.sqlite import SqliteStore

        backing = SqliteStore(":memory:")
    return StoreServer((host, port), backing, token=token)
