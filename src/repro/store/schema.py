"""The store wire schema: frozen payload shapes of the HTTP result store.

Like :mod:`repro.api.schema` for the fleet, this module is the
compatibility contract between store servers (``python -m repro
store-serve``), store clients (:class:`repro.store.http.HTTPStore`) and
the ``/store/stats`` route ``repro serve`` exposes.  Every dataclass
here — field names, annotations, defaults, order — plus the
:data:`STORE_SCHEMA_VERSION` constant and the authentication constants
are frozen by the ``store-schema`` lint rule against the committed
baseline (``scripts/schema_baseline.json``); additions require a version
bump recorded with ``python -m repro lint --update-baseline``.

Authentication is a bearer token: clients send ``Authorization: Bearer
<token>`` and servers answer a structured 401 on a missing or wrong
token.  The token itself is configuration (``$REPRO_STORE_TOKEN`` or
``--token``), never part of any payload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: Version of the store wire payloads.  Bump on any additive change; the
#: ``store-schema`` lint rule fails removals and unbumped additions.
STORE_SCHEMA_VERSION = 1

#: HTTP header carrying the worker/client credential.
AUTH_HEADER = "Authorization"

#: Credential scheme inside :data:`AUTH_HEADER` (``Bearer <token>``).
AUTH_SCHEME = "Bearer"

#: Environment variable supplying the bearer token to clients and servers.
TOKEN_ENV = "REPRO_STORE_TOKEN"


class StoreSchemaError(ValueError):
    """A store payload does not match the frozen schema."""


def check_store_version(payload: dict, context: str) -> None:
    """Reject payloads stamped with a different store schema version."""
    version = payload.get("schema_version")
    if version != STORE_SCHEMA_VERSION:
        raise StoreSchemaError(
            f"{context}: store schema version {version!r} does not match "
            f"this package's {STORE_SCHEMA_VERSION}")


@dataclass
class StoreStatsReply:
    """The ``GET /store/stats`` payload: counters plus size figures."""

    schema_version: int = STORE_SCHEMA_VERSION
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    duplicate_puts: int = 0
    claims: int = 0
    claim_conflicts: int = 0
    entries: int = 0
    bytes: int = 0

    def to_dict(self) -> dict:
        """The JSON-ready dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "StoreStatsReply":
        """Decode (and version-check) one stats payload."""
        check_store_version(payload, "store stats")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class BlobPutReply:
    """The ``PUT /store/blob/<key>`` payload: conditional-put outcome.

    ``stored`` is True only for the first successful put of a key — the
    exactly-once contract: later puts of the same key are acknowledged
    (``duplicate`` True) but never overwrite the committed payload.
    """

    schema_version: int = STORE_SCHEMA_VERSION
    key: str = ""
    stored: bool = False
    duplicate: bool = False

    def to_dict(self) -> dict:
        """The JSON-ready dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BlobPutReply":
        """Decode (and version-check) one put reply."""
        check_store_version(payload, "blob put")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class ClaimReply:
    """The ``POST /store/claim`` / ``/store/release`` payload.

    ``granted`` says whether the caller now holds the marker; ``holder``
    names the current owner either way (coalescing clients poll until the
    holder releases or its TTL lapses).
    """

    schema_version: int = STORE_SCHEMA_VERSION
    token: str = ""
    granted: bool = False
    holder: str | None = None

    def to_dict(self) -> dict:
        """The JSON-ready dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ClaimReply":
        """Decode (and version-check) one claim reply."""
        check_store_version(payload, "claim")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class MetaReply:
    """The retired ``/store/meta/<name>`` payload: one shared JSON doc.

    No route serves it any more; it stays because the frozen wire schema
    deprecates in place rather than removing a payload.
    """

    schema_version: int = STORE_SCHEMA_VERSION
    name: str = ""
    entries: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON-ready dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MetaReply":
        """Decode (and version-check) one meta payload."""
        check_store_version(payload, "meta")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})
