"""``repro.store`` core: the ``ResultStore`` protocol and payload codec.

A *result store* is a content-addressed map from :func:`outcome keys
<repro.harness.executors.outcome_key>` to slim
:class:`~repro.core.simulator.SimulationOutcome` payloads in one payload
format (:data:`CACHE_FORMAT_VERSION`).  Two implementations speak the
protocol:

* :class:`repro.store.sqlite.SqliteStore` — one sqlite database file
  with optional LRU eviction, per-entry TTL and a size cap.  Its
  subclass :class:`repro.store.disk.DiskStore` is the same store rooted
  at a directory (``<root>/store.sqlite3``, the ``$REPRO_CACHE_DIR``
  tier);
* :class:`repro.store.http.HTTPStore` — a network client for ``python -m
  repro store-serve``, so fleet workers on other hosts commit outcomes
  with no shared filesystem.

Stores are named by *locators* — plain strings that travel in
:class:`~repro.harness.executors.WorkloadTask` payloads and fleet cell
dicts: a directory path opens a :class:`DiskStore`,
``sqlite:///path/to.db`` a :class:`SqliteStore`, and
``http(s)://host:port`` an :class:`HTTPStore`.  :func:`open_store` maps a
locator to a store and :func:`store_locator` is its inverse.

Beyond ``get``/``put``, stores carry two facilities the rest of the
stack builds on:

* **the report memo** (:meth:`ResultStore.get_report` /
  :meth:`ResultStore.put_report`) — a finished experiment report as one
  JSON blob, keyed by :func:`repro.harness.spec.report_key`, so a
  repeated request is one store read instead of one read per grid cell;
* **claims** (:meth:`ResultStore.claim` / :meth:`ResultStore.release`) —
  named, TTL-guarded in-flight markers.  Sessions claim
  ``request/<digest>`` before executing a grid, which extends request
  coalescing across processes and hosts: the second session waits for the
  first holder instead of simulating, then reads pure store hits.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.core.simulator import SimulationOutcome

#: Bump whenever the pickled payload layout or the key material changes.
#: v2: ``SimResult`` gained the ``finished`` field (incremental runs).
#: v3: ``SimStats`` gained ``occupancy`` and ``SimResult`` gained
#:     ``timeline`` (observability); the key material gained the
#:     ``record_stats`` mode.
CACHE_FORMAT_VERSION = 3

#: Environment variable naming the default result store as a locator
#: (path, ``sqlite://...`` or ``http(s)://...``); takes precedence over
#: ``$REPRO_CACHE_DIR`` when both are set.
STORE_ENV = "REPRO_STORE"

#: Key prefix of report-memo entries in a store's blob table (cell outcome
#: keys are bare hex digests, so the two can never collide).
REPORT_PREFIX = "report/"


@dataclass
class StoreStats:
    """Hit/miss/store/eviction counters for one store instance.

    ``hits``/``misses``/``stores`` count cell-outcome lookups and writes;
    ``report_hits``/``report_misses`` count report-memo lookups; the rest
    count evictions, duplicate puts and claims.  A process pool adds every
    field of its workers' stats into the parent's.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    duplicate_puts: int = 0
    claims: int = 0
    claim_conflicts: int = 0
    report_hits: int = 0
    report_misses: int = 0

    def __call__(self) -> dict:
        """The counters as a plain dict (``store.stats()`` protocol form)."""
        return asdict(self)


def encode_payload(outcome: SimulationOutcome) -> bytes:
    """Serialise a *slim* outcome to the cache-format payload bytes.

    The program and the functional trace are dropped — they are cheap to
    rebuild relative to the cycle-level simulation and would dominate the
    payload size; everything the experiment reports read (``stats``,
    ``cycles``, ``timing.timing_records``) is preserved byte-for-byte.
    """
    return pickle.dumps({
        "version": CACHE_FORMAT_VERSION,
        "timing": outcome.timing,
        "reno_config": outcome.reno_config,
    }, protocol=pickle.HIGHEST_PROTOCOL)


def decode_payload(blob: bytes) -> SimulationOutcome | None:
    """Deserialise payload bytes back into a slim outcome.

    Any failure to unpickle or interpret the payload answers None —
    entries written by other versions of the codebase can fail in ways
    well beyond ``UnpicklingError`` (e.g. ``ModuleNotFoundError`` for a
    renamed class), and a corrupt entry must cost a recomputation, never
    an experiment.
    """
    try:
        payload = pickle.loads(blob)
        if payload.get("version") != CACHE_FORMAT_VERSION:
            raise ValueError("cache format version mismatch")
        return SimulationOutcome(
            program=None,
            functional=None,
            timing=payload["timing"],
            reno_config=payload["reno_config"],
            cached=True,
        )
    except Exception:                 # noqa: BLE001 - corrupt entry == miss
        return None


def encode_report(report: dict) -> bytes:
    """Serialise a report's ``to_dict()`` form to a report-memo blob."""
    return json.dumps(report, separators=(",", ":")).encode()


def decode_report(blob: bytes) -> dict | None:
    """Deserialise a report-memo blob (None unless :func:`valid_report`)."""
    try:
        report = json.loads(blob)
    except ValueError:                # includes UnicodeDecodeError
        return None
    return valid_report(report)


def valid_report(report) -> dict | None:
    """``report`` when it decodes as an ``ExperimentReport`` (a JSON
    object of a schema this package reads), else None.

    Every tier checks a memo with this before serving or storing it, so
    an entry that is not a report reads as a corrupt one.
    """
    from repro.harness.experiments import ExperimentReport

    try:
        ExperimentReport.from_dict(report)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return report


@runtime_checkable
class ResultStore(Protocol):
    """The content-addressed result-store protocol (see module docstring).

    Implementations also expose a ``stats`` attribute — a
    :class:`StoreStats` instance counting this handle's traffic — and a
    ``locator`` string that round-trips through :func:`open_store`.
    """

    def get(self, key: str) -> SimulationOutcome | None:
        """Load the outcome stored under ``key`` (None on a miss)."""
        ...  # pragma: no cover - protocol definition

    def put(self, key: str, outcome: SimulationOutcome) -> bool:
        """Store a slim copy of ``outcome`` under ``key``.

        Conditional: the first put of a key wins and returns True; later
        puts are acknowledged-but-ignored (False) so concurrent workers
        computing the same point commit exactly once.
        """
        ...  # pragma: no cover - protocol definition

    def contains(self, key: str) -> bool:
        """Whether an entry for ``key`` exists (no payload decode)."""
        ...  # pragma: no cover - protocol definition

    def get_report(self, key: str) -> dict | None:
        """Load the report memo under ``key`` (its ``to_dict()`` form;
        None on a miss)."""
        ...  # pragma: no cover - protocol definition

    def put_report(self, key: str, report: dict) -> bool:
        """Store a report's ``to_dict()`` form under ``key`` (first writer
        wins, like :meth:`put`)."""
        ...  # pragma: no cover - protocol definition

    def claim(self, token: str, owner: str, ttl_s: float) -> bool:
        """Try to acquire the in-flight marker ``token`` for ``owner``.

        True when acquired (or already held by the same owner, renewing
        the TTL); False while another live owner holds it.  A marker
        whose TTL lapsed is taken over — a crashed holder must not block
        coalesced waiters forever.
        """
        ...  # pragma: no cover - protocol definition

    def release(self, token: str, owner: str) -> None:
        """Drop the marker ``token`` if ``owner`` still holds it."""
        ...  # pragma: no cover - protocol definition

    def stats_payload(self) -> dict:
        """The ``/store/stats``-shaped counters + size figures dict."""
        ...  # pragma: no cover - protocol definition


def open_store(locator, token: str | None = None):
    """Open the result store a locator names (None stays None).

    * ``http://`` / ``https://`` — an :class:`~repro.store.http.HTTPStore`
      client (``token`` or ``$REPRO_STORE_TOKEN`` authenticates it);
    * ``sqlite://<path>[?max_bytes=N&ttl_s=T]`` — a
      :class:`~repro.store.sqlite.SqliteStore` with that eviction policy
      (an unknown or non-numeric parameter raises ``ValueError``);
    * any other string or :class:`~pathlib.Path` — a
      :class:`~repro.store.disk.DiskStore` rooted at that directory;
    * an object already implementing the protocol passes through.
    """
    if locator is None:
        return None
    if not isinstance(locator, (str, Path)):
        if isinstance(locator, ResultStore) or (
                hasattr(locator, "get") and hasattr(locator, "put")):
            return locator
        raise TypeError(f"not a store locator or ResultStore: {locator!r}")
    text = str(locator)
    if text.startswith(("http://", "https://")):
        from repro.store.http import HTTPStore

        return HTTPStore(text, token=token)
    if text.startswith("sqlite://"):
        from repro.store.sqlite import SqliteStore

        return SqliteStore.from_locator(text)
    from repro.store.disk import DiskStore

    return DiskStore(text)


def store_locator(store) -> str | None:
    """The locator string that re-opens ``store`` (inverse of
    :func:`open_store`); None for no store."""
    return None if store is None else str(store.locator)


def process_local(store) -> bool:
    """Whether ``store`` exists only in this process (an in-memory sqlite
    database): a worker re-opening its locator would get a new, empty
    store of its own, so work on such a store must stay in-process."""
    return (store is not None
            and store_locator(store).startswith("sqlite://:memory:"))
