"""The sqlite result-store tier: one shared file, LRU/TTL/size-capped.

A :class:`SqliteStore` keeps payloads and claim markers in a single
sqlite database, giving many processes on one machine (or a ``python -m
repro store-serve`` front-end serving many hosts) a shared tier with
real eviction policy:

* **LRU size cap** — ``max_bytes`` bounds the total payload size; every
  put evicts least-recently-*accessed* entries until the new entry fits.
* **TTL** — ``ttl_s`` expires entries that have not been touched for that
  long; expired entries read as misses and are deleted on sight.
  A hit records its access time only under one of these two policies,
  their only reader, so an unbounded store's reads never write.
* **exactly-once puts** — ``INSERT OR IGNORE`` makes the first writer
  win; later puts of the same key are counted as duplicates and change
  nothing.

Report memos (:meth:`SqliteStore.put_report`) live in the same ``blobs``
table under ``report/<key>``, so the size cap, LRU order and TTL cover
them exactly as they cover cell outcomes.

All statements run under one connection guarded by a lock (the store is
shared across the server's handler threads), with sqlite's own file
locking covering multi-process access to the same database file.
"""

from __future__ import annotations

import logging
import sqlite3
import threading
import time
from pathlib import Path

from repro.core.simulator import SimulationOutcome
from repro.store.base import (
    REPORT_PREFIX,
    StoreStats,
    decode_payload,
    decode_report,
    encode_payload,
    encode_report,
)
from repro.store.schema import STORE_SCHEMA_VERSION

logger = logging.getLogger("repro.store")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blobs (
    key TEXT PRIMARY KEY,
    payload BLOB NOT NULL,
    nbytes INTEGER NOT NULL,
    created REAL NOT NULL,
    last_access REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS markers (
    token TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    deadline REAL NOT NULL
);
"""

#: The eviction-policy arguments a ``sqlite://`` locator carries, with their
#: parsers, so pool and fleet workers re-open a store with the same cap and
#: TTL as the store they were handed.
_LOCATOR_POLICY = {"max_bytes": int, "ttl_s": float}


class SqliteStore:
    """A single-file shared result store with LRU eviction and TTL.

    Args:
        path: Database file (created on first use; parent directories
            too).  ``":memory:"`` keeps everything in this process, so
            runs on it stay in-process too
            (:func:`~repro.store.base.process_local`).
        max_bytes: Total payload-size cap; None disables the size cap.
        ttl_s: Idle-entry time-to-live in seconds; None disables expiry.
        clock: Wall-clock source (tests inject a fake to exercise TTL
            and LRU order without sleeping).
    """

    def __init__(self, path: str | Path, *,
                 max_bytes: int | None = None,
                 ttl_s: float | None = None,
                 clock=time.time):
        """Open (creating if needed) the database at ``path``."""
        self.path = Path(path) if str(path) != ":memory:" else path
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self.stats = StoreStats()
        self._clock = clock
        self._lock = threading.Lock()
        if isinstance(self.path, Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(self.path), check_same_thread=False,
                                   timeout=30.0)
        with self._lock:
            self._db.executescript(_SCHEMA)
            self._db.commit()

    @property
    def locator(self) -> str:
        """The ``sqlite://<path>`` locator that re-opens this store, with
        its size cap and TTL as ``?max_bytes=N&ttl_s=T`` when set."""
        query = "&".join(f"{name}={getattr(self, name)}"
                         for name in _LOCATOR_POLICY
                         if getattr(self, name) is not None)
        return f"sqlite://{self.path}" + (f"?{query}" if query else "")

    @classmethod
    def from_locator(cls, locator: str) -> "SqliteStore":
        """Open the store a :attr:`locator` string names.

        Raises:
            ValueError: The query string has a parameter other than
                ``max_bytes``/``ttl_s``, or a value that is not a number.
        """
        path, _, query = locator[len("sqlite://"):].partition("?")
        policy = {}
        for item in filter(None, query.split("&")):
            name, _, value = item.partition("=")
            if name not in _LOCATOR_POLICY:
                raise ValueError(
                    f"unknown sqlite locator parameter {name!r}; expected "
                    f"one of {', '.join(_LOCATOR_POLICY)}")
            try:
                policy[name] = _LOCATOR_POLICY[name](value)
            except ValueError:
                raise ValueError(f"sqlite locator parameter {name}={value!r} "
                                 f"is not a number") from None
        return cls(path, **policy)

    def close(self) -> None:
        """Close the underlying database connection."""
        with self._lock:
            self._db.close()

    # ------------------------------------------------------------------
    # Content-addressed payloads
    # ------------------------------------------------------------------

    def _expired(self, last_access: float) -> bool:
        return (self.ttl_s is not None
                and self._clock() - last_access > self.ttl_s)

    def get(self, key: str) -> SimulationOutcome | None:
        """Load a stored outcome (None on a miss, an expired entry, or a
        corrupt payload — corrupt and expired entries are deleted, a
        corrupt one with a warning on the ``repro.store`` logger)."""
        with self._lock:
            outcome = self._read_locked(key, decode_payload)
            if outcome is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return outcome

    def get_report(self, key: str) -> dict | None:
        """Load the report memo under ``key`` (None on a miss; expired and
        corrupt entries are deleted exactly as :meth:`get` deletes them)."""
        with self._lock:
            report = self._read_locked(REPORT_PREFIX + key, decode_report)
            if report is None:
                self.stats.report_misses += 1
            else:
                self.stats.report_hits += 1
            return report

    def _read_locked(self, key: str, decode):
        """The decoded live entry under ``key``, or None (caller holds the
        lock); deletes an expired or undecodable entry."""
        row = self._db.execute(
            "SELECT payload, last_access FROM blobs WHERE key = ?",
            (key,)).fetchone()
        if row is None:
            return None
        blob, last_access = row
        if self._expired(last_access):
            self._db.execute("DELETE FROM blobs WHERE key = ?", (key,))
            self._db.commit()
            self.stats.evictions += 1
            return None
        value = decode(blob)
        if value is None:
            self._db.execute("DELETE FROM blobs WHERE key = ?", (key,))
            self._db.commit()
            logger.warning(
                "store entry %s in %s is corrupt or from another cache "
                "format; deleted (will be recomputed)", key[:19], self.path)
            return None
        if self.max_bytes is not None or self.ttl_s is not None:
            self._db.execute(
                "UPDATE blobs SET last_access = ? WHERE key = ?",
                (self._clock(), key))
            self._db.commit()
        return value

    def put(self, key: str, outcome: SimulationOutcome) -> bool:
        """Store a slim copy of ``outcome`` (first writer wins).

        Evicts least-recently-accessed entries as needed to respect
        ``max_bytes``; an entry larger than the whole cap is refused.
        """
        blob = encode_payload(outcome)
        with self._lock:
            stored = self._insert_locked(key, blob)
            if stored:
                self.stats.stores += 1
            elif stored is not None:
                self.stats.duplicate_puts += 1
            return bool(stored)

    def put_report(self, key: str, report: dict) -> bool:
        """Store a report memo (first writer wins; the same size cap and
        LRU eviction as :meth:`put`)."""
        blob = encode_report(report)
        with self._lock:
            return bool(self._insert_locked(REPORT_PREFIX + key, blob))

    def _insert_locked(self, key: str, blob: bytes) -> bool | None:
        """Insert ``blob`` unless ``key`` exists (caller holds the lock).

        True when stored, False for a duplicate, None when the blob is
        larger than the whole size cap (refused, nothing evicted).
        """
        now = self._clock()
        if self.max_bytes is not None:
            if len(blob) > self.max_bytes:
                return None
            if not self._live_locked(key):   # a duplicate evicts nothing
                self._evict_locked(need=len(blob))
        cursor = self._db.execute(
            "INSERT OR IGNORE INTO blobs "
            "(key, payload, nbytes, created, last_access) "
            "VALUES (?, ?, ?, ?, ?)",
            (key, blob, len(blob), now, now))
        self._db.commit()
        return cursor.rowcount > 0

    def _evict_locked(self, need: int) -> None:
        """Delete expired + LRU entries until ``need`` more bytes fit."""
        if self.ttl_s is not None:
            cutoff = self._clock() - self.ttl_s
            cursor = self._db.execute(
                "DELETE FROM blobs WHERE last_access < ?", (cutoff,))
            self.stats.evictions += cursor.rowcount
        while True:
            total = self._db.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM blobs").fetchone()[0]
            if total + need <= self.max_bytes:
                break
            victim = self._db.execute(
                "SELECT key FROM blobs ORDER BY last_access ASC, key ASC "
                "LIMIT 1").fetchone()
            if victim is None:
                break
            self._db.execute("DELETE FROM blobs WHERE key = ?", victim)
            self.stats.evictions += 1
        self._db.commit()

    def _live_locked(self, key: str) -> bool:
        row = self._db.execute(
            "SELECT last_access FROM blobs WHERE key = ?", (key,)).fetchone()
        return row is not None and not self._expired(row[0])

    def contains(self, key: str) -> bool:
        """Whether a live (non-expired) entry for ``key`` exists."""
        with self._lock:
            return self._live_locked(key)

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------

    def claim(self, token: str, owner: str, ttl_s: float) -> bool:
        """Try to acquire marker ``token`` for ``owner`` (see protocol)."""
        now = self._clock()
        with self._lock:
            self._db.execute("DELETE FROM markers WHERE deadline <= ?",
                             (now,))
            cursor = self._db.execute(
                "INSERT OR IGNORE INTO markers (token, owner, deadline) "
                "VALUES (?, ?, ?)", (token, owner, now + ttl_s))
            if cursor.rowcount:
                self._db.commit()
                self.stats.claims += 1
                return True
            row = self._db.execute(
                "SELECT owner FROM markers WHERE token = ?",
                (token,)).fetchone()
            if row is not None and row[0] == owner:
                self._db.execute(
                    "UPDATE markers SET deadline = ? WHERE token = ?",
                    (now + ttl_s, token))
                self._db.commit()
                self.stats.claims += 1
                return True
            self._db.commit()
            self.stats.claim_conflicts += 1
            return False

    def release(self, token: str, owner: str) -> None:
        """Drop marker ``token`` if ``owner`` still holds it."""
        with self._lock:
            self._db.execute(
                "DELETE FROM markers WHERE token = ? AND owner = ?",
                (token, owner))
            self._db.commit()

    def holder(self, token: str) -> str | None:
        """The live owner of marker ``token`` (None when unclaimed)."""
        with self._lock:
            row = self._db.execute(
                "SELECT owner, deadline FROM markers WHERE token = ?",
                (token,)).fetchone()
            if row is None or row[1] <= self._clock():
                return None
            return row[0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM blobs").fetchone()[0]

    def size_bytes(self) -> int:
        """Total payload bytes currently stored."""
        with self._lock:
            return self._db.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM blobs").fetchone()[0]

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        with self._lock:
            cursor = self._db.execute("DELETE FROM blobs")
            self._db.commit()
            return cursor.rowcount

    def stats_payload(self) -> dict:
        """The ``/store/stats``-shaped dict for this store."""
        counters = self.stats()
        return {"schema_version": STORE_SCHEMA_VERSION, **counters,
                "entries": len(self), "bytes": self.size_bytes()}
