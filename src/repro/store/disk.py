"""The local-disk result-store tier (the historical outcome cache).

A :class:`DiskStore` is a directory of pickled slim simulation outcomes,
addressed by key with a two-level fan-out (``root/ab/abcd....pkl``, like
git).  It is the tier behind ``$REPRO_CACHE_DIR``.

The cooperative facilities map onto files:

* **claims** are ``root/inflight/<token>.json`` markers created with
  ``O_CREAT | O_EXCL`` (atomic on every filesystem that matters) holding
  the owner id and a wall-clock deadline; expired markers are replaced
  under a :func:`file_lock` so two waiters never both "take over";
* **meta documents** are ``root/<name>.json`` files merged under the same
  lock.

Every failure path degrades instead of raising: an unreadable entry is a
miss (and is deleted — a corrupt payload must cost one recomputation, not
every future run), an unwritable directory warns once and drops
persistence, an unavailable ``fcntl`` skips locking.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
import time
import warnings
from pathlib import Path

from repro.core.simulator import SimulationOutcome
from repro.store.base import StoreStats, decode_payload, encode_payload
from repro.store.schema import STORE_SCHEMA_VERSION

logger = logging.getLogger("repro.store")

#: Environment variable overriding the default store root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback store root when the environment variable is unset.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-reno"

#: Subdirectory of the store root holding claim marker files.
INFLIGHT_DIR = "inflight"


def default_cache_root() -> Path:
    """The active store root: ``$REPRO_CACHE_DIR`` or the home-dir default."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else DEFAULT_CACHE_DIR


try:
    import fcntl as _fcntl
except ImportError:                   # pragma: no cover - non-POSIX platform
    _fcntl = None


@contextlib.contextmanager
def file_lock(path: str | Path, timeout: float = 10.0):
    """Cross-process mutual exclusion for updates of ``path``.

    Guards read-modify-write updates of shared files (meta documents,
    expired claim markers) against concurrent processes sharing one store
    root.  The lock is an ``fcntl.flock`` on a sibling ``<path>.lock``
    file: kernel advisory locks are released automatically when the
    holder exits (cleanly or not), so there is no stale-lock state to
    detect or break — the classic ``O_EXCL``-file failure mode (two
    waiters racing to break a dead holder's file and both "acquiring") is
    structurally impossible.  The empty ``.lock`` file itself is left in
    place; it carries no state.

    If the lock cannot be acquired within ``timeout`` seconds — or the
    platform has no ``fcntl`` — the caller proceeds *unlocked*, consistent
    with the store's best-effort degradation: a lost meta entry can cost
    wall-clock time, never correctness.

    Yields True when the lock was actually held, False on the degraded
    path.
    """
    lock_path = Path(str(path) + ".lock")
    if _fcntl is None:                # pragma: no cover - non-POSIX platform
        yield False
        return
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        descriptor = os.open(str(lock_path), os.O_CREAT | os.O_WRONLY)
    except OSError:
        # Unwritable directory: same degradation as a store failure.
        yield False
        return
    deadline = time.monotonic() + timeout
    locked = False
    try:
        while True:
            try:
                _fcntl.flock(descriptor, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
                locked = True
                break
            except OSError:
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
        yield locked
    finally:
        if locked:
            try:
                _fcntl.flock(descriptor, _fcntl.LOCK_UN)
            except OSError:
                pass
        os.close(descriptor)


class DiskStore:
    """A directory of pickled slim simulation outcomes, addressed by key."""

    def __init__(self, root: str | Path | None = None):
        """Create a store rooted at ``root`` (default: the env-driven root)."""
        self.root = Path(root) if root is not None else default_cache_root()
        self.stats = StoreStats()
        self._store_failure_warned = False

    @property
    def locator(self) -> str:
        """The locator that re-opens this store (its root path)."""
        return str(self.root)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level fan-out, like git)."""
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Content-addressed payloads
    # ------------------------------------------------------------------

    def get(self, key: str) -> SimulationOutcome | None:
        """Load a stored outcome, or None on a miss (or an unreadable entry).

        A corrupt or truncated payload file counts as a miss *and is
        deleted* (with a log line): leaving it in place would re-pay the
        failed decode on every future run, and a torn entry can never
        become readable again.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        outcome = decode_payload(blob)
        if outcome is None:
            self.stats.misses += 1
            try:
                path.unlink()
                logger.warning(
                    "store entry %s at %s is corrupt or from another cache "
                    "format; deleted (will be recomputed)", key[:12], path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return outcome

    def put(self, key: str, outcome: SimulationOutcome) -> bool:
        """Store a slim copy of ``outcome`` under ``key`` (atomic write).

        Conditional: when an entry already exists the put is acknowledged
        but changes nothing (first writer wins — the exactly-once
        contract); a fresh entry lands via temp-file + rename so
        concurrent workers computing the same point never see a torn
        payload.  Store failures (unwritable or uncreatable directory)
        degrade to a one-time warning rather than an exception: the
        outcome was already computed, and losing persistence must not
        lose the experiment.
        """
        path = self.path_for(key)
        if path.exists():
            self.stats.duplicate_puts += 1
            return False
        temp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(dir=path.parent,
                                                     suffix=".tmp")
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(encode_payload(outcome))
            os.replace(temp_name, path)
        except OSError as error:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            if not self._store_failure_warned:
                self._store_failure_warned = True
                warnings.warn(
                    f"simulation cache at {self.root} is not writable "
                    f"({error}); results will not be cached",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return False
        self.stats.stores += 1
        return True

    def contains(self, key: str) -> bool:
        """Whether an entry file for ``key`` exists (no decode)."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Claims (cross-process in-flight markers)
    # ------------------------------------------------------------------

    def _marker_path(self, token: str) -> Path:
        safe = token.replace("/", "_").replace(os.sep, "_")
        return self.root / INFLIGHT_DIR / f"{safe}.json"

    def claim(self, token: str, owner: str, ttl_s: float) -> bool:
        """Try to acquire marker ``token`` for ``owner`` (see protocol).

        The marker file is created ``O_CREAT | O_EXCL`` — atomic, so two
        claimants cannot both win.  An existing marker grants only to its
        own owner (TTL renewal) or, past its wall-clock deadline, to the
        first claimant that replaces it under the file lock.
        """
        path = self._marker_path(token)
        record = {"token": token, "owner": owner,
                  "deadline": time.time() + ttl_s}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor = os.open(str(path),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self._contend_claim(path, record)
        except OSError:
            # Unwritable store: behave as if claims are unsupported — the
            # caller simply runs without cross-process coalescing.
            return True
        with os.fdopen(descriptor, "w") as handle:
            json.dump(record, handle)
        self.stats.claims += 1
        return True

    def _contend_claim(self, path: Path, record: dict) -> bool:
        """Resolve a claim against an existing marker file."""
        try:
            holder = json.loads(path.read_text())
        except (OSError, ValueError):
            holder = None
        if holder is not None and holder.get("owner") == record["owner"]:
            with file_lock(path):
                try:
                    path.write_text(json.dumps(record))
                except OSError:
                    pass
            self.stats.claims += 1
            return True
        expired = (holder is None
                   or float(holder.get("deadline", 0.0)) <= time.time())
        if not expired:
            self.stats.claim_conflicts += 1
            return False
        with file_lock(path):
            # Re-read under the lock: another waiter may have taken over
            # between our check and the lock acquisition.
            try:
                holder = json.loads(path.read_text())
            except (OSError, ValueError):
                holder = None
            if (holder is not None
                    and holder.get("owner") != record["owner"]
                    and float(holder.get("deadline", 0.0)) > time.time()):
                self.stats.claim_conflicts += 1
                return False
            try:
                path.write_text(json.dumps(record))
            except OSError:
                return True           # degraded: proceed unclaimed
        self.stats.claims += 1
        return True

    def release(self, token: str, owner: str) -> None:
        """Drop marker ``token`` if ``owner`` still holds it."""
        path = self._marker_path(token)
        try:
            holder = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        if holder.get("owner") != owner:
            return
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Meta documents (shared JSON maps)
    # ------------------------------------------------------------------

    def _meta_path(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def get_meta(self, name: str) -> dict:
        """Read document ``name`` (empty on a missing or unreadable file)."""
        try:
            payload = json.loads(self._meta_path(name).read_text())
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def merge_meta(self, name: str, entries: dict) -> dict:
        """Merge ``entries`` into document ``name`` (atomic, best-effort).

        The read-modify-write cycle runs under :func:`file_lock` so
        parallel processes sharing one store root never lose each other's
        entries; the write itself is a temp-file + rename so readers
        never see a torn file.
        """
        path = self._meta_path(name)
        with file_lock(path):
            merged = self.get_meta(name)
            merged.update(entries)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                descriptor, temp_name = tempfile.mkstemp(
                    dir=path.parent, suffix=".tmp")
                with os.fdopen(descriptor, "w") as handle:
                    json.dump(merged, handle, indent=0, sort_keys=True)
                os.replace(temp_name, path)
            except OSError:
                pass
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def entries(self) -> list[Path]:
        """All entry files currently in the store."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def __len__(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        """Total on-disk size of all entries."""
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats_payload(self) -> dict:
        """The ``/store/stats``-shaped dict for this store."""
        counters = self.stats()
        return {"schema_version": STORE_SCHEMA_VERSION, **counters,
                "entries": len(self), "bytes": self.size_bytes()}
