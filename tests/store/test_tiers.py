"""Protocol tests across all three result-store tiers.

One behavioural suite — payload round-trip, conditional (exactly-once)
puts, corrupt-entry handling, claims, stats — run against
the disk, sqlite and HTTP tiers so the tiers cannot drift apart.  The
HTTP tier runs against a real in-thread ``StoreServer``.
"""

import logging
import threading

import pytest

from repro.core.simulator import simulate_workload
from repro.store import (
    STORE_SCHEMA_VERSION,
    DiskStore,
    HTTPStore,
    SqliteStore,
    encode_payload,
    make_store_server,
    open_store,
    store_locator,
)

KEY = "ab" * 32
OTHER_KEY = "cd" * 32


@pytest.fixture(scope="module")
def outcome():
    """One real simulation outcome shared by every round-trip test."""
    return simulate_workload("micro_addi_chain", max_instructions=2000)


@pytest.fixture(params=["disk", "sqlite", "http"])
def store(request, tmp_path):
    """Each tier behind the one ResultStore protocol."""
    if request.param == "disk":
        yield DiskStore(tmp_path / "cache")
        return
    if request.param == "sqlite":
        tier = SqliteStore(tmp_path / "store.sqlite3")
        yield tier
        tier.close()
        return
    backing = SqliteStore(":memory:")
    server = make_store_server(backing=backing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield HTTPStore(server.url)
    finally:
        server.shutdown()
        server.server_close()
        backing.close()


def test_round_trip_and_contains(store, outcome):
    assert store.get(KEY) is None
    assert not store.contains(KEY)
    assert store.put(KEY, outcome) is True
    assert store.contains(KEY)
    loaded = store.get(KEY)
    assert loaded is not None
    assert loaded.cached is True
    assert loaded.timing.stats == outcome.timing.stats
    assert loaded.timing.final_registers == outcome.timing.final_registers
    assert loaded.cycles == outcome.cycles


def test_put_is_conditional_first_writer_wins(store, outcome):
    assert store.put(KEY, outcome) is True
    assert store.put(KEY, outcome) is False
    assert store.stats.stores == 1
    assert store.stats.duplicate_puts == 1
    assert store.put(OTHER_KEY, outcome) is True
    assert store.stats.stores == 2


def test_claim_conflict_renewal_and_release(store):
    assert store.claim("request/abc", "alice", 60.0) is True
    # Renewal by the same owner is a grant; another owner conflicts.
    assert store.claim("request/abc", "alice", 60.0) is True
    assert store.claim("request/abc", "bob", 60.0) is False
    store.release("request/abc", "bob")        # not the owner: no-op
    assert store.claim("request/abc", "bob", 60.0) is False
    store.release("request/abc", "alice")
    assert store.claim("request/abc", "bob", 60.0) is True


def test_stats_payload_shape(store, outcome):
    store.put(KEY, outcome)
    store.get(KEY)
    store.get(OTHER_KEY)
    payload = store.stats_payload()
    assert payload["schema_version"] == STORE_SCHEMA_VERSION
    for counter in ("hits", "misses", "stores", "evictions",
                    "duplicate_puts", "claims", "claim_conflicts"):
        assert counter in payload
    assert payload["entries"] == 1
    assert payload["bytes"] > 0
    assert payload["hits"] >= 1
    assert payload["misses"] >= 1


def test_open_store_round_trips_locator(store):
    locator = store_locator(store)
    reopened = open_store(locator)
    assert store_locator(reopened) == locator
    assert type(reopened) is type(store)


# ---------------------------------------------------------------------------
# Corrupt payloads read as misses and are deleted (satellite: corruption)
# ---------------------------------------------------------------------------


def _overwrite_payload(store, key, blob) -> None:
    """Replace the stored bytes of ``key`` behind the store's back."""
    with store._lock:
        store._db.execute("UPDATE blobs SET payload = ? WHERE key = ?",
                          (blob, key))
        store._db.commit()


def test_disk_corrupt_payload_is_miss_deleted_and_logged(tmp_path, outcome,
                                                         caplog):
    store = DiskStore(tmp_path / "cache")
    store.put(KEY, outcome)
    _overwrite_payload(store, KEY, b"\x80garbage not a pickle")
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert store.get(KEY) is None
    assert not store.contains(KEY)            # deleted, not left to rot
    assert store.stats.misses == 1
    assert any("corrupt" in record.message.lower()
               for record in caplog.records)
    # A truncated (partially written) payload behaves the same way.
    store.put(KEY, outcome)
    blob = encode_payload(outcome)
    _overwrite_payload(store, KEY, blob[:len(blob) // 2])
    assert store.get(KEY) is None
    assert not store.contains(KEY)
    # The slot is reusable after deletion.
    assert store.put(KEY, outcome) is True
    assert store.get(KEY) is not None


def test_sqlite_corrupt_payload_is_miss_and_deleted(tmp_path, outcome):
    store = SqliteStore(tmp_path / "store.sqlite3")
    store.put(KEY, outcome)
    _overwrite_payload(store, KEY, b"\x80garbage")
    assert store.get(KEY) is None
    assert len(store) == 0
    assert store.put(KEY, outcome) is True
    store.close()


# ---------------------------------------------------------------------------
# The disk tier: one database under a root directory
# ---------------------------------------------------------------------------


def test_disk_store_is_a_database_under_its_root(tmp_path, outcome):
    store = DiskStore(tmp_path / "cache")
    assert store.locator == str(tmp_path / "cache")
    assert store.path == tmp_path / "cache" / "store.sqlite3"
    store.put(KEY, outcome)
    store.close()
    # Any SqliteStore opening that file sees the same entries.
    shared = SqliteStore(tmp_path / "cache" / "store.sqlite3")
    assert shared.get(KEY) is not None
    shared.close()


def test_database_with_an_orphan_meta_table_still_works(tmp_path, outcome):
    """Older stores also created a ``meta`` table; nothing reads it now."""
    path = tmp_path / "cache" / "store.sqlite3"
    store = DiskStore(tmp_path / "cache")
    store.put(KEY, outcome)
    store._db.executescript(
        "CREATE TABLE meta (name TEXT PRIMARY KEY, payload TEXT NOT NULL);"
        "INSERT INTO meta VALUES ('costs', '{\"a\": 1.0}');")
    store.close()
    for reopened, stored in ((DiskStore(tmp_path / "cache"), True),
                             (SqliteStore(path), False)):
        assert reopened.get(KEY) is not None
        assert reopened.put(OTHER_KEY, outcome) is stored
        assert reopened.stats_payload()["entries"] == 2
        assert reopened._db.execute(
            "SELECT name, payload FROM meta").fetchall() == [
                ("costs", '{"a": 1.0}')]
        reopened.close()


def test_disk_unwritable_root_warns_once_and_runs_uncached(tmp_path):
    """Tests run as root, so an unwritable root is one under a file."""
    from repro.harness import run_experiment

    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    workloads = ["micro_addi_chain", "micro_call_spill"]
    with pytest.warns(RuntimeWarning) as caught:
        report = run_experiment("fig8", suite="micro", workloads=workloads,
                                jobs=2, cache=str(blocker / "cache"))
    warned = [w for w in caught if w.category is RuntimeWarning]
    assert len(warned) == 1 and "not writable" in str(warned[0].message)
    uncached = run_experiment("fig8", suite="micro", workloads=workloads,
                              jobs=1, cache=False)
    assert report.rows == uncached.rows
    assert blocker.read_text() == "not a directory"
