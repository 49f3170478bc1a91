"""Cross-session request coalescing through the result store.

Two *separate* :class:`~repro.api.session.Session` objects sharing one
store must execute an identical request exactly once: the store's claim
marker serialises them, and the follower replays the leader's outcomes
through the report memo (or, without it, as pure cell cache hits).
Byte-identity of the reports is asserted, not just equality.
"""

import json
import threading
import time

from repro.api.schema import ExperimentRequest, JobState
from repro.api.session import Session
from repro.store import SqliteStore

WORKLOADS = ["micro_addi_chain", "micro_call_spill"]

REQUEST = ExperimentRequest(experiment="fig8", suite="micro",
                            workloads=tuple(WORKLOADS))

#: fig8 over two workloads: 2 workloads x 2 machines x 2 RENO configs.
EXPECTED_CELLS = 8


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def forget_reports(store) -> None:
    """Delete the store's report memos, keeping every cell outcome."""
    with store._lock:
        store._db.execute("DELETE FROM blobs WHERE key LIKE 'report/%'")
        store._db.commit()


def test_two_sessions_coalesce_to_one_simulation(tmp_path):
    # Each session gets its own SqliteStore *instance* (own connection,
    # own counters) over one shared database file — the same sharing
    # shape as two processes pointing at one ``sqlite://`` locator.
    stores = [SqliteStore(tmp_path / "store.sqlite3") for _ in range(2)]
    sessions = [Session(jobs=1, cache=store) for store in stores]
    reports: dict[int, object] = {}

    def run(index: int) -> None:
        reports[index] = sessions[index].run(REQUEST)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    for session in sessions:
        session.close()

    assert set(reports) == {0, 1}
    assert report_json(reports[0]) == report_json(reports[1])

    # Exactly one simulation: every cell stored once across both
    # sessions, and no duplicate put ever raced in behind the winner's.
    # Every cell plus the one report memo.
    assert len(stores[0]) == EXPECTED_CELLS + 1
    assert sum(s.stats.stores for s in stores) == EXPECTED_CELLS
    assert sum(s.stats.duplicate_puts for s in stores) == 0
    # The claim marker did its job: somebody waited (or the runs were
    # perfectly disjoint in time — either way, both released cleanly).
    assert stores[0].holder(f"request/{REQUEST.digest()}") is None
    for store in stores:
        store.close()


def test_follower_blocks_until_the_claim_releases(tmp_path):
    """Deterministic claim choreography: the test plays the leader."""
    store = SqliteStore(tmp_path / "store.sqlite3")
    session = Session(jobs=1, cache=store)
    marker = f"request/{REQUEST.digest()}"
    assert store.claim(marker, "leader", ttl_s=60.0) is True

    finished = threading.Event()
    result: list[object] = []

    def follower() -> None:
        result.append(session.run(REQUEST))
        finished.set()

    thread = threading.Thread(target=follower, daemon=True)
    thread.start()
    assert not finished.wait(0.5)            # parked behind the claim
    store.release(marker, "leader")
    assert finished.wait(120)                # released: runs to completion
    thread.join(timeout=10)
    assert result and result[0].rows
    session.close()
    store.close()


def test_cancel_while_waiting_on_a_foreign_claim(tmp_path):
    store = SqliteStore(tmp_path / "store.sqlite3")
    session = Session(jobs=1, cache=store)
    marker = f"request/{REQUEST.digest()}"
    assert store.claim(marker, "leader", ttl_s=60.0) is True

    job = session.submit(REQUEST)
    time.sleep(0.3)                           # let the worker park
    assert job.cancel() is True
    assert job.wait(30)
    assert job.status().state == JobState.CANCELLED
    # The follower never claimed, so the leader's marker is untouched.
    assert store.holder(marker) == "leader"
    session.close()
    store.close()


def run_cold(tmp_path):
    """One cold run through its own session; returns its report."""
    store = SqliteStore(tmp_path / "store.sqlite3")
    with Session(jobs=1, cache=store) as session:
        cold = session.run(REQUEST)
    assert store.stats.stores == EXPECTED_CELLS
    assert store.stats.report_misses == 2    # before the claim, and in run
    store.close()
    return cold


def test_second_session_is_one_report_memo_hit(tmp_path):
    cold = run_cold(tmp_path)
    second_store = SqliteStore(tmp_path / "store.sqlite3")
    second = Session(jobs=1, cache=second_store)
    warm = second.run(REQUEST)
    assert report_json(cold) == report_json(warm)
    assert second_store.stats.report_hits == 1
    assert second_store.stats.stores == 0     # zero new simulations
    assert second_store.stats.hits == 0       # and no cell read at all
    assert second_store.stats.claims == 0     # a hit writes no marker
    second.close()
    second_store.close()


def test_second_session_is_pure_cache_hits(tmp_path):
    cold = run_cold(tmp_path)
    second_store = SqliteStore(tmp_path / "store.sqlite3")
    forget_reports(second_store)
    second = Session(jobs=1, cache=second_store)
    warm = second.run(REQUEST)
    assert report_json(cold) == report_json(warm)
    assert second_store.stats.stores == 0     # zero new simulations
    assert second_store.stats.hits == EXPECTED_CELLS
    second.close()
    second_store.close()
