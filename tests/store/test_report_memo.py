"""The report memo: a repeated request is one store read.

With a result store active, :meth:`repro.harness.spec.Experiment.run`
keeps each finished report under :func:`repro.harness.spec.report_key`
and answers a repeat from it.  These tests hold the memo to the computed
report on every registered experiment, and check what invalidates it
(a source edit, a corrupt entry, TTL and the size cap), which requests
have none, the HTTP tier's routes and their auth, and that a warm
session hit runs nothing and writes nothing.
"""

import json
import multiprocessing.context
import os
import threading

import pytest

import repro
from repro.api.schema import ExperimentRequest, JobState
from repro.api.session import Session
from repro.harness import run_experiment
from repro.harness import spec as spec_module
from repro.harness.spec import list_experiments, report_key, source_digest
from repro.store import (
    TOKEN_ENV,
    DiskStore,
    HTTPStore,
    SqliteStore,
    StoreAuthError,
    StoreError,
    make_store_server,
)
from repro.store.base import REPORT_PREFIX
from repro.workloads.base import get_workload

WORKLOADS = ["micro_addi_chain", "micro_call_spill"]

#: fig8 over :data:`WORKLOADS`: 2 workloads x 2 machines x 2 RENO configs.
FIG8_CELLS = 8

REPORT = {"schema_version": 2, "name": "t", "description": "d",
          "experiment": "fig8", "headers": ["a"], "rows": [["1"]],
          "data": [["x", {"y": 0.5}]], "spec": None, "occupancy": None}
OTHER = dict(REPORT, name="other")

#: Memo bodies that are not a report: not JSON, not an object, an object
#: missing every field, a schema newer than this package reads.
CORRUPT = (b"\xff not json", b"[1, 2]", b"{}",
           json.dumps(dict(REPORT, schema_version=99)).encode())


def memo_keys(store) -> list[str]:
    with store._lock:
        rows = store._db.execute(
            "SELECT key FROM blobs WHERE key LIKE 'report/%'").fetchall()
    return [key for (key,) in rows]


def fig8(store, **kwargs):
    return run_experiment("fig8", suite="micro", workloads=WORKLOADS,
                          jobs=1, cache=store, **kwargs)


@pytest.mark.parametrize("name", [entry.name for entry in list_experiments()])
def test_a_memo_hit_is_the_computed_report(name):
    store = SqliteStore(":memory:")
    params = {"scales": [1, 2]} if name == "scale_sweep" else {}
    cold = run_experiment(name, suite="micro", jobs=1, cache=store, **params)
    assert store.stats.report_misses == 1 and len(memo_keys(store)) == 1
    stores = store.stats.stores
    warm = run_experiment(name, suite="micro", jobs=1, cache=store, **params)
    assert store.stats.report_hits == 1
    assert store.stats.stores == stores       # nothing recomputed
    assert warm.to_json() == cold.to_json()
    assert warm.experiment == name and warm.spec == cold.spec


def test_a_hit_reads_no_cell_and_runs_no_reducer():
    store = SqliteStore(":memory:")
    cold = fig8(store)
    entry = spec_module.get_experiment("fig8")
    saved = entry.build_spec, entry.reduce

    def refuse(*args, **kwargs):
        raise AssertionError("a memo hit built or reduced something")

    # The registry's entries are frozen dataclasses.
    object.__setattr__(entry, "build_spec", refuse)
    object.__setattr__(entry, "reduce", refuse)
    try:
        warm = fig8(store)
    finally:
        object.__setattr__(entry, "build_spec", saved[0])
        object.__setattr__(entry, "reduce", saved[1])
    assert warm.to_json() == cold.to_json()
    assert store.stats.hits == 0


def test_a_changed_source_digest_misses(monkeypatch):
    store = SqliteStore(":memory:")
    cold = fig8(store)
    monkeypatch.setattr(spec_module, "source_digest", lambda: "edited")
    again = fig8(store)
    assert store.stats.report_misses == 2
    assert store.stats.hits == FIG8_CELLS     # recomputed from cell hits
    assert again.to_json() == cold.to_json()
    assert len(memo_keys(store)) == 2


def test_the_source_digest_covers_every_package_file():
    digest = source_digest()
    assert digest is not None and len(digest) == 64
    assert source_digest() is digest          # computed once per process
    key = report_key(SqliteStore(":memory:"), "fig8", "micro", WORKLOADS, 1, {})
    assert key is not None
    root = spec_module.Path(spec_module.__file__).resolve().parent.parent
    names = {path.relative_to(root).as_posix() for path in root.rglob("*.py")}
    assert {"harness/experiments.py", "uarch/core.py",
            "workloads/specint.py"} <= names


@pytest.fixture
def fresh_digest():
    """The source digest computed anew in the test, and again after it."""
    spec_module.source_digest.cache_clear()
    yield
    spec_module.source_digest.cache_clear()


def test_sources_edited_after_load_turn_the_memo_off(tmp_path, monkeypatch,
                                                     fresh_digest, caplog):
    # A package whose one file was written before this process loaded
    # repro has a digest; touched afterwards, as when a long-lived
    # server's sources are edited before its first request, it has none.
    source = tmp_path / "reducer.py"
    source.write_text("VERSION = 1\n")
    before_load = repro.LOADED_AT_NS - 1_000_000_000
    os.utime(source, ns=(before_load, before_load))
    monkeypatch.setattr(spec_module, "PACKAGE_ROOT", tmp_path)
    assert source_digest() is not None
    spec_module.source_digest.cache_clear()
    source.write_text("VERSION = 2\n")
    assert source_digest() is None
    assert "reducer.py changed after this process loaded" in caplog.text
    store = SqliteStore(":memory:")
    cold = fig8(store)
    warm = fig8(store)
    assert memo_keys(store) == []
    assert store.stats.report_hits == store.stats.report_misses == 0
    assert store.stats.hits == FIG8_CELLS     # the repeat read its cells
    assert warm.to_json() == cold.to_json()


def test_the_key_follows_the_request():
    store = SqliteStore(":memory:")
    base = report_key(store, "fig8", "micro", WORKLOADS, 1, {})
    assert base == report_key(store, "fig8", "micro", tuple(WORKLOADS), 1, {})
    for other in (report_key(store, "fig10", "micro", WORKLOADS, 1, {}),
                  report_key(store, "fig8", "specint", WORKLOADS, 1, {}),
                  report_key(store, "fig8", "micro", WORKLOADS[:1], 1, {}),
                  report_key(store, "fig8", "micro", None, 1, {}),
                  report_key(store, "fig8", "micro", WORKLOADS, 2, {}),
                  report_key(store, "fig8", "micro", WORKLOADS, 1, {"a": 1})):
        assert other not in (None, base)


def test_requests_without_a_memo_are_computed(monkeypatch):
    store = SqliteStore(":memory:")
    adhoc = get_workload("micro_addi_chain")
    assert report_key(store, "fig8", "micro", [adhoc], 1, {}) is None
    assert report_key(store, "fig8", "micro", None, 1, {"x": object()}) is None
    assert report_key(None, "fig8", "micro", None, 1, {}) is None
    monkeypatch.setattr(spec_module, "source_digest", lambda: None)
    assert report_key(store, "fig8", "micro", None, 1, {}) is None
    run_experiment("fig8", suite="micro", workloads=[adhoc], jobs=1,
                   cache=store)
    assert memo_keys(store) == []
    assert store.stats.report_hits == store.stats.report_misses == 0


def test_runs_without_a_store_never_compute_the_digest(monkeypatch):
    def refuse():
        raise AssertionError("source digest computed without a store")

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.setattr(spec_module, "source_digest", refuse)
    fig8(False)
    request = ExperimentRequest("fig8", "micro", WORKLOADS)
    for cache in (None, False):           # None: no store in the environment
        with Session(jobs=1, cache=cache) as session:
            session.run(request)
            assert session.cache is None


def test_a_corrupt_memo_is_deleted_and_recomputed(caplog):
    store = SqliteStore(":memory:")
    cold = fig8(store)
    (key,) = memo_keys(store)
    for garbage in CORRUPT:
        with store._lock:
            store._db.execute("UPDATE blobs SET payload = ? WHERE key = ?",
                              (garbage, key))
            store._db.commit()
        misses = store.stats.report_misses
        again = fig8(store)
        assert store.stats.report_misses == misses + 1
        assert again.to_json() == cold.to_json()
        assert "corrupt" in caplog.text
        assert json.loads(store._db.execute(
            "SELECT payload FROM blobs WHERE key = ?", (key,)).fetchone()[0])


def test_ttl_evicts_a_memo():
    now = [1000.0]
    store = SqliteStore(":memory:", ttl_s=60.0, clock=lambda: now[0])
    assert store.put_report("k", REPORT) is True
    assert store.put_report("k", OTHER) is False          # first writer wins
    now[0] += 30
    assert store.get_report("k") == REPORT                 # and touches it
    now[0] += 59
    assert store.get_report("k") == REPORT
    now[0] += 61
    assert store.get_report("k") is None
    assert store.stats.evictions == 1 and len(store) == 0
    assert (store.stats.report_hits, store.stats.report_misses) == (2, 1)


def test_the_size_cap_evicts_the_least_recent_memo():
    now = [0.0]
    size = len(json.dumps(REPORT, separators=(",", ":")))
    store = SqliteStore(":memory:", max_bytes=2 * size,
                        clock=lambda: now[0])
    for key in ("a", "b"):
        now[0] += 1
        assert store.put_report(key, REPORT)
    now[0] += 1
    assert store.get_report("a") == REPORT      # "b" is now the oldest
    now[0] += 1
    assert store.put_report("c", REPORT)
    assert store.get_report("b") is None
    assert store.get_report("a") == store.get_report("c") == REPORT
    assert store.stats.evictions == 1
    assert store.size_bytes() == 2 * size


@pytest.fixture
def server():
    backing = SqliteStore(":memory:")
    instance = make_store_server(backing=backing, token="sekrit")
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        yield instance
    finally:
        instance.shutdown()
        instance.server_close()
        backing.close()


def test_the_http_tier_round_trips_a_report(server):
    client = HTTPStore(server.url, token="sekrit")
    assert client.get_report("k") is None
    assert client.put_report("k", REPORT) is True
    assert client.put_report("k", OTHER) is False
    assert client.get_report("k") == REPORT
    with pytest.raises(StoreError, match="400"):
        client.put_report("j", {})
    assert (client.stats.report_hits, client.stats.report_misses) == (1, 1)
    stats = client.stats_payload()
    assert (stats["report_hits"], stats["report_misses"]) == (1, 1)
    assert server.backing.get_report("k") == REPORT
    assert server.backing.get_report("j") is None


def test_an_http_store_serves_the_memo_of_a_run(server):
    client = HTTPStore(server.url, token="sekrit")
    cold = fig8(client)
    warm = fig8(HTTPStore(server.url, token="sekrit"))
    assert warm.to_json() == cold.to_json()
    assert memo_keys(server.backing) == [
        REPORT_PREFIX + report_key(client, "fig8", "micro", WORKLOADS, 1, {})]
    assert server.backing.stats.report_hits == 1


def test_the_report_routes_answer_401_without_the_token(server, monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    server.backing.put_report("k", REPORT)
    for client in (HTTPStore(server.url), HTTPStore(server.url, token="no")):
        with pytest.raises(StoreAuthError):
            client.get_report("k")
        with pytest.raises(StoreAuthError):
            client.put_report("j", REPORT)
    assert server.backing.get_report("j") is None


def test_a_warm_session_hit_forks_no_pool_and_claims_nothing(tmp_path,
                                                             monkeypatch):
    request = ExperimentRequest("fig8", "micro", WORKLOADS)
    with Session(jobs=2, cache=DiskStore(tmp_path)) as session:
        cold = session.run(request)

    def no_pool(*args, **kwargs):
        raise AssertionError("a memo hit forked a pool")

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", no_pool)
    store = DiskStore(tmp_path)
    markers = store._db.execute("SELECT * FROM markers").fetchall()
    with Session(jobs=2, cache=store) as session:
        warm = session.run(request)
        job = session.submit(request)
        assert job.wait(60)
    assert warm.to_json() == cold.to_json()
    assert job.result().to_json() == cold.to_json()
    assert store.stats.report_hits == 2
    assert store.stats.claims == store.stats.hits == store.stats.stores == 0
    assert store._db.execute("SELECT * FROM markers").fetchall() == markers


def test_a_job_answered_from_the_memo_reads_every_cell_cached():
    store = SqliteStore(":memory:")
    request = ExperimentRequest("bottleneck", "micro", WORKLOADS)
    with Session(jobs=1, cache=store) as session:
        cold = session.submit(request)
        assert cold.wait(120)
        warm = session.submit(request)
        assert warm.wait(60)
    cold_status, warm_status = cold.status(), warm.status()
    assert warm_status.state == JobState.SUCCEEDED
    assert store.stats.report_hits == 1
    assert (warm_status.cells_done == warm_status.cells_cached
            == warm_status.cells_total == cold_status.cells_total)
    assert warm_status.occupancy == warm_status.report["occupancy"]
    assert warm_status.occupancy == cold_status.occupancy
    assert warm_status.report == cold_status.report
    assert warm.result().to_json() == cold.result().to_json()


def test_a_memo_stored_while_claiming_is_a_hit():
    # The holder of the claim stores the report between this session's
    # first lookup and its claim being granted: the lookup under the claim
    # finds it, and the job reads as a memo hit.
    request = ExperimentRequest("fig8", "micro", WORKLOADS)
    with Session(jobs=1, cache=SqliteStore(":memory:")) as other:
        report = other.run(request).to_dict()
    store = SqliteStore(":memory:")
    key = report_key(store, "fig8", "micro", WORKLOADS, 1, {})
    claim = store.claim

    def holder_finishes_first(token, owner, ttl_s):
        store.put_report(key, report)
        return claim(token, owner, ttl_s)

    store.claim = holder_finishes_first
    with Session(jobs=1, cache=store) as session:
        job = session.submit(request)
        assert job.wait(60)
    status = job.status()
    assert (store.stats.report_misses, store.stats.report_hits) == (1, 1)
    assert store.stats.hits == store.stats.stores == 0
    assert (status.cells_done == status.cells_cached == status.cells_total
            == FIG8_CELLS)
    assert status.report == report
