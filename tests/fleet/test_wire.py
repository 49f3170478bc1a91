"""Wire-schema compatibility tests for the fleet messages.

Mirrors ``tests/api/test_session.py`` style: round-trips for the additive
version-2 messages (``WorkerHello`` / ``TaskLease`` / ``TaskResult``),
malformed-payload rejection, and the two directions of version
negotiation — an *older* worker gets a structured HTTP 426 rejection, a
*newer* one is refused by the existing newer-than-us ``SchemaError``
policy (HTTP 400).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.fleet import FleetBroker, WorkerRejected, make_fleet_server
from repro.api.schema import (
    WIRE_SCHEMA_VERSION,
    SchemaError,
    TaskLease,
    TaskResult,
    WorkerHello,
)

# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


def test_worker_hello_roundtrip():
    hello = WorkerHello(worker_id="w-7", pid=4242, host="node3")
    clone = WorkerHello.from_dict(hello.to_dict())
    assert clone == hello
    assert clone.schema_version == WIRE_SCHEMA_VERSION


def test_task_lease_roundtrip():
    lease = TaskLease(
        lease_id="lease-000042", job_tag="grid-1-7",
        cell={"workload": "micro_addi_chain", "scale": 1,
              "outcome_key": "abc123", "cache_root": "/tmp/c"},
        attempt=3, lease_ttl_s=2.5, heartbeat_every_s=0.5)
    assert TaskLease.from_dict(lease.to_dict()) == lease


def test_task_result_roundtrip():
    ok = TaskResult(lease_id="lease-000001", worker_id="w1", ok=True,
                    outcome_key="deadbeef", cached=True)
    assert TaskResult.from_dict(ok.to_dict()) == ok
    failed = TaskResult(lease_id="lease-000002", worker_id="w1", ok=False,
                        error="ValueError: boom")
    assert TaskResult.from_dict(failed.to_dict()) == failed


@pytest.mark.parametrize("factory,payload", [
    (WorkerHello.from_dict, {"schema_version": WIRE_SCHEMA_VERSION}),
    (WorkerHello.from_dict, {"schema_version": WIRE_SCHEMA_VERSION,
                             "worker_id": ""}),
    (WorkerHello.from_dict, "not-an-object"),
    (TaskLease.from_dict, {"schema_version": WIRE_SCHEMA_VERSION,
                           "lease_id": "x", "cell": "not-a-dict"}),
    (TaskLease.from_dict, {"schema_version": WIRE_SCHEMA_VERSION,
                           "lease_id": "", "cell": {}}),
    (TaskResult.from_dict, {"schema_version": WIRE_SCHEMA_VERSION,
                            "lease_id": "x", "ok": "yes"}),
    (TaskResult.from_dict, {"schema_version": WIRE_SCHEMA_VERSION,
                            "lease_id": "", "ok": True}),
])
def test_malformed_fleet_messages_are_rejected(factory, payload):
    with pytest.raises(SchemaError):
        factory(payload)


def test_newer_than_us_messages_follow_schema_error_policy():
    # The standard policy for every wire message: a payload stamped with a
    # future schema version is refused loudly rather than half-parsed.
    for factory in (WorkerHello.from_dict, TaskLease.from_dict,
                    TaskResult.from_dict):
        with pytest.raises(SchemaError, match="wire schema"):
            factory({"schema_version": WIRE_SCHEMA_VERSION + 1,
                     "worker_id": "w", "lease_id": "l", "cell": {},
                     "ok": True})


# ---------------------------------------------------------------------------
# Negotiation (broker level)
# ---------------------------------------------------------------------------


def test_broker_rejects_older_worker_with_structured_error():
    broker = FleetBroker()
    old = WorkerHello(worker_id="vintage", schema_version=WIRE_SCHEMA_VERSION - 1)
    with pytest.raises(WorkerRejected) as excinfo:
        broker.register(old)
    payload = excinfo.value.payload
    assert payload["supported_version"] == WIRE_SCHEMA_VERSION
    assert payload["advertised_version"] == WIRE_SCHEMA_VERSION - 1
    assert "upgrade the worker" in payload["error"]
    assert broker.worker_count() == 0


def test_broker_accepts_current_version_worker():
    broker = FleetBroker(lease_ttl_s=7.0)
    answer = broker.register(WorkerHello(worker_id="modern"))
    assert answer["ok"] is True
    assert answer["lease_ttl_s"] == 7.0
    assert broker.worker_count() == 1


# ---------------------------------------------------------------------------
# Negotiation (HTTP level)
# ---------------------------------------------------------------------------


@pytest.fixture()
def fleet_server():
    server = make_fleet_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _post(server, path, payload):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        server.url + path, data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_hello_negotiation(fleet_server):
    # Older worker: structured 426 with both version numbers.
    code, body = _post(fleet_server, "/fleet/hello", {
        "schema_version": WIRE_SCHEMA_VERSION - 1, "worker_id": "old"})
    assert code == 426
    assert body["supported_version"] == WIRE_SCHEMA_VERSION
    assert body["advertised_version"] == WIRE_SCHEMA_VERSION - 1

    # Newer worker: the SchemaError policy surfaces as a 400.
    code, body = _post(fleet_server, "/fleet/hello", {
        "schema_version": WIRE_SCHEMA_VERSION + 1, "worker_id": "future"})
    assert code == 400
    assert "wire schema" in body["error"]

    # Current version: registered, policy knobs in the answer.
    code, body = _post(fleet_server, "/fleet/hello", {
        "schema_version": WIRE_SCHEMA_VERSION, "worker_id": "current"})
    assert code == 200
    assert body["ok"] is True
    assert body["heartbeat_every_s"] > 0


def test_http_lease_without_hello_is_a_409(fleet_server):
    code, body = _post(fleet_server, "/fleet/lease",
                       {"worker_id": "stranger", "wait": 0})
    assert code == 409
    assert "hello" in body["error"]


def test_http_stats_lists_registered_workers(fleet_server):
    _post(fleet_server, "/fleet/hello",
          {"schema_version": WIRE_SCHEMA_VERSION, "worker_id": "w-stats",
           "pid": 123})
    with urllib.request.urlopen(fleet_server.url + "/fleet/stats",
                                timeout=30) as response:
        stats = json.loads(response.read())
    assert "w-stats" in stats["workers"]
    assert stats["workers"]["w-stats"]["pid"] == 123
    assert stats["counters"]["commits"] == 0


@pytest.mark.parametrize("path,payload", [
    ("/fleet/lease", [1]),
    ("/fleet/lease", "w-input"),
    ("/fleet/heartbeat", [1]),
    ("/fleet/heartbeat", None),
    ("/fleet/result", [1]),
    ("/fleet/lease", {"worker_id": "w-input", "wait": "soon"}),
    ("/fleet/lease", {"worker_id": "w-input", "wait": float("nan")}),
    ("/fleet/lease", {"worker_id": "w-input", "wait": [5]}),
    ("/fleet/heartbeat", {"worker_id": "w-input", "leases": 7}),
])
def test_http_malformed_input_is_a_structured_400(fleet_server, path, payload):
    # A registered worker, so only the malformed input can be refused.
    _post(fleet_server, "/fleet/hello",
          {"schema_version": WIRE_SCHEMA_VERSION, "worker_id": "w-input"})
    code, body = _post(fleet_server, path, payload)
    assert code == 400
    assert body["schema_version"] == WIRE_SCHEMA_VERSION
    assert body["error"]
