"""Fair-share scheduling and backpressure, broker-level and end-to-end.

The broker must round-robin leases across concurrently submitted jobs
(a small grid is never starved behind a big one), and a submission that
would overflow the queue-depth cap must be refused with the structured
429 at the HTTP edge instead of growing memory without bound.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.fleet import FleetBroker, FleetExecutor, FleetSaturated
from repro.api.schema import ExperimentRequest, TaskResult, WorkerHello
from repro.api.service import make_server
from repro.api.session import Session

from harness import fleet_report, report_json, serial_report


def tasks(tag, n):
    return [(f"{tag}-{i}", {"workload": f"{tag}-{i}"}, 1) for i in range(n)]


# ---------------------------------------------------------------------------
# Fair share (broker level)
# ---------------------------------------------------------------------------


def test_leases_round_robin_across_concurrent_jobs():
    broker = FleetBroker()
    broker.register(WorkerHello(worker_id="w"))
    broker.submit_tasks("big", tasks("big", 6))
    broker.submit_tasks("small", tasks("small", 2))
    order = []
    for _ in range(8):
        lease = broker.lease("w")
        order.append(lease.job_tag)
        broker.complete(TaskResult(lease_id=lease.lease_id, worker_id="w",
                                   ok=True, cached=[False]))
    # While both jobs have work the grants alternate; the small job is
    # done after four grants even though the big one was submitted first.
    assert order[:4] == ["big", "small", "big", "small"]
    assert order[4:] == ["big"] * 4
    _, small_done, _ = broker.wait_job("small", timeout=0)
    assert small_done


def test_both_jobs_make_monotonic_progress():
    broker = FleetBroker()
    broker.register(WorkerHello(worker_id="w"))
    broker.submit_tasks("a", tasks("a", 4))
    broker.submit_tasks("b", tasks("b", 4))
    remaining = {"a": [], "b": []}
    for _ in range(8):
        lease = broker.lease("w")
        broker.complete(TaskResult(lease_id=lease.lease_id, worker_id="w",
                                   ok=True, cached=[False]))
        stats = broker.stats()
        for tag in ("a", "b"):
            remaining[tag].append(stats["jobs"][tag]["remaining"])
    for tag in ("a", "b"):
        # Strictly monotonic progress overall, never stuck at the start.
        assert remaining[tag] == sorted(remaining[tag], reverse=True)
        assert remaining[tag][-1] == 0
        assert remaining[tag][3] < 4     # progressed within the first half


# ---------------------------------------------------------------------------
# Backpressure at the session / HTTP edge
# ---------------------------------------------------------------------------


def small_body(workloads=("micro_addi_chain",)):
    return {"experiment": "fig8", "suite": "micro",
            "workloads": list(workloads), "scale": 1, "params": {}}


def test_session_submit_past_cap_raises_fleet_saturated(tmp_path):
    # A fig8 micro request is 4 cells; a 2-cell cap must refuse it at
    # admission time, before any job (or fleet traffic) is created.
    fleet = FleetExecutor(workers=0, respawn=False, max_queue_depth=2)
    with fleet, Session(executor=fleet, cache=tmp_path / "cache") as session:
        with pytest.raises(FleetSaturated) as excinfo:
            session.submit(ExperimentRequest(**{
                k: v for k, v in small_body().items()}))
        assert excinfo.value.max_queue_depth == 2
        assert session.jobs() == []      # nothing half-created


def test_http_submit_past_cap_gets_structured_429(tmp_path):
    fleet = FleetExecutor(workers=0, respawn=False, max_queue_depth=2)
    session = Session(executor=fleet, cache=tmp_path / "cache")
    server = make_server(port=0, session=session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        body = json.dumps(small_body()).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/experiments", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 429
        payload = json.loads(excinfo.value.read())
        assert payload["max_queue_depth"] == 2
        assert payload["retry_after_s"] > 0
        assert "saturated" in payload["error"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        session.close()


# ---------------------------------------------------------------------------
# End-to-end: two concurrent submissions share one fleet
# ---------------------------------------------------------------------------


def test_two_concurrent_submissions_share_the_fleet(tmp_path):
    reference = {
        "big": serial_report(["micro_addi_chain", "micro_call_spill"]),
        "small": serial_report(["micro_store_load"]),
    }
    with FleetExecutor(workers=2, cache=tmp_path / "cache") as fleet:
        with Session(executor=fleet, cache=tmp_path / "cache",
                     workers=2) as session:
            big = session.submit(ExperimentRequest(
                "fig8", suite="micro",
                workloads=["micro_addi_chain", "micro_call_spill"]))
            small = session.submit(ExperimentRequest(
                "fig8", suite="micro", workloads=["micro_store_load"]))
            big_report = big.result(timeout=300)
            small_report = small.result(timeout=300)
    assert report_json(big_report) == report_json(reference["big"])
    assert report_json(small_report) == report_json(reference["small"])


def test_fleet_report_matches_serial_byte_for_byte(tmp_path):
    # The acceptance-criterion shape, fleet-executor edition: the full
    # fig8 micro-subset grid across two worker processes, compared to the
    # serial ground truth as canonical JSON.
    workloads = ["micro_addi_chain", "micro_store_load"]
    reference = serial_report(workloads)
    seen = []
    with FleetExecutor(workers=2, cache=tmp_path / "cache") as fleet:
        report = fleet_report(fleet, workloads, cache=tmp_path / "cache",
                              progress=lambda key, cached: seen.append(key))
        counters = fleet.broker.stats()["counters"]
    assert report_json(report) == report_json(reference)
    assert counters["commits"] == 2      # one lease per workload block
    assert counters["late_results"] == 0
    # ...and each of the 2 workloads x 2 machines x 2 renos cells is
    # reported exactly once.
    assert len(seen) == len(set(seen)) == 8
