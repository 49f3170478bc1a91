"""Clock-injected unit tests for the broker's lease state machine.

No HTTP, no subprocesses, no sleeping: a fake monotonic clock drives lease
expiry, so retry/exactly-once/cancellation semantics are tested exactly —
the chaos tests then show the same machine surviving real SIGKILLs.
"""

import pytest

from repro.api.fleet import (
    FleetBroker,
    FleetProtocolError,
    FleetSaturated,
)
from repro.api.schema import TaskResult, WorkerHello


class FakeClock:
    """A settable monotonic clock (``broker.lease`` never really waits)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_broker(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("lease_ttl_s", 10.0)
    broker = FleetBroker(**kwargs)
    broker.register(WorkerHello(worker_id="w1"))
    broker.register(WorkerHello(worker_id="w2"))
    return broker, kwargs["clock"]


def tasks(tag, n, cells=1):
    """``n`` tasks of ``cells`` cells each, keyed ``<tag>-<i>``."""
    return [(f"{tag}-{i}", {"workload": f"{tag}-{i}"}, cells)
            for i in range(n)]


def ok_result(lease, worker="w1", cells=1):
    return TaskResult(lease_id=lease.lease_id, worker_id=worker, ok=True,
                      cached=[False] * cells)


# ---------------------------------------------------------------------------
# Lease lifecycle
# ---------------------------------------------------------------------------


def test_lease_commit_drains_the_job():
    broker, _ = make_broker()
    broker.submit_tasks("job", tasks("a", 2))
    first = broker.lease("w1")
    second = broker.lease("w2")
    assert {first.task["workload"], second.task["workload"]} == \
        {"a-0", "a-1"}
    assert broker.complete(ok_result(first))
    assert broker.complete(ok_result(second, "w2"))
    events, done, error = broker.wait_job("job", timeout=0)
    assert done and error is None
    assert sorted(key for key, _ in events) == ["a-0", "a-1"]
    assert broker.counters["commits"] == 2


def test_unknown_worker_must_say_hello_first():
    broker, _ = make_broker()
    with pytest.raises(FleetProtocolError, match="hello"):
        broker.lease("ghost")


def test_lease_with_no_work_returns_none():
    broker, _ = make_broker()
    assert broker.lease("w1") is None


# ---------------------------------------------------------------------------
# Expiry, retry bounds, exactly-once
# ---------------------------------------------------------------------------


def test_expired_lease_requeues_with_attempt_bump():
    broker, clock = make_broker(lease_ttl_s=5.0)
    broker.submit_tasks("job", tasks("a", 1))
    first = broker.lease("w1")
    assert first.attempt == 1
    clock.now += 6.0                     # past the TTL, no heartbeat
    retry = broker.lease("w2")
    assert retry is not None
    assert retry.attempt == 2
    assert retry.task == first.task
    assert broker.counters["retries"] == 1
    # The late result from the dead first lease is dropped (exactly-once)…
    assert not broker.complete(ok_result(first))
    assert broker.counters["late_results"] == 1
    # …and only the live lease commits.
    assert broker.complete(ok_result(retry, "w2"))
    assert broker.counters["commits"] == 1
    _, done, error = broker.wait_job("job", timeout=0)
    assert done and error is None


def test_heartbeat_extends_the_lease():
    broker, clock = make_broker(lease_ttl_s=5.0)
    broker.submit_tasks("job", tasks("a", 1))
    lease = broker.lease("w1")
    for _ in range(4):
        clock.now += 4.0                 # would expire without heartbeats
        answer = broker.heartbeat("w1", [lease.lease_id])
        assert answer["directives"][lease.lease_id] == "keep"
    assert broker.complete(ok_result(lease))


def test_expired_then_reassigned_lease_heartbeat_says_abandon():
    broker, clock = make_broker(lease_ttl_s=5.0)
    broker.submit_tasks("job", tasks("a", 1))
    stale = broker.lease("w1")
    clock.now += 6.0
    live = broker.lease("w2")
    assert live is not None
    answer = broker.heartbeat("w1", [stale.lease_id])
    assert answer["directives"][stale.lease_id] == "abandon"


def test_retry_budget_bounds_failures():
    broker, clock = make_broker(lease_ttl_s=5.0, max_attempts=2)
    broker.submit_tasks("job", tasks("a", 1))
    for attempt in (1, 2):
        lease = broker.lease("w1")
        assert lease.attempt == attempt
        clock.now += 6.0                 # expire it
    # Third grant never happens: the cell failed out.
    assert broker.lease("w1") is None
    _, done, error = broker.wait_job("job", timeout=0)
    assert done
    assert "after 2 attempts" in error
    assert broker.counters["failures"] == 1


def test_worker_reported_failure_retries_then_fails():
    broker, _ = make_broker(max_attempts=2)
    broker.submit_tasks("job", tasks("a", 1))
    first = broker.lease("w1")
    broker.complete(TaskResult(lease_id=first.lease_id, worker_id="w1",
                               ok=False, error="ValueError: boom"))
    assert broker.counters["retries"] == 1
    second = broker.lease("w2")
    assert second.attempt == 2
    broker.complete(TaskResult(lease_id=second.lease_id, worker_id="w2",
                               ok=False, error="ValueError: boom"))
    _, done, error = broker.wait_job("job", timeout=0)
    assert done
    assert "ValueError: boom" in error


def test_duplicate_commit_is_dropped():
    broker, _ = make_broker()
    broker.submit_tasks("job", tasks("a", 1))
    lease = broker.lease("w1")
    assert broker.complete(ok_result(lease))
    assert not broker.complete(ok_result(lease))      # doubled commit
    assert broker.counters["commits"] == 1
    assert broker.counters["late_results"] == 1


# ---------------------------------------------------------------------------
# Cancellation drops queued tasks
# ---------------------------------------------------------------------------


def test_cancel_drops_queued_cells_and_abandons_leases():
    broker, _ = make_broker()
    broker.submit_tasks("job", tasks("a", 4, cells=2))
    leased = broker.lease("w1")
    dropped = broker.cancel_job("job")
    assert dropped == 6                  # the queued-but-unleased cells
    assert broker.counters["cancelled_cells"] == 6
    # Workers stop receiving this job's leases immediately…
    assert broker.lease("w2") is None
    # …the in-flight lease is told to abandon…
    answer = broker.heartbeat("w1", [leased.lease_id])
    assert answer["directives"][leased.lease_id] == "abandon"
    # …and its (now moot) result is dropped, not committed.
    assert not broker.complete(ok_result(leased, cells=2))
    assert broker.counters["commits"] == 0
    _, done, _ = broker.wait_job("job", timeout=0)
    assert done                          # cancelled counts as terminal


def test_cancel_leaves_other_jobs_untouched():
    broker, _ = make_broker()
    broker.submit_tasks("victim", tasks("v", 2))
    broker.submit_tasks("bystander", tasks("b", 2))
    broker.cancel_job("victim")
    granted = {broker.lease("w1").job_tag, broker.lease("w1").job_tag}
    assert granted == {"bystander"}


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


def test_submit_past_queue_depth_cap_is_refused():
    broker, _ = make_broker(max_queue_depth=3)
    broker.submit_tasks("job", tasks("a", 2))
    with pytest.raises(FleetSaturated) as excinfo:
        broker.submit_tasks("job2", tasks("b", 2))
    assert excinfo.value.queue_depth == 2
    assert excinfo.value.max_queue_depth == 3
    # The advisory admit check agrees with the hard cap.
    with pytest.raises(FleetSaturated):
        broker.admit(2)
    broker.admit(1)                      # exactly at the cap is fine


def test_leased_cells_count_toward_depth():
    broker, _ = make_broker(max_queue_depth=2)
    broker.submit_tasks("job", tasks("a", 2))
    broker.lease("w1")                   # queued → leased
    assert broker.depth() == 2           # still two cells in flight
    with pytest.raises(FleetSaturated):
        broker.admit(1)


def test_depth_counts_the_cells_of_each_task():
    broker, _ = make_broker(max_queue_depth=8)
    broker.submit_tasks("job", tasks("a", 2, cells=4))
    assert broker.depth() == 8           # two tasks, eight cells
    with pytest.raises(FleetSaturated) as excinfo:
        broker.submit_tasks("job2", tasks("b", 1))
    assert excinfo.value.queue_depth == 8
    lease = broker.lease("w1")
    assert broker.depth() == 8           # a leased task's cells still count
    stats = broker.stats()
    assert (stats["queued"], stats["leased"], stats["depth"]) == (1, 1, 8)
    assert broker.complete(ok_result(lease, cells=4))
    assert broker.depth() == 4
    broker.admit(4)


def test_result_with_the_wrong_number_of_flags_is_a_failed_attempt():
    broker, _ = make_broker(max_attempts=2)
    broker.submit_tasks("job", tasks("a", 1, cells=4))
    first = broker.lease("w1")
    assert broker.complete(ok_result(first, cells=3))
    assert broker.counters["commits"] == 0
    assert broker.counters["retries"] == 1
    second = broker.lease("w2")
    assert second.attempt == 2
    assert broker.complete(ok_result(second, "w2", cells=4))
    events, done, error = broker.wait_job("job", timeout=0)
    assert done and error is None
    assert events == [("a-0", [False] * 4)]


def test_reused_job_tag_is_rejected():
    broker, _ = make_broker()
    broker.submit_tasks("job", tasks("a", 1))
    with pytest.raises(ValueError, match="already submitted"):
        broker.submit_tasks("job", tasks("b", 1))
