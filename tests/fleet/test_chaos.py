"""Fault-injection tests: the fleet under SIGKILL, SIGSTOP and desync.

The headline property, from the paper-repro angle: **chaos must not change
the numbers**.  Whatever happens to individual workers mid-grid — killed,
stalled, wrong schema version — the terminal report must be byte-identical
to :class:`~repro.harness.executors.SerialExecutor`'s, every workload block
must commit exactly once, and every cell must be reported exactly once.
"""

import random
import threading
import time
from dataclasses import asdict

import pytest

from repro.api.schema import WIRE_SCHEMA_VERSION, ExperimentRequest, TaskLease
from repro.api.session import JobCancelled, Session
from repro.api.worker import FleetWorker
from repro.core.config import RenoConfig
from repro.harness.executors import (
    SerialExecutor,
    build_tasks,
    outcome_key,
    shared_program_digest,
)
from repro.store.disk import DiskStore
from repro.uarch.config import MachineConfig
from repro.uarch.tables import TraceTables
from repro.workloads.base import get_workload

from harness import (
    CHAOS_WORKLOADS,
    FleetHarness,
    fleet_report,
    report_json,
    serial_report,
)


def test_sigkill_chaos_converges_byte_identical(tmp_path):
    """Kill a random worker every second commit; the report must not care."""
    reference = serial_report(CHAOS_WORKLOADS)
    rng = random.Random(0x5EED)
    seen = []

    with FleetHarness(tmp_path / "cache") as harness:
        for _ in range(2):
            harness.spawn_worker()

        def on_progress(grid_key, cached):
            seen.append(grid_key)
            if len(seen) % 2 == 0:
                live = harness.live_workers()
                if live:
                    harness.kill_worker(rng.choice(live))
                    harness.spawn_worker()

        report = fleet_report(harness.executor, CHAOS_WORKLOADS,
                              cache=harness.cache_root, progress=on_progress)
        counters = dict(harness.broker.counters)

    assert report_json(report) == report_json(reference)
    # Exactly-once commit under chaos: 2 workload blocks, 2 commits, 8
    # progress events, no grid key seen twice, no block failed out.
    assert counters["commits"] == 2
    assert counters["failures"] == 0
    assert len(seen) == 8
    assert len(set(seen)) == 8


def test_stalled_worker_leases_migrate_to_a_fresh_worker(tmp_path):
    """SIGSTOP the only worker mid-block; a newcomer finishes the grid."""
    reference = serial_report(CHAOS_WORKLOADS, scale=2)
    with FleetHarness(tmp_path / "cache") as harness:
        first = harness.spawn_worker()
        box = {}

        def run():
            box["report"] = fleet_report(harness.executor, CHAOS_WORKLOADS,
                                         cache=harness.cache_root, scale=2)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if harness.broker.stats()["leased"] >= 1:
                break
            time.sleep(0.02)
        else:
            pytest.fail("first worker never leased a task")
        harness.stall_worker(first)      # alive but silent: lease expires
        harness.spawn_worker()
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "grid did not converge after the stall"
        counters = dict(harness.broker.counters)

    assert report_json(box["report"]) == report_json(reference)
    assert counters["retries"] >= 1      # the stalled lease was reassigned
    assert counters["commits"] == 2      # still exactly once per block


def test_desynced_worker_hello_mid_grid_is_rejected_cleanly(tmp_path):
    """An old-schema worker arriving mid-grid gets a 426, the grid a report."""
    reference = serial_report(["micro_addi_chain"])
    responses = []
    with FleetHarness(tmp_path / "cache") as harness:
        harness.spawn_worker()

        def on_progress(grid_key, cached):
            if not responses:
                responses.append(
                    harness.hello("vintage", WIRE_SCHEMA_VERSION - 1))

        report = fleet_report(harness.executor, ["micro_addi_chain"],
                              cache=harness.cache_root, progress=on_progress)
        worker_count = harness.broker.worker_count()

    code, body = responses[0]
    assert code == 426
    assert body["supported_version"] == WIRE_SCHEMA_VERSION
    assert body["advertised_version"] == WIRE_SCHEMA_VERSION - 1
    assert worker_count == 1             # the desynced worker never joined
    assert report_json(report) == report_json(reference)


def block_task(cache_root, collect_timing=True):
    """One fig8-shaped workload block: 2 machines x 2 RENO configs."""
    return build_tasks(
        [get_workload("micro_addi_chain")],
        {"4wide": MachineConfig.default_4wide(),
         "6wide": MachineConfig.default_6wide()},
        {"BASE": None, "RENO": RenoConfig.reno_default()},
        collect_timing=collect_timing, cache_root=str(cache_root))[0]


def cell_keys(task):
    """The store keys of ``task``'s cells, in grid order."""
    digest = shared_program_digest(task.workload, task.scale)
    return [outcome_key(digest, machine, reno, task.max_instructions,
                        task.collect_timing, task.record_stats)
            for _, machine in task.machines for _, reno in task.renos]


def outcome_fields(outcome) -> dict:
    """Every report-relevant field of an outcome, as plain data."""
    return {"stats": asdict(outcome.timing.stats),
            "final_registers": outcome.timing.final_registers,
            "timing_records": outcome.timing.timing_records}


def test_abandoned_block_keeps_its_stored_cells_for_the_next_owner(
        tmp_path, monkeypatch):
    """Told to abandon after its first cell, worker A posts nothing and
    leaves that one cell stored; worker B's lease of the same block reads
    it as a hit and finishes the block equal to the serial run."""
    cache_root = tmp_path / "cache"
    task = block_task(cache_root)
    keys = cell_keys(task)
    worker_a = FleetWorker("http://127.0.0.1:1", worker_id="wa")
    lease_a = TaskLease(lease_id="lease-a", job_tag="abandon",
                        task=task.to_wire(), lease_ttl_s=30.0,
                        heartbeat_every_s=0.05)
    first_stored = threading.Event()
    posts = []

    def fake_post(path, payload, timeout=None):
        posts.append(path)
        directive = "abandon" if first_stored.is_set() else "keep"
        return {"directives": {lease_a.lease_id: directive}}

    class AbandonAfterFirstPut(DiskStore):
        """Hold the first put until the heartbeat has delivered abandon."""

        def put(self, key, outcome):
            stored = super().put(key, outcome)
            if not first_stored.is_set():
                first_stored.set()
                for thread in threading.enumerate():
                    if thread.name == f"heartbeat-{lease_a.lease_id}":
                        thread.join(timeout=30)
            return stored

    monkeypatch.setattr(worker_a, "_post", fake_post)
    worker_a._stores[str(cache_root)] = AbandonAfterFirstPut(cache_root)
    worker_a._execute_lease(lease_a)

    assert "/fleet/result" not in posts  # abandoned: nothing posted
    store = DiskStore(cache_root)
    assert [store.get(key) is not None for key in keys] == \
        [True, False, False, False]

    worker_b = FleetWorker("http://127.0.0.1:1", worker_id="wb")
    lease_b = TaskLease(lease_id="lease-b", job_tag="abandon",
                        task=task.to_wire(), lease_ttl_s=30.0,
                        heartbeat_every_s=30.0)
    result = worker_b._run_task(lease_b, threading.Event())
    assert result.ok
    assert result.cached == [True, False, False, False]

    [serial] = SerialExecutor().execute([block_task(cache_root)], None)
    assert [outcome_fields(store.get(key)) for key in keys] == \
        [outcome_fields(outcome) for _, outcome in serial]


def test_worker_builds_trace_tables_once_per_lease(tmp_path, monkeypatch):
    """The cells of one leased block share one trace and its tables."""
    builds = []
    original = TraceTables.__init__

    def counting_init(self, program, trace):
        builds.append(program.name)
        original(self, program, trace)

    monkeypatch.setattr(TraceTables, "__init__", counting_init)
    task = build_tasks(
        [get_workload("micro_addi_chain")],
        {"4wide": MachineConfig.default_4wide()},
        {"BASE": None, "RENO": RenoConfig.reno_default()},
        cache_root=str(tmp_path / "cache"))[0]
    worker = FleetWorker("http://127.0.0.1:1", worker_id="tables")
    lease = TaskLease(lease_id="lease-tables", job_tag="tables",
                      task=task.to_wire(), lease_ttl_s=30.0,
                      heartbeat_every_s=30.0)
    result = worker._run_task(lease, threading.Event())
    assert result.ok and result.cached == [False, False]
    assert builds == ["micro_addi_chain"]


def test_a_request_whose_cells_are_all_stored_grants_no_lease(tmp_path):
    """A warm grid is answered from the store by the executor itself."""
    swapped = list(reversed(CHAOS_WORKLOADS))
    seen = []
    with FleetHarness(tmp_path / "cache") as harness:
        harness.spawn_worker()
        fleet_report(harness.executor, CHAOS_WORKLOADS,
                     cache=harness.cache_root)
        leases = harness.broker.counters["leases_granted"]
        # Another request (so the report memo misses) over the same cells.
        report = fleet_report(harness.executor, swapped,
                              cache=harness.cache_root,
                              progress=lambda key, cached:
                                  seen.append((key, cached)))
        counters = dict(harness.broker.counters)

    assert leases == 2
    assert counters["leases_granted"] == leases
    assert report_json(report) == report_json(serial_report(swapped))
    assert len(seen) == 8 and all(cached for _, cached in seen)


def test_cancel_mid_grid_drops_queued_cells(tmp_path):
    """Cancelling a fleet job empties the broker queue, not just the flag."""
    # Four blocks and one worker: at the first commit at most one more
    # block is leased, so at least two are still queued.
    workloads = CHAOS_WORKLOADS + ["micro_store_load", "micro_sum"]
    with FleetHarness(tmp_path / "cache") as harness:
        harness.spawn_worker()
        session = Session(executor=harness.executor,
                          cache=str(harness.cache_root))
        try:
            def watcher(job, grid_key, cached):
                job.cancel()             # cancel at the first commit

            job = session.submit(
                ExperimentRequest("fig8", suite="micro",
                                  workloads=workloads),
                on_progress=watcher)
            with pytest.raises(JobCancelled):
                job.result(timeout=120.0)
            stats = harness.broker.stats()
            assert stats["queued"] == 0
            assert harness.broker.counters["cancelled_cells"] >= 1
        finally:
            session.close()
