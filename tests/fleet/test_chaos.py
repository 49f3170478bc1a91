"""Fault-injection tests: the fleet under SIGKILL, SIGSTOP and desync.

The headline property, from the paper-repro angle: **chaos must not change
the numbers**.  Whatever happens to individual workers mid-grid — killed,
stalled, wrong schema version — the terminal report must be byte-identical
to :class:`~repro.harness.executors.SerialExecutor`'s, and every cell must
commit exactly once.
"""

import random
import threading
import time

import pytest

from repro.api import worker as worker_mod
from repro.api.schema import WIRE_SCHEMA_VERSION, ExperimentRequest, TaskLease
from repro.api.session import JobCancelled, Session
from repro.api.worker import FleetWorker
from repro.core.simulator import simulate
from repro.harness.executors import outcome_key, program_digest
from repro.store.disk import DiskStore
from repro.uarch.config import MachineConfig
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
    # Exactly-once commit under chaos: 8 cells, 8 commits, 8 progress
    # events, no grid key seen twice, no cell failed out.
    assert counters["commits"] == 8
    assert counters["failures"] == 0
    assert len(seen) == 8
    assert len(set(seen)) == 8


def test_stalled_worker_leases_migrate_to_a_fresh_worker(tmp_path):
    """SIGSTOP the only worker mid-cell; a newcomer finishes the grid."""
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
            pytest.fail("first worker never leased a cell")
        harness.stall_worker(first)      # alive but silent: lease expires
        harness.spawn_worker()
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "grid did not converge after the stall"
        counters = dict(harness.broker.counters)

    assert report_json(box["report"]) == report_json(reference)
    assert counters["retries"] >= 1      # the stalled lease was reassigned
    assert counters["commits"] == 8      # still exactly once per cell


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


def test_checkpoint_migrates_between_workers(tmp_path):
    """An abandoning worker parks a checkpoint; its successor resumes it."""
    name = "micro_addi_chain"
    program = get_workload(name).build(1)
    machine = MachineConfig()
    reference = simulate(program, machine, None, collect_timing=True)
    assert reference.timing.cycles >= 8  # multi-slice at the chosen budget
    slice_cycles = max(1, reference.timing.cycles // 4)

    cache_root = tmp_path / "cache"
    checkpoint = tmp_path / "ckpt" / "cell.ckpt"
    key = outcome_key(program_digest(program), machine, None,
                      2_000_000, True, False)
    cell = {
        "workload": name, "scale": 1,
        "machine_label": "m", "machine": machine.to_dict(),
        "reno_label": "r", "reno": None,
        "collect_timing": True, "record_stats": False,
        "max_instructions": 2_000_000,
        "outcome_key": key,
        "cache_root": str(cache_root),
        "checkpoint_path": str(checkpoint),
        "slice_cycles": slice_cycles,
    }

    # Worker A is told to abandon before its first slice boundary: it must
    # stop, leave the checkpoint on disk, and post nothing.
    worker_a = FleetWorker("http://127.0.0.1:1", worker_id="wa")
    abandon = threading.Event()
    abandon.set()
    lease_a = TaskLease(lease_id="lease-a", job_tag="migrate", cell=cell,
                        lease_ttl_s=30.0, heartbeat_every_s=30.0)
    with pytest.raises(worker_mod._Abandoned):
        worker_a._run_cell(lease_a, abandon)
    assert checkpoint.exists()

    # Worker B picks the requeued cell up mid-simulation and finishes it
    # with results byte-identical to the uninterrupted run.
    worker_b = FleetWorker("http://127.0.0.1:1", worker_id="wb")
    lease_b = TaskLease(lease_id="lease-b", job_tag="migrate", cell=cell,
                        lease_ttl_s=30.0, heartbeat_every_s=30.0)
    result = worker_b._run_cell(lease_b, threading.Event())
    assert result.ok and not result.cached
    assert result.outcome_key == key
    assert not checkpoint.exists()       # consumed on completion

    outcome = DiskStore(cache_root).get(key)
    assert outcome is not None
    assert outcome.timing.cycles == reference.timing.cycles
    assert outcome.timing.final_registers == reference.timing.final_registers


def test_cancel_mid_grid_drops_queued_cells(tmp_path):
    """Cancelling a fleet job empties the broker queue, not just the flag."""
    with FleetHarness(tmp_path / "cache") as harness:
        harness.spawn_worker()
        session = Session(executor=harness.executor,
                          cache=str(harness.cache_root))
        try:
            def watcher(job, grid_key, cached):
                job.cancel()             # cancel at the first commit

            job = session.submit(
                ExperimentRequest("fig8", suite="micro",
                                  workloads=CHAOS_WORKLOADS),
                on_progress=watcher)
            with pytest.raises(JobCancelled):
                job.result(timeout=120.0)
            stats = harness.broker.stats()
            assert stats["queued"] == 0
            assert harness.broker.counters["cancelled_cells"] >= 1
        finally:
            session.close()
