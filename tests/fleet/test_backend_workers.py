"""Fleet integration: compiled-backend workers match the serial python run.

The backend rides the lease's free-form ``cell`` payload (no wire-schema
change), so a grid dispatched with ``backend="compiled"`` runs its cycle
loops through the C kernel inside the worker subprocesses — and the
terminal report must still be byte-identical to ``SerialExecutor`` running
pure python.  This is the end-to-end form of the backend contract: same
numbers, different loop, across process boundaries.

Workers inherit the test environment, so ``REPRO_NO_CC=1`` turns these
workers into silent python fallbacks; the byte-identity assertion holds
either way, which is itself the degradation contract.  The compiled-only
test skips without a local toolchain.
"""

import pytest

from repro.harness.spec import run_experiment
from repro.uarch.backend import get_backend

from harness import CHAOS_WORKLOADS, FleetHarness, report_json, serial_report

needs_compiled = pytest.mark.skipif(
    not get_backend("compiled").available(),
    reason="no C toolchain on this runner")


@needs_compiled
def test_compiled_workers_match_serial_python(tmp_path):
    reference = serial_report(CHAOS_WORKLOADS)

    with FleetHarness(tmp_path / "cache") as harness:
        for _ in range(2):
            harness.spawn_worker()
        report = run_experiment(
            "fig8", suite="micro", workloads=list(CHAOS_WORKLOADS),
            scale=1, executor=harness.executor,
            cache=str(harness.cache_root), backend="compiled")
        counters = dict(harness.broker.counters)

    assert report_json(report) == report_json(reference)
    assert counters["commits"] == 8
    assert counters["failures"] == 0


@needs_compiled
def test_compiled_timing_workers_match_serial_python(tmp_path):
    """fig9 collects timing records, which the kernel builds too: the
    critical-path report from compiled workers equals the serial python
    one."""
    reference = run_experiment(
        "fig9", suite="micro", workloads=list(CHAOS_WORKLOADS), scale=1,
        jobs=1, cache=False, backend="python")

    with FleetHarness(tmp_path / "cache") as harness:
        for _ in range(2):
            harness.spawn_worker()
        report = run_experiment(
            "fig9", suite="micro", workloads=list(CHAOS_WORKLOADS),
            scale=1, executor=harness.executor,
            cache=str(harness.cache_root), backend="compiled")
        counters = dict(harness.broker.counters)

    assert report_json(report) == report_json(reference)
    assert counters["commits"] == 6
    assert counters["failures"] == 0


def test_backend_threads_into_every_task():
    """``build_tasks`` stamps the requested backend on every task — the
    value :class:`~repro.api.fleet.FleetExecutor` copies into the lease's
    ``cell`` payload verbatim."""
    from repro.core import RenoConfig
    from repro.harness.executors import build_tasks
    from repro.uarch.config import MachineConfig
    from repro.workloads.base import get_workload

    tasks = build_tasks(
        [get_workload(name) for name in CHAOS_WORKLOADS],
        {"4wide": MachineConfig.default_4wide()},
        {"BASE": None, "RENO": RenoConfig.reno_default()},
        backend="compiled")
    assert tasks and all(task.backend == "compiled" for task in tasks)
