"""The in-repo chaos harness for the distributed worker fleet.

:class:`FleetHarness` wraps a :class:`~repro.api.fleet.FleetExecutor` in
*manual population control* (``workers=0, respawn=False``): tests spawn,
SIGKILL, SIGSTOP/SIGCONT and schema-desync worker processes explicitly
while a grid is in flight, then assert the terminal report is
byte-identical to :class:`~repro.harness.executors.SerialExecutor`'s.

The harness keeps chaos *observable*: the broker's counters (commits,
retries, late results) are reachable via :attr:`broker`, so tests can
assert exactly-once commit semantics — every workload block committed
once, every cell reported once, none lost, none doubled — and not just
end-state equality.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import urllib.error
import urllib.request
from pathlib import Path

from repro.api.fleet import FleetExecutor
from repro.harness.spec import run_experiment

#: The tiny fig8 grid the fleet tests run: 2 workloads × 2 machines ×
#: 2 RENO configs = 8 cells in 2 workload blocks (2 leases), fast enough
#: for CI.
CHAOS_WORKLOADS = ["micro_addi_chain", "micro_call_spill"]


def report_json(report) -> str:
    """Canonical JSON of a report (the byte-identity comparison form)."""
    return json.dumps(report.to_dict(), sort_keys=True)


def serial_report(workloads, *, scale: int = 1):
    """The ground truth: the same grid through ``SerialExecutor``, no cache."""
    return run_experiment("fig8", suite="micro", workloads=list(workloads),
                          scale=scale, jobs=1, cache=False)


def fleet_report(executor, workloads, *, cache, scale: int = 1,
                 progress=None, cancel=None):
    """The same grid through a fleet executor (shared cache required)."""
    return run_experiment("fig8", suite="micro", workloads=list(workloads),
                          scale=scale, executor=executor, cache=str(cache),
                          progress=progress, cancel=cancel)


class FleetHarness:
    """Boot a broker with manual worker population control (see module doc).

    Args:
        cache_root: Shared outcome-cache directory for broker and workers.
        lease_ttl_s: Lease TTL — short, so killed/stalled workers' tasks
            requeue within test timescales.
        max_attempts: Per-task retry budget (generous: chaos tests kill
            workers repeatedly and every retry must stay free to run).
        stall_timeout_s: Executor-level dead-fleet guard.
    """

    def __init__(
        self,
        cache_root: str | Path,
        *,
        lease_ttl_s: float = 1.0,
        max_attempts: int = 8,
        stall_timeout_s: float = 120.0,
    ):
        """Create the harness and boot its broker (no workers yet)."""
        self.cache_root = Path(cache_root)
        self.executor = FleetExecutor(
            workers=0,
            respawn=False,
            cache=self.cache_root,
            lease_ttl_s=lease_ttl_s,
            max_attempts=max_attempts,
            stall_timeout_s=stall_timeout_s,
        )
        self.url = self.executor.ensure_started()
        self._stopped: set[int] = set()

    # ------------------------------------------------------------------
    # Population control
    # ------------------------------------------------------------------

    @property
    def broker(self):
        """The underlying :class:`~repro.api.fleet.FleetBroker`."""
        return self.executor.broker

    def live_workers(self) -> list[subprocess.Popen]:
        """The worker processes currently alive (stalled ones included)."""
        return [p for p in self.executor.processes if p.poll() is None]

    def spawn_worker(self) -> subprocess.Popen:
        """Start one fresh worker subprocess against the broker."""
        return self.executor.spawn_worker()

    def kill_worker(self, process: subprocess.Popen) -> None:
        """SIGKILL a worker mid-whatever and reap it (no cleanup runs)."""
        process.kill()
        process.wait()

    def stall_worker(self, process: subprocess.Popen) -> None:
        """SIGSTOP a worker: alive but silent, so its leases expire."""
        os.kill(process.pid, signal.SIGSTOP)
        self._stopped.add(process.pid)

    def resume_worker(self, process: subprocess.Popen) -> None:
        """SIGCONT a previously stalled worker."""
        os.kill(process.pid, signal.SIGCONT)
        self._stopped.discard(process.pid)

    def hello(self, worker_id: str, schema_version: int) -> tuple[int, dict]:
        """Post a raw (possibly desynced) hello; return (HTTP code, body).

        This is how tests desync a worker mid-grid: a crafted
        ``schema_version`` exercises the broker's negotiation without
        patching the real worker binary.
        """
        body = json.dumps({
            "schema_version": schema_version,
            "worker_id": worker_id,
            "pid": 0,
            "host": "chaos",
        }).encode()
        request = urllib.request.Request(
            f"{self.url}/fleet/hello", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Resume any stalled workers (so they can die) and shut down."""
        for process in self.executor.processes:
            if process.pid in self._stopped and process.poll() is None:
                os.kill(process.pid, signal.SIGCONT)
        self._stopped.clear()
        self.executor.close()

    def __enter__(self) -> "FleetHarness":
        """Context-manager entry (returns the harness)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close` everything."""
        self.close()
