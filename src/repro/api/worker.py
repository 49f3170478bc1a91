"""The fleet worker: a ``python -m repro worker`` lease puller.

One worker process serves one broker (:mod:`repro.api.fleet`): it says
hello (wire-schema negotiation), long-polls ``/fleet/lease`` for cells,
simulates each cell and posts a :class:`~repro.api.schema.TaskResult`.
Everything result-shaped travels through the shared content-addressed
result store (:mod:`repro.store`) — the wire carries only the
``outcome_key`` — so the broker side reads outcomes exactly as a warm
cache hit and late/duplicate results cost nothing.  Each cell quotes its
store locator; ``--store http://host:port`` (with ``--store-token`` /
``$REPRO_STORE_TOKEN``) overrides it so cross-host workers need no
shared filesystem.

Failure-tolerance mechanics (what the chaos harness exercises):

* a **heartbeat thread** renews the worker's lease every
  ``heartbeat_every_s``; a SIGSTOPped or dead worker stops heartbeating,
  its lease expires, and the broker requeues the cell;
* each slice boundary parks a :class:`~repro.uarch.snapshot.PipelineSnapshot`
  at the cell's ``checkpoint_path`` (inside the shared cache directory),
  so the *next* owner of a requeued cell resumes mid-simulation with
  byte-identical results instead of restarting;
* when a heartbeat answer says ``abandon`` (the lease expired and was
  reassigned, or the job was cancelled) the worker stops at the next slice
  boundary, leaving the checkpoint for the new owner;
* cells of one workload share a functional trace and its read-only
  :class:`~repro.uarch.tables.TraceTables` via a small worker-local memo
  (the broker queues a grid's cells adjacently, so the memo behaves like
  the per-workload trace sharing of the in-process executors).

The worker is deliberately dependency-free (its one HTTP call is
:func:`repro.api.http.request`, over stdlib ``urllib``) and exits
with distinct codes: 0 on a clean drain/shutdown, 2 on registration
rejection (schema mismatch), 3 when the broker becomes unreachable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api.http import TransportError, request
from repro.api.schema import TaskLease, TaskResult, WorkerHello
from repro.core.config import RenoConfig
from repro.core.renamer import RenoRenamer
from repro.core.simulator import SimulationOutcome
from repro.functional.simulator import FunctionalSimulator
from repro.api.checkpoint import run_sliced
from repro.harness.executors import shared_program
from repro.store.base import open_store
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.snapshot import PipelineSnapshot, SnapshotError
from repro.uarch.tables import TraceTables
from repro.workloads.base import get_workload

#: Consecutive transport failures after which the worker gives up on the
#: broker and exits (exit code 3).
MAX_TRANSPORT_FAILURES = 5

#: Functional-trace memo size (workload builds kept per worker).
TRACE_MEMO_SLOTS = 4


class _Abandoned(Exception):
    """Internal: the broker told this worker to stop working on a cell."""


class _BrokerUnreachable(Exception):
    """Internal: the broker did not answer within the retry budget."""


class _BrokerRefused(Exception):
    """Internal: the broker answered an error status (message: its body)."""

    def __init__(self, status: int, detail: str):
        """Record the status next to the broker's answer."""
        super().__init__(detail)
        self.status = status


class FleetWorker:
    """One lease-pulling worker bound to a fleet broker URL.

    Args:
        server_url: Base URL of the fleet server (``http://host:port``).
        worker_id: Stable identity advertised in the hello (defaults to
            ``worker-<pid>``).
        poll_wait_s: Long-poll window per lease request.
        max_cells: Optional bound on cells to execute before exiting
            cleanly (tests and batch-style deployments).
        backend: Cycle-loop backend override for every cell this worker
            runs (see :mod:`repro.uarch.backend`).  None uses the backend
            the lease's cell payload asked for (which is what the
            submitting session requested); either way an unavailable
            backend degrades silently to ``python``, and results are
            identical regardless.
        store: Result-store locator override for every cell
            (``--store``).  None opens whatever locator each cell
            payload carries; a cross-host worker whose broker quoted a
            path on a filesystem it cannot see points this at the
            fleet's ``repro store-serve`` URL instead.
        store_token: Bearer token for HTTP store tiers (defaults to
            ``$REPRO_STORE_TOKEN``).
    """

    def __init__(
        self,
        server_url: str,
        worker_id: str | None = None,
        *,
        poll_wait_s: float = 5.0,
        max_cells: int | None = None,
        backend: str | None = None,
        store: str | None = None,
        store_token: str | None = None,
    ):
        """Create the worker (no network traffic until :meth:`run`)."""
        self.server_url = server_url.rstrip("/")
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.poll_wait_s = poll_wait_s
        self.max_cells = max_cells
        self.backend = backend
        self.store = store
        self.store_token = store_token
        self.heartbeat_every_s = 2.0
        self.cells_done = 0
        self._failures = 0
        self._traces: dict[tuple, object] = {}
        self._stores: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _post(self, path: str, payload: dict, timeout: float | None = None) -> dict:
        """POST JSON to the broker and decode its answer.

        An error status raises :class:`_BrokerRefused`.  A transport
        failure sleeps briefly and answers ``{"_retry": True}``, until
        :data:`MAX_TRANSPORT_FAILURES` consecutive ones raise
        :class:`_BrokerUnreachable`.
        """
        try:
            status, body = request("POST", self.server_url + path, payload,
                                   timeout=timeout or (self.poll_wait_s + 30))
        except TransportError as error:
            self._failures += 1
            if self._failures >= MAX_TRANSPORT_FAILURES:
                raise _BrokerUnreachable(
                    f"broker at {self.server_url} unreachable "
                    f"({self._failures} consecutive failures): {error}")
            time.sleep(min(0.2 * self._failures, 1.0))
            return {"_retry": True}
        self._failures = 0
        if status >= 400:
            raise _BrokerRefused(status, body.decode(errors="replace"))
        return json.loads(body)

    def _hello(self) -> bool:
        """Register with the broker; False means rejected (schema mismatch)."""
        hello = WorkerHello(worker_id=self.worker_id, pid=os.getpid(),
                            host="localhost")
        try:
            answer = self._post("/fleet/hello", hello.to_dict())
        except _BrokerRefused as error:
            print(f"worker {self.worker_id}: registration rejected "
                  f"({error.status}): {error}", file=sys.stderr)
            return False
        if answer.get("_retry"):
            return self._hello()
        self.heartbeat_every_s = float(
            answer.get("heartbeat_every_s", self.heartbeat_every_s))
        return True

    # ------------------------------------------------------------------
    # The pull loop
    # ------------------------------------------------------------------

    def run(self) -> int:
        """Pull and execute leases until shutdown; return the exit code."""
        try:
            if not self._hello():
                return 2
            while True:
                if (self.max_cells is not None
                        and self.cells_done >= self.max_cells):
                    return 0
                try:
                    answer = self._post("/fleet/lease", {
                        "worker_id": self.worker_id,
                        "wait": self.poll_wait_s,
                    })
                except _BrokerRefused as error:
                    if error.status == 409:
                        # Broker restarted (or never met us): re-register.
                        if not self._hello():
                            return 2
                        continue
                    raise
                if answer.get("_retry"):
                    continue
                if answer.get("shutdown"):
                    return 0
                lease_payload = answer.get("lease")
                if lease_payload is None:
                    continue
                lease = TaskLease.from_dict(lease_payload)
                self._execute_lease(lease)
        except _BrokerUnreachable as error:
            print(f"worker {self.worker_id}: {error}", file=sys.stderr)
            return 3
        except KeyboardInterrupt:
            return 0

    # ------------------------------------------------------------------
    # Cell execution
    # ------------------------------------------------------------------

    def _execute_lease(self, lease: TaskLease) -> None:
        """Run one leased cell and post its result (or failure)."""
        abandon = threading.Event()
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease, abandon, stop_heartbeat),
            name=f"heartbeat-{lease.lease_id}", daemon=True)
        heartbeat.start()
        try:
            result = self._run_cell(lease, abandon)
        except _Abandoned:
            # The broker reassigned the cell (or cancelled the job); the
            # checkpoint stays on disk for the next owner.  Nothing to post:
            # the lease is no longer ours.
            return
        except Exception as error:  # noqa: BLE001 - report, don't die
            result = TaskResult(
                lease_id=lease.lease_id, worker_id=self.worker_id, ok=False,
                error=f"{type(error).__name__}: {error}")
        finally:
            stop_heartbeat.set()
        try:
            self._post("/fleet/result", result.to_dict())
        except _BrokerRefused:
            pass  # a refused result is by definition late; the retry owns it
        self.cells_done += 1

    def _heartbeat_loop(self, lease: TaskLease, abandon: threading.Event,
                        stop: threading.Event) -> None:
        """Renew one lease until told to stop; set ``abandon`` on directive."""
        interval = max(0.05, float(lease.heartbeat_every_s
                                   or self.heartbeat_every_s))
        while not stop.wait(interval):
            try:
                answer = self._post("/fleet/heartbeat", {
                    "worker_id": self.worker_id,
                    "leases": [lease.lease_id],
                }, timeout=10)
            except (_BrokerRefused, _BrokerUnreachable):
                return
            if answer.get("_retry"):
                continue
            directives = answer.get("directives") or {}
            if directives.get(lease.lease_id) == "abandon":
                abandon.set()
                return

    def _trace_for(self, name: str, scale: int, max_instructions: int):
        """Build (or recall) a workload's program, functional run and tables."""
        memo_key = (name, scale, max_instructions)
        hit = self._traces.get(memo_key)
        if hit is not None:
            return hit
        program = shared_program(get_workload(name), scale)
        functional = FunctionalSimulator(program, max_instructions).run()
        tables = TraceTables(program, functional.trace)
        if len(self._traces) >= TRACE_MEMO_SLOTS:
            self._traces.pop(next(iter(self._traces)))
        self._traces[memo_key] = (program, functional, tables)
        return program, functional, tables

    def _store_for(self, locator: str):
        """Open (and memoise) the result store a cell's outcomes go to.

        A ``--store`` override wins over the locator quoted in the cell
        payload — that is how a worker on another host replaces a broker
        path it cannot see with the fleet's ``repro store-serve`` URL.
        """
        locator = self.store or locator
        store = self._stores.get(locator)
        if store is None:
            store = open_store(locator, token=self.store_token)
            self._stores[locator] = store
        return store

    def _checkpoint_for(self, cell: dict) -> Path:
        """Where this cell parks its mid-simulation snapshot.

        Cells carry a path inside the shared cache directory when the
        fleet runs on one filesystem.  Shared-tier runs (sqlite/HTTP
        store) quote no path, so the worker parks snapshots in a private
        temp directory — resume then only helps when *this* worker
        reclaims the cell, which is a pure optimisation; restarting is
        always correct.
        """
        quoted = cell.get("checkpoint_path") or ""
        if quoted:
            return Path(quoted)
        local_dir = Path(tempfile.gettempdir()) / f"repro-ckpt-{self.worker_id}"
        local_dir.mkdir(parents=True, exist_ok=True)
        return local_dir / f"{cell['outcome_key']}.ckpt"

    def _run_cell(self, lease: TaskLease, abandon: threading.Event) -> TaskResult:
        """Simulate one cell; outcomes go to the shared store, not the wire."""
        cell = lease.cell
        cache = self._store_for(cell["cache_root"])
        key = cell["outcome_key"]
        if cache.get(key) is not None:
            # Someone (an earlier attempt, a sibling worker) already stored
            # this outcome; committing the hit is all that is left to do.
            return TaskResult(lease_id=lease.lease_id,
                              worker_id=self.worker_id, ok=True,
                              outcome_key=key, cached=True)

        program, functional, tables = self._trace_for(
            cell["workload"], int(cell["scale"]), int(cell["max_instructions"]))
        machine = MachineConfig.from_dict(cell["machine"])
        reno = (RenoConfig.from_dict(cell["reno"])
                if cell.get("reno") is not None else None)
        renamer = (RenoRenamer(machine.num_physical_regs, reno)
                   if reno is not None else None)
        pipeline = Pipeline(
            program, functional.trace, machine, renamer=renamer, tables=tables,
            collect_timing=bool(cell["collect_timing"]),
            record_stats=bool(cell.get("record_stats", False)),
            backend=self.backend or cell.get("backend"),
        )

        checkpoint = self._checkpoint_for(cell)
        if checkpoint.exists():
            # A previous owner of this cell died mid-simulation; resume its
            # parked state.  Junk or mismatched checkpoints are discarded —
            # restarting is always correct, resuming is just faster.
            try:
                pipeline.restore(PipelineSnapshot.load(checkpoint))
            except (SnapshotError, OSError, ValueError):
                checkpoint.unlink(missing_ok=True)

        def on_slice(pipeline, partial):
            """Abort at the next slice boundary once told to abandon."""
            if abandon.is_set():
                raise _Abandoned(lease.lease_id)

        timing = run_sliced(
            pipeline, int(cell.get("slice_cycles") or 50_000),
            checkpoint_path=checkpoint, on_slice=on_slice)

        expected = list(functional.state.snapshot())
        if timing.final_registers != expected:
            return TaskResult(
                lease_id=lease.lease_id, worker_id=self.worker_id, ok=False,
                error=(f"architectural state diverged for {program.name} "
                       f"(reno={'on' if reno else 'off'})"))

        outcome = SimulationOutcome(program=program, functional=functional,
                                    timing=timing, reno_config=reno)
        cache.put(key, outcome)
        return TaskResult(lease_id=lease.lease_id, worker_id=self.worker_id,
                          ok=True, outcome_key=key, cached=False)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro worker``."""
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Pull and execute fleet cell leases from a repro broker.")
    parser.add_argument("--server", required=True,
                        help="fleet server base URL (http://host:port)")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker identity (default: worker-<pid>)")
    parser.add_argument("--poll-wait", type=float, default=5.0,
                        help="long-poll window per lease request (seconds)")
    parser.add_argument("--max-cells", type=int, default=None,
                        help="exit cleanly after this many cells")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="cycle-loop backend for every cell (python|"
                             "compiled; default: what each lease asks for)")
    parser.add_argument("--store", default=None, metavar="LOCATOR",
                        help="result-store override for every cell (path, "
                             "sqlite://PATH or http://host:port of a repro "
                             "store-serve; default: what each cell quotes)")
    parser.add_argument("--store-token", default=None, metavar="TOKEN",
                        help="bearer token for an HTTP store "
                             "(default: $REPRO_STORE_TOKEN)")
    options = parser.parse_args(argv)
    worker = FleetWorker(options.server, options.worker_id,
                         poll_wait_s=options.poll_wait,
                         max_cells=options.max_cells,
                         backend=options.backend,
                         store=options.store,
                         store_token=options.store_token)
    return worker.run()


if __name__ == "__main__":  # pragma: no cover - module execution guard
    raise SystemExit(main())
