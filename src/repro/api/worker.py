"""The fleet worker: a ``python -m repro worker`` lease puller.

One worker process serves one broker (:mod:`repro.api.fleet`): it says
hello (wire-schema negotiation), long-polls ``/fleet/lease`` for tasks,
runs each task — one workload's (machine × RENO) block — through
:func:`~repro.harness.executors.run_workload_block`, the function pool
workers run, and posts a :class:`~repro.api.schema.TaskResult`.
Everything result-shaped travels through the shared content-addressed
result store (:mod:`repro.store`) — the wire carries only one ``cached``
flag per cell — so the broker side reads outcomes exactly as a warm
cache hit and late/duplicate results cost nothing.  Each task quotes its
store locator; ``--store http://host:port`` (with ``--store-token`` /
``$REPRO_STORE_TOKEN``) overrides it so cross-host workers need no
shared filesystem.

Failure-tolerance mechanics (what the chaos harness exercises):

* a **heartbeat thread** renews the worker's lease every
  ``heartbeat_every_s``; a SIGSTOPped or dead worker stops heartbeating,
  its lease expires, and the broker requeues the task;
* each finished cell is stored before the next one starts, so the *next*
  owner of a requeued task reads every cell its predecessor finished as a
  store hit;
* when a heartbeat answer says ``abandon`` (the lease expired and was
  reassigned, or the job was cancelled) the worker stops before its next
  cell and posts nothing.

The worker is deliberately dependency-free (its one HTTP call is
:func:`repro.api.http.request`, over stdlib ``urllib``) and exits
with distinct codes: 0 on a clean drain/shutdown, 2 on registration
rejection (schema mismatch), 3 when the broker becomes unreachable.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import replace

from repro.api.http import TransportError, request
from repro.api.schema import TaskLease, TaskResult, WorkerHello
from repro.harness.executors import (
    ExecutionCancelled,
    WorkloadTask,
    run_workload_block,
)
from repro.store.base import open_store

#: Consecutive transport failures after which the worker gives up on the
#: broker and exits (exit code 3).
MAX_TRANSPORT_FAILURES = 5


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
        backend: Cycle-loop backend override for every task this worker
            runs (see :mod:`repro.uarch.backend`).  None uses the backend
            the lease's task asked for (what the submitting session
            requested); results are identical either way.
        store: Result-store locator override for every task
            (``--store``).  None opens whatever locator each task
            carries; a cross-host worker whose broker quoted a
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
        backend: str | None = None,
        store: str | None = None,
        store_token: str | None = None,
    ):
        """Create the worker (no network traffic until :meth:`run`)."""
        self.server_url = server_url.rstrip("/")
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.poll_wait_s = poll_wait_s
        self.backend = backend
        self.store = store
        self.store_token = store_token
        self.heartbeat_every_s = 2.0
        self._failures = 0
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
                if answer.get("lease") is not None:
                    self._execute_lease(TaskLease.from_dict(answer["lease"]))
        except _BrokerUnreachable as error:
            print(f"worker {self.worker_id}: {error}", file=sys.stderr)
            return 3
        except KeyboardInterrupt:
            return 0

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------

    def _execute_lease(self, lease: TaskLease) -> None:
        """Run one leased task and post its result (or failure)."""
        abandon = threading.Event()
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease, abandon, stop_heartbeat),
            name=f"heartbeat-{lease.lease_id}", daemon=True)
        heartbeat.start()
        try:
            result = self._run_task(lease, abandon)
        except ExecutionCancelled:
            # The broker reassigned the task (or cancelled the job); the
            # cells already stored stay for the next owner.  Nothing to
            # post: the lease is no longer ours.
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

    def _store_for(self, locator: str | None):
        """Open (and memoise) the result store a task's outcomes go to.

        A ``--store`` override wins over the locator quoted in the task —
        that is how a worker on another host replaces a broker path it
        cannot see with the fleet's ``repro store-serve`` URL.
        """
        locator = self.store or locator
        store = self._stores.get(locator)
        if store is None:
            store = open_store(locator, token=self.store_token)
            self._stores[locator] = store
        return store

    def _run_task(self, lease: TaskLease,
                  abandon: threading.Event) -> TaskResult:
        """Run one workload block into the shared store; raises
        :class:`~repro.harness.executors.ExecutionCancelled` once told to
        abandon."""
        task = WorkloadTask.from_wire(lease.task)
        block = run_workload_block(
            replace(task, backend=self.backend or task.backend),
            slim=True, cache=self._store_for(task.cache_root),
            cancel=abandon.is_set)
        return TaskResult(lease_id=lease.lease_id, worker_id=self.worker_id,
                          ok=True,
                          cached=[outcome.cached for _, outcome in block])
