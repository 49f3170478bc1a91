"""The distributed worker fleet: broker, fleet HTTP server, FleetExecutor.

``repro serve`` historically ran every grid cell in threads of one process.
This module is the path from one process to a fleet: a lease-based broker
hands each :class:`~repro.harness.executors.WorkloadTask` — one workload's
(machine × RENO) block, the unit the pool executor runs too — to ``python
-m repro worker`` pullers over the versioned HTTP wire schema
(:mod:`repro.api.schema`).  Three layers, separable for testing:

* :class:`FleetBroker` — the pure state machine: a fair-share task queue
  (round-robin across concurrent submissions), expiring leases with
  heartbeat renewal, bounded retry of expired/failed leases, backpressure
  (queue-depth cap, counted in cells), and exactly-once commit per task.
* :class:`FleetServer` — the broker's route table on the shared HTTP
  layer (:mod:`repro.api.http`):

  ========  =====================  ====================================
  method    path                   behaviour
  ========  =====================  ====================================
  GET       ``/healthz``           liveness probe
  GET       ``/fleet/stats``       broker queue/lease/worker snapshot
  POST      ``/fleet/hello``       worker registration + negotiation
  POST      ``/fleet/lease``       pull one lease (long-polls ``wait``)
  POST      ``/fleet/result``      commit one result (exactly-once)
  POST      ``/fleet/heartbeat``   extend leases, receive directives
  ========  =====================  ====================================
* :class:`FleetExecutor` — an :class:`~repro.harness.executors.Executor`
  implementation: it boots (or attaches to) a broker, keeps a target
  number of worker subprocesses alive, enqueues every task with a store
  miss, and assembles the deterministic grid-ordered blocks
  :func:`~repro.harness.runner.run_matrix` expects of every executor.

Determinism contract: results are **byte-identical** to
:class:`~repro.harness.executors.SerialExecutor` no matter how workers
die, stall or duplicate work.  Two mechanisms make that hold:

* every cell is a pure function of its content-addressed inputs, so a
  retried task recomputes the identical outcomes;
* outcomes travel through the shared content-addressed outcome cache
  (never the wire), so a late result from an expired lease is *dropped*
  by the broker without losing the work — every cell the first worker
  stored is a cache hit for the retry.

The chaos harness in ``tests/fleet/harness.py`` SIGKILLs, SIGSTOPs and
version-desyncs workers mid-grid and asserts exactly this contract.
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.api.http import JSONServer, RouteError, clamp_wait
from repro.api.schema import (
    WIRE_SCHEMA_VERSION,
    SchemaError,
    TaskLease,
    TaskResult,
    WorkerHello,
)
from repro.harness.executors import (
    FLEET_ENV,
    Block,
    ExecutionCancelled,
    GridKey,
    SerialExecutor,
    WorkloadTask,
    _progress_emitter,
    outcome_key,
    shared_program_digest,
)
from repro.store.base import ResultStore, open_store, process_local, store_locator
from repro.store.disk import DiskStore

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL_S = 10.0

#: Default bound on execution attempts per task (grants, not heartbeats).
DEFAULT_MAX_ATTEMPTS = 3

#: Default cap on broker queue depth (queued + leased cells) — the
#: backpressure limit behind the service's structured 429.
DEFAULT_MAX_QUEUE_DEPTH = 4096

#: Upper bound on a lease request's long-poll ``wait`` (seconds).
MAX_LEASE_WAIT_S = 30.0


class FleetError(RuntimeError):
    """Base class for fleet failures."""


class FleetSaturated(FleetError):
    """The broker queue is at its depth cap; the submission was refused.

    Carries ``queue_depth`` and ``max_queue_depth`` so HTTP front-ends can
    answer a structured 429 with the live numbers.
    """

    def __init__(self, message: str, queue_depth: int, max_queue_depth: int):
        """Create the error with the live depth numbers attached."""
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth


class FleetTaskError(FleetError):
    """A task exhausted its retry budget; the grid cannot complete."""


class FleetStalled(FleetError):
    """No task committed within the stall timeout (fleet dead/hung)."""


class WorkerRejected(FleetError):
    """A worker's hello was refused (wire schema version mismatch).

    ``payload`` is the structured rejection body the HTTP layer returns.
    """

    def __init__(self, message: str, payload: dict):
        """Create the rejection with its structured wire body."""
        super().__init__(message)
        self.payload = payload


class FleetProtocolError(FleetError):
    """A worker spoke out of turn (e.g. leased without a hello)."""


# ---------------------------------------------------------------------------
# Broker state records
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    """Broker-side record of one workload block (internal)."""

    key: object                    # the submitter's name for the task
    payload: dict
    cells: int
    job_tag: str
    state: str = "queued"          # queued | leased | done | failed | cancelled
    attempts: int = 0


@dataclass
class _Lease:
    """Broker-side record of one live lease (internal)."""

    lease_id: str
    task: _Task
    worker_id: str
    deadline: float


@dataclass
class _FleetJob:
    """Broker-side record of one submitted grid (internal)."""

    total: int
    remaining: int
    events: list = field(default_factory=list)
    error: str | None = None
    cancelled: bool = False

    @property
    def done(self) -> bool:
        """Whether the job can no longer make progress."""
        return self.remaining <= 0 or self.error is not None or self.cancelled


@dataclass
class _Worker:
    """Broker-side record of one registered worker (internal)."""

    hello: WorkerHello
    last_seen: float
    leases_granted: int = 0


# ---------------------------------------------------------------------------
# The broker
# ---------------------------------------------------------------------------


class FleetBroker:
    """Lease-based fair-share task queue (the fleet's state machine).

    Thread-safe; every public method may be called from HTTP handler
    threads and the executor's wait loop concurrently.  Time is injectable
    (``clock``) so lease-expiry behaviour is testable without sleeping.

    Args:
        lease_ttl_s: Seconds a lease survives without a heartbeat.
        max_attempts: Execution attempts per task before the task (and
            its job) fail.
        max_queue_depth: Cap on the cells of queued and leased tasks;
            submissions past it raise :class:`FleetSaturated` (the
            backpressure bound).
        clock: Monotonic time source (tests inject a fake).
    """

    #: Queue/lease/worker state mutated from HTTP handler threads and the
    #: executor's wait loop; only touch under ``self._lock`` (enforced by
    #: the ``lock-discipline`` lint rule).
    _GUARDED_BY_LOCK = (
        "_jobs",
        "_queues",
        "_rr",
        "_leases",
        "_workers",
        "_draining",
        "_next_lease",
        "counters",
    )

    def __init__(
        self,
        *,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        clock=time.monotonic,
    ):
        """Create an empty broker with the given policy knobs."""
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_every_s = max(0.05, min(lease_ttl_s / 3.0, 2.0))
        self.max_attempts = max_attempts
        self.max_queue_depth = max_queue_depth
        self._clock = clock
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)     # lease waiters
        self._events = threading.Condition(self._lock)   # commit waiters
        self._jobs: dict[str, _FleetJob] = {}
        self._queues: dict[str, deque[_Task]] = {}
        self._rr: deque[str] = deque()                   # fair-share rotation
        self._leases: dict[str, _Lease] = {}
        self._workers: dict[str, _Worker] = {}
        self._draining = False
        self._next_lease = 1
        self.counters = {
            "commits": 0,           # tasks committed exactly once
            "retries": 0,           # expired/failed leases sent back to queue
            "late_results": 0,      # results dropped (lease no longer live)
            "failures": 0,          # tasks that exhausted the retry budget
            "leases_granted": 0,
            "cancelled_cells": 0,
        }

    # ------------------------------------------------------------------
    # Worker registration / negotiation
    # ------------------------------------------------------------------

    def register(self, hello: WorkerHello) -> dict:
        """Register a worker after wire-schema negotiation.

        A worker advertising an *older* :data:`WIRE_SCHEMA_VERSION` gets a
        structured :class:`WorkerRejected` (it cannot interpret this
        broker's leases); a *newer* one was already refused by
        :meth:`WorkerHello.from_dict` per the standard
        :class:`~repro.api.schema.SchemaError` policy.
        """
        if hello.schema_version < WIRE_SCHEMA_VERSION:
            payload = {
                "schema_version": WIRE_SCHEMA_VERSION,
                "error": (
                    f"worker {hello.worker_id!r} speaks wire schema "
                    f"{hello.schema_version}, older than the broker's "
                    f"{WIRE_SCHEMA_VERSION}; upgrade the worker"
                ),
                "supported_version": WIRE_SCHEMA_VERSION,
                "advertised_version": hello.schema_version,
            }
            raise WorkerRejected(payload["error"], payload)
        with self._lock:
            self._workers[hello.worker_id] = _Worker(
                hello=hello, last_seen=self._clock())
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "ok": True,
            "worker_id": hello.worker_id,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_every_s": self.heartbeat_every_s,
        }

    def worker_count(self) -> int:
        """Number of workers that have said hello."""
        with self._lock:
            return len(self._workers)

    # ------------------------------------------------------------------
    # Submission / backpressure
    # ------------------------------------------------------------------

    def depth(self) -> int:
        """Cells of the queued and leased tasks (the backpressure quantity)."""
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return (sum(task.cells for queue in self._queues.values()
                    for task in queue)
                + sum(lease.task.cells for lease in self._leases.values()))

    def admit(self, cells: int) -> None:
        """Raise :class:`FleetSaturated` if ``cells`` more would overflow.

        Advisory (the depth can change between this check and the actual
        submission); :meth:`submit_tasks` re-enforces the cap.
        """
        with self._lock:
            self._check_depth_locked(cells)

    def _check_depth_locked(self, incoming: int) -> None:
        depth = self._depth_locked()
        if depth + incoming > self.max_queue_depth:
            raise FleetSaturated(
                f"fleet queue is saturated: {depth} cells in flight plus "
                f"{incoming} submitted would exceed the cap of "
                f"{self.max_queue_depth}; retry when the queue drains",
                queue_depth=depth,
                max_queue_depth=self.max_queue_depth,
            )

    def submit_tasks(self, job_tag: str,
                     tasks: list[tuple[object, dict, int]]) -> None:
        """Enqueue one job's tasks: ``[(key, task_payload, cells), ...]``.

        ``key`` names the task in commit events and errors; ``cells`` is
        its grid-cell count, the unit of the depth cap.  Raises
        :class:`FleetSaturated` past the depth cap and ValueError on a
        reused tag (tags are one-shot submission identities).
        """
        if not tasks:
            return
        with self._lock:
            if job_tag in self._jobs:
                raise ValueError(f"job tag {job_tag!r} already submitted")
            self._check_depth_locked(sum(cells for _, _, cells in tasks))
            job = _FleetJob(total=len(tasks), remaining=len(tasks))
            self._jobs[job_tag] = job
            queue = self._queues.setdefault(job_tag, deque())
            for key, payload, cells in tasks:
                queue.append(_Task(key=key, payload=payload, cells=cells,
                                   job_tag=job_tag))
            self._rr.append(job_tag)
            self._work.notify_all()

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------

    def lease(self, worker_id: str, wait: float = 0.0) -> TaskLease | None:
        """Grant the next task to ``worker_id`` (fair-share round-robin).

        Blocks up to ``wait`` seconds for work.  Returns None when there is
        none (or the broker is draining); raises
        :class:`FleetProtocolError` for a worker that never said hello
        (the HTTP layer answers 409, telling the worker to re-register).
        """
        deadline = self._clock() + max(0.0, wait)
        with self._lock:
            while True:
                worker = self._workers.get(worker_id)
                if worker is None:
                    raise FleetProtocolError(
                        f"unknown worker {worker_id!r}; say hello first")
                worker.last_seen = self._clock()
                if self._draining:
                    return None
                self._sweep_expired_locked()
                task = self._next_task_locked()
                if task is not None:
                    return self._grant_locked(task, worker)
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return None
                # Short waits so expiring leases are swept while blocked.
                self._work.wait(min(remaining, self.heartbeat_every_s))

    def _next_task_locked(self) -> _Task | None:
        """Pop the next queued task, rotating fairly across job tags."""
        for _ in range(len(self._rr)):
            tag = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tag)
            if queue:
                return queue.popleft()
        return None

    def _grant_locked(self, task: _Task, worker: _Worker) -> TaskLease:
        lease_id = f"lease-{self._next_lease:06d}"
        self._next_lease += 1
        task.state = "leased"
        task.attempts += 1
        lease = _Lease(lease_id=lease_id, task=task,
                       worker_id=worker.hello.worker_id,
                       deadline=self._clock() + self.lease_ttl_s)
        self._leases[lease_id] = lease
        worker.leases_granted += 1
        self.counters["leases_granted"] += 1
        return TaskLease(
            lease_id=lease_id,
            job_tag=task.job_tag,
            task=task.payload,
            attempt=task.attempts,
            lease_ttl_s=self.lease_ttl_s,
            heartbeat_every_s=self.heartbeat_every_s,
        )

    def _sweep_expired_locked(self) -> None:
        """Requeue (or fail) every lease whose deadline has passed."""
        now = self._clock()
        for lease_id in [lid for lid, lease in self._leases.items()
                         if lease.deadline < now]:
            lease = self._leases.pop(lease_id)
            self._retry_or_fail_locked(
                lease.task,
                f"lease {lease_id} of worker {lease.worker_id!r} expired "
                f"(no heartbeat within {self.lease_ttl_s}s)")

    def _retry_or_fail_locked(self, task: _Task, reason: str) -> None:
        job = self._jobs.get(task.job_tag)
        if job is None or job.cancelled:
            task.state = "cancelled"
            return
        if task.attempts >= self.max_attempts:
            task.state = "failed"
            self.counters["failures"] += 1
            job.error = (f"task {task.key} failed after "
                         f"{task.attempts} attempts: {reason}")
            self._events.notify_all()
            return
        task.state = "queued"
        self.counters["retries"] += 1
        # Front of the queue: a retried task is partly or wholly store hits
        # (its first worker stored every cell it finished before dying), so
        # letting it jump the line keeps job completion latency bounded.
        self._queues.setdefault(task.job_tag, deque()).appendleft(task)
        self._work.notify_all()

    # ------------------------------------------------------------------
    # Heartbeats / results
    # ------------------------------------------------------------------

    def heartbeat(self, worker_id: str, lease_ids: list[str]) -> dict:
        """Extend the given leases; return a per-lease directive map.

        ``"keep"`` means carry on; ``"abandon"`` means stop working on the
        task (the lease expired and was reassigned, or its job was
        cancelled) — the cells the worker already stored stay in the store
        for the next owner.
        """
        directives: dict[str, str] = {}
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
            self._sweep_expired_locked()
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if (lease is None or lease.worker_id != worker_id
                        or lease.task.state == "cancelled"):
                    directives[lease_id] = "abandon"
                    continue
                lease.deadline = self._clock() + self.lease_ttl_s
                directives[lease_id] = "keep"
        return {"schema_version": WIRE_SCHEMA_VERSION, "directives": directives}

    def complete(self, result: TaskResult) -> bool:
        """Commit (or reject) one worker result — the exactly-once gate.

        Only a *live* lease may commit its task; late results (expired or
        reassigned leases, cancelled jobs) are counted and dropped — their
        work is not lost, because the worker already stored the outcomes in
        the shared cache and the retry will hit them.  A result whose
        ``cached`` flags do not cover the task's cells counts as a failed
        attempt.  Returns True when the result was accepted.
        """
        with self._lock:
            lease = self._leases.pop(result.lease_id, None)
            if lease is None or lease.task.state != "leased":
                self.counters["late_results"] += 1
                return False
            task = lease.task
            job = self._jobs.get(task.job_tag)
            if job is None or job.cancelled:
                task.state = "cancelled"
                self.counters["late_results"] += 1
                return False
            if not result.ok or len(result.cached) != task.cells:
                self._retry_or_fail_locked(task, result.error or (
                    "worker reported failure" if not result.ok else
                    f"worker reported {len(result.cached)} cached flags "
                    f"for {task.cells} cells"))
                return True
            task.state = "done"
            job.remaining -= 1
            job.events.append((task.key, list(result.cached)))
            self.counters["commits"] += 1
            self._events.notify_all()
            return True

    # ------------------------------------------------------------------
    # Executor-facing surface
    # ------------------------------------------------------------------

    def wait_job(self, job_tag: str, timeout: float) -> tuple[list, bool, str | None]:
        """Drain new commit events for one job (blocking up to ``timeout``).

        Returns ``(events, done, error)`` where each event is
        ``(task key, per-cell cached flags)``.  ``done`` covers success,
        failure and cancellation alike; the caller inspects ``error``.
        """
        with self._lock:
            job = self._jobs.get(job_tag)
            if job is None:
                raise KeyError(f"unknown fleet job {job_tag!r}")
            self._sweep_expired_locked()
            if not job.events and not job.done and timeout > 0:
                self._events.wait(timeout)
                self._sweep_expired_locked()
            events, job.events = job.events, []
            return events, job.done, job.error

    def cancel_job(self, job_tag: str) -> int:
        """Drop a job's queued tasks and mark its leased tasks abandoned.

        This is what makes cancellation *real* for fleet jobs: queued but
        unleased tasks leave the broker queue immediately (workers stop
        receiving them), and in-flight leases are told to abandon on their
        next heartbeat.  Returns how many cells the dropped tasks held.
        """
        with self._lock:
            job = self._jobs.get(job_tag)
            if job is None:
                return 0
            job.cancelled = True
            queue = self._queues.get(job_tag)
            dropped = 0
            if queue:
                dropped = sum(task.cells for task in queue)
                for task in queue:
                    task.state = "cancelled"
                queue.clear()
            for lease in self._leases.values():
                if lease.task.job_tag == job_tag:
                    lease.task.state = "cancelled"
            self.counters["cancelled_cells"] += dropped
            self._events.notify_all()
            self._work.notify_all()
            return dropped

    def forget_job(self, job_tag: str) -> None:
        """Release a finished job's bookkeeping (executor cleanup)."""
        with self._lock:
            self._jobs.pop(job_tag, None)
            self._queues.pop(job_tag, None)
            if job_tag in self._rr:
                self._rr.remove(job_tag)

    def drain(self) -> None:
        """Stop granting leases; pollers are told to shut down."""
        with self._lock:
            self._draining = True
            self._work.notify_all()
            self._events.notify_all()

    @property
    def draining(self) -> bool:
        """Whether the broker has stopped granting leases."""
        with self._lock:
            return self._draining

    def stats(self) -> dict:
        """A JSON-safe snapshot of queue/lease/worker state (``/fleet/stats``)."""
        with self._lock:
            now = self._clock()
            return {
                "schema_version": WIRE_SCHEMA_VERSION,
                "queued": sum(len(q) for q in self._queues.values()),
                "leased": len(self._leases),
                "depth": self._depth_locked(),
                "max_queue_depth": self.max_queue_depth,
                "lease_ttl_s": self.lease_ttl_s,
                "draining": self._draining,
                "workers": {
                    worker_id: {
                        "pid": record.hello.pid,
                        "host": record.hello.host,
                        "last_seen_age_s": max(0.0, now - record.last_seen),
                        "leases_granted": record.leases_granted,
                    }
                    for worker_id, record in self._workers.items()
                },
                "jobs": {
                    tag: {"total": job.total,
                          "remaining": job.remaining,
                          "cancelled": job.cancelled,
                          "error": job.error}
                    for tag, job in self._jobs.items()
                },
                "counters": dict(self.counters),
            }


# ---------------------------------------------------------------------------
# The fleet HTTP server
# ---------------------------------------------------------------------------


class FleetServer(JSONServer):
    """The fleet endpoints (module docstring) over one :class:`FleetBroker`."""

    def __init__(self, address, broker: FleetBroker):
        """Bind to ``address`` and serve ``broker``."""
        self.broker = broker
        super().__init__(address, [
            ("GET", "/fleet/stats", lambda request: (200, broker.stats())),
            ("POST", "/fleet/hello", self._hello),
            ("POST", "/fleet/lease", self._lease),
            ("POST", "/fleet/result", self._result),
            ("POST", "/fleet/heartbeat", self._heartbeat),
        ], WIRE_SCHEMA_VERSION,
            errors={SchemaError: 400, FleetProtocolError: 409})

    def _hello(self, request) -> tuple[int, dict]:
        try:
            hello = WorkerHello.from_dict(request.read_json())
            return 200, self.broker.register(hello)
        except WorkerRejected as error:
            return 426, error.payload

    def _lease(self, request) -> tuple[int, dict]:
        payload = request.read_json()
        wait = clamp_wait(payload.get("wait"), MAX_LEASE_WAIT_S)
        lease = self.broker.lease(str(payload.get("worker_id", "")), wait=wait)
        return 200, {"schema_version": WIRE_SCHEMA_VERSION,
                     "lease": lease.to_dict() if lease is not None else None,
                     "shutdown": self.broker.draining}

    def _result(self, request) -> tuple[int, dict]:
        accepted = self.broker.complete(TaskResult.from_dict(request.read_json()))
        return 200, {"schema_version": WIRE_SCHEMA_VERSION, "accepted": accepted}

    def _heartbeat(self, request) -> tuple[int, dict]:
        payload = request.read_json()
        lease_ids = payload.get("leases") or []
        if not isinstance(lease_ids, list):
            raise RouteError(400, "leases must be a list of lease ids")
        return 200, self.broker.heartbeat(str(payload.get("worker_id", "")),
                                          [str(lease_id) for lease_id in lease_ids])


def make_fleet_server(host: str = "127.0.0.1", port: int = 0,
                      broker: FleetBroker | None = None) -> FleetServer:
    """Create (but do not start) a :class:`FleetServer`.

    ``port=0`` binds an ephemeral free port; the chosen URL is
    ``server.url``.  Callers drive it from a thread via
    ``serve_forever()``/``shutdown()``.
    """
    return FleetServer((host, port), broker or FleetBroker())


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class FleetExecutor:
    """Run experiment grids on a broker/worker fleet (Executor protocol).

    On first use it boots a :class:`FleetServer` around its broker and
    spawns ``workers`` ``python -m repro worker`` subprocesses pointed at
    it; extra workers (other processes, other hosts sharing the cache
    directory) may attach to :attr:`url` at any time.  Each ``execute``
    call reads every cell from the shared store first, answers each task
    whose cells all hit locally, enqueues the other tasks whole — one
    lease each — under one fair-share job tag, and reads their outcomes
    back from the store as they commit.

    Results are byte-identical to :class:`SerialExecutor`; only wall-clock
    time, worker placement and outcome slimness (cache-loaded outcomes
    have ``program``/``functional`` None, like every pooled backend)
    differ.  Tasks whose workloads are not in the registry (ad-hoc
    Workload objects) cannot be named on the wire, and workers cannot
    reach a store that exists only in this process (``sqlite://:memory:``);
    both fall back to the serial path, mirroring
    :class:`ProcessExecutor`'s fallbacks.

    Args:
        workers: Worker subprocesses to keep alive (0 = externally
            managed workers only).
        host: Bind address of the fleet server.
        port: TCP port (0 = ephemeral).
        lease_ttl_s / max_attempts / max_queue_depth:
            Broker policy knobs (see :class:`FleetBroker`).
        cache: Default shared result store for runs that supply none —
            a store instance or any locator (directory path,
            ``sqlite://<path>``, ``http://host:port`` of a ``repro
            store-serve``).  The fleet *requires* a shared store for
            result transport; with an HTTP locator workers need no
            shared filesystem at all.  None creates a private temp-dir
            disk cache.
        respawn: Keep the worker pool at ``workers`` by respawning dead
            processes (the chaos harness disables this to control the
            population itself).
        stall_timeout_s: Raise :class:`FleetStalled` when no task commits
            for this long (guards against a dead fleet hanging a job
            forever).
        broker: Attach to an existing broker instead of creating one
            (tests compose a broker, server and executor separately).
    """

    #: Lifecycle state shared between execute() callers, the maintenance
    #: path and close(); only touch under ``self._lock`` (enforced by the
    #: ``lock-discipline`` lint rule).
    _GUARDED_BY_LOCK = (
        "_server",
        "_server_thread",
        "processes",
        "_next_tag",
        "_next_worker",
        "_closed",
        "_own_cache_dir",
    )

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        cache: ResultStore | str | Path | None = None,
        respawn: bool = True,
        stall_timeout_s: float = 300.0,
        broker: FleetBroker | None = None,
    ):
        """Create the executor (the fleet itself boots lazily)."""
        self.workers = max(0, workers)
        self._host = host
        self._port = port
        self.broker = broker or FleetBroker(
            lease_ttl_s=lease_ttl_s,
            max_attempts=max_attempts,
            max_queue_depth=max_queue_depth,
        )
        self.respawn = respawn
        self.stall_timeout_s = stall_timeout_s
        self._cache_arg = cache
        self._own_cache_dir: str | None = None
        self._server: FleetServer | None = None
        self._server_thread: threading.Thread | None = None
        self.processes: list[subprocess.Popen] = []
        self._lock = threading.Lock()
        self._next_tag = 1
        self._next_worker = 1
        self._closed = False

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------

    @property
    def url(self) -> str | None:
        """The fleet server's base URL (None before the fleet started)."""
        with self._lock:
            return self._server.url if self._server is not None else None

    def ensure_started(self) -> str:
        """Boot the fleet server and worker pool if needed; return the URL."""
        with self._lock:
            if self._closed:
                raise FleetError("fleet executor is closed")
            if self._server is None:
                self._server = FleetServer((self._host, self._port), self.broker)
                self._server_thread = threading.Thread(
                    target=self._server.serve_forever,
                    name="repro-fleet-server", daemon=True)
                self._server_thread.start()
            url = self._server.url
            while len(self._live_processes_locked()) < self.workers:
                self._spawn_worker_locked(url)
        return url

    def spawn_worker(self) -> subprocess.Popen:
        """Spawn one additional worker subprocess (harness/elastic scale-out)."""
        url = self.ensure_started()
        with self._lock:
            return self._spawn_worker_locked(url)

    def _spawn_worker_locked(self, url: str) -> subprocess.Popen:
        worker_id = f"worker-{os.getpid()}-{self._next_worker}"
        self._next_worker += 1
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--server", url, "--worker-id", worker_id],
            stdout=subprocess.DEVNULL,
            env=env,
        )
        self.processes.append(process)
        return process

    def _live_processes_locked(self) -> list[subprocess.Popen]:
        live = []
        for process in list(self.processes):
            if process.poll() is None:
                live.append(process)
            else:
                self.processes.remove(process)
        return live

    def _maintain_workers(self) -> None:
        """Reap dead workers and, when ``respawn`` is on, replace them."""
        with self._lock:
            if self._closed or self._server is None:
                return
            live = self._live_processes_locked()
            if self.respawn:
                url = self._server.url
                while len(live) < self.workers:
                    live.append(self._spawn_worker_locked(url))

    def close(self) -> None:
        """Drain the broker, stop the workers, shut the server down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            server, self._server = self._server, None
            thread, self._server_thread = self._server_thread, None
            processes, self.processes = list(self.processes), []
            own_cache_dir, self._own_cache_dir = self._own_cache_dir, None
        self.broker.drain()
        for process in processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + 5.0
        for process in processes:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=10)
        if own_cache_dir is not None:
            import shutil

            shutil.rmtree(own_cache_dir, ignore_errors=True)

    def __enter__(self) -> "FleetExecutor":
        """Context-manager entry (returns the executor)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close` the fleet."""
        self.close()

    # ------------------------------------------------------------------
    # Admission control (the service's backpressure hook)
    # ------------------------------------------------------------------

    def admit(self, cells: int | None) -> None:
        """Refuse a submission that would overflow the broker queue.

        :meth:`repro.api.session.Session.submit` calls this with the
        estimated cell count before accepting a job; ``repro serve`` maps
        the raised :class:`FleetSaturated` onto a structured 429.  A None
        estimate (custom-runner experiments) is admitted — the hard cap in
        :meth:`FleetBroker.submit_tasks` still applies when tasks enqueue.
        """
        if cells is not None:
            self.broker.admit(cells)

    # ------------------------------------------------------------------
    # The Executor protocol
    # ------------------------------------------------------------------

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: ResultStore | None,
        progress=None,
        cancel=None,
    ) -> list[Block]:
        """Run the tasks on the fleet, one lease per task with a store miss
        (deterministic block order)."""
        if not tasks:
            return []
        if process_local(cache) or not self._tasks_shippable(tasks):
            return SerialExecutor().execute(tasks, cache, progress=progress,
                                            cancel=cancel)
        cache = cache if cache is not None else self._default_cache()
        emit = _progress_emitter(progress)
        cache_root = store_locator(cache)
        blocks: list[Block | None] = [None] * len(tasks)
        # Per leased task: each cell's grid key, store key and pre-read.
        cells: dict[int, list[tuple[GridKey, str, object]]] = {}
        pending: list[tuple[tuple[int, str], dict, int]] = []
        for index, task in enumerate(tasks):
            digest = shared_program_digest(task.workload, task.scale)
            read = []
            for machine_label, machine in task.machines:
                for reno_label, reno in task.renos:
                    key = outcome_key(digest, machine, reno,
                                      task.max_instructions,
                                      task.collect_timing, task.record_stats)
                    read.append(((task.workload.name, machine_label,
                                  reno_label), key, cache.get(key)))
            if any(outcome is None for _, _, outcome in read):
                cells[index] = read
                pending.append(((index, task.workload.name), replace(
                    task, cache_root=cache_root).to_wire(), task.cells))
                continue
            blocks[index] = [(grid_key, outcome)
                             for grid_key, _, outcome in read]
            if emit is not None:
                for grid_key, outcome in blocks[index]:
                    emit(grid_key, True, outcome)

        if pending:
            self.ensure_started()
            with self._lock:
                tag = f"grid-{os.getpid()}-{self._next_tag}"
                self._next_tag += 1
            self.broker.submit_tasks(tag, pending)
            try:
                self._await_job(tag, cache, cells, blocks, emit, cancel)
            finally:
                self.broker.forget_job(tag)
        return blocks

    def _await_job(self, tag, cache, cells, blocks, emit, cancel) -> None:
        """Drive one submitted job to completion (commits, chaos, cancel),
        filling ``blocks`` as tasks commit."""
        last_progress = time.monotonic()
        while True:
            if cancel is not None and cancel():
                dropped = self.broker.cancel_job(tag)
                raise ExecutionCancelled(
                    f"fleet job {tag} cancelled "
                    f"({dropped} queued cells dropped)")
            events, done, error = self.broker.wait_job(tag, timeout=0.1)
            for (index, _), flags in events:
                block: Block = []
                for (grid_key, key, outcome), cached in zip(cells[index],
                                                            flags):
                    outcome = outcome if outcome is not None else cache.get(key)
                    if outcome is None:
                        # Committed by a worker but unreadable here: a
                        # shared-cache misconfiguration, not a sim failure.
                        raise FleetError(
                            f"cell {grid_key} committed but its outcome "
                            f"{key[:12]}… is unreadable from the shared "
                            f"cache at {store_locator(cache)}")
                    block.append((grid_key, outcome))
                    if emit is not None:
                        emit(grid_key, cached, outcome)
                blocks[index] = block
                last_progress = time.monotonic()
            if error is not None:
                raise FleetTaskError(error)
            if done:
                return
            self._maintain_workers()
            if time.monotonic() - last_progress > self.stall_timeout_s:
                raise FleetStalled(
                    f"fleet job {tag} made no progress for "
                    f"{self.stall_timeout_s}s; broker state: "
                    f"{json.dumps(self.broker.stats()['counters'])}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _tasks_shippable(tasks: list[WorkloadTask]) -> bool:
        """Whether every task's workload resolves by name on a worker."""
        from repro.workloads.base import get_workload

        for task in tasks:
            try:
                if get_workload(task.workload.name) is not task.workload:
                    return False
            except KeyError:
                return False
        return True

    def _default_cache(self) -> ResultStore:
        """The executor's fallback shared store (runs that supply none).

        Accepts any result-store instance or locator — a directory path,
        ``sqlite://<path>``, or the ``http://host:port`` of a ``repro
        store-serve`` (workers then need no shared filesystem at all).
        """
        if self._cache_arg is not None:
            return open_store(self._cache_arg)
        with self._lock:
            if self._own_cache_dir is None:
                self._own_cache_dir = tempfile.mkdtemp(
                    prefix="repro-fleet-cache-")
            own_cache_dir = self._own_cache_dir
        return DiskStore(own_cache_dir)


# ---------------------------------------------------------------------------
# The process-shared fleet (jobs="fleet" / $REPRO_FLEET)
# ---------------------------------------------------------------------------

_shared_fleet: FleetExecutor | None = None
_shared_fleet_lock = threading.Lock()


def shared_fleet() -> FleetExecutor:
    """The lazily created process-wide fleet behind ``jobs="fleet"``.

    Worker count comes from ``$REPRO_FLEET`` (an integer >= 1; unset or
    empty means 2).  One fleet per process: repeated grid runs reuse
    the same broker, server and worker pool instead of booting a fleet per
    call.  The fleet is closed at interpreter exit — draining the broker
    tells the workers to shut down cleanly instead of dying mid-poll when
    the daemon server thread disappears.

    Raises:
        ValueError: ``$REPRO_FLEET`` is set to anything but an integer >= 1.
    """
    value = os.environ.get(FLEET_ENV, "").strip() or "2"
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"invalid ${FLEET_ENV} value {value!r}: expected an integer >= 1")
    global _shared_fleet
    with _shared_fleet_lock:
        if _shared_fleet is None or _shared_fleet._closed:
            _shared_fleet = FleetExecutor(workers=workers)
            atexit.register(_shared_fleet.close)
        return _shared_fleet
