"""Versioned wire schema of the ``repro.api`` surface.

Everything that crosses the API boundary — a submitted experiment request,
a job status, a finished report — has a plain-dict form with an explicit
``schema_version``, so clients and servers from different versions of this
package fail loudly instead of misreading each other:

* :class:`ExperimentRequest` — what ``POST /experiments`` accepts and what
  :meth:`repro.api.session.Session.submit` consumes.  Its :meth:`digest` is
  the content address used for request coalescing.
* :class:`JobStatus` — what ``GET /jobs/<id>`` returns: lifecycle state,
  per-cell progress, and (on success) the serialised
  :class:`~repro.harness.experiments.ExperimentReport`.
* :class:`JobState` — the job lifecycle constants.
* The **fleet messages** — :class:`WorkerHello`, :class:`TaskLease`,
  :class:`TaskResult` — spoken between the broker
  (:mod:`repro.api.fleet`) and ``python -m repro worker`` pullers.

The report payload itself is versioned separately by
:data:`~repro.analysis.report.REPORT_SCHEMA_VERSION` (stamped inside
``ExperimentReport.to_dict``); :data:`WIRE_SCHEMA_VERSION` covers the
request/response envelopes defined here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

#: Version of the request/response envelopes in this module.  History:
#:
#: * **1** — initial ``repro serve`` schema (requests, job status).
#: * **2** — distributed-fleet messages (:class:`WorkerHello`,
#:   :class:`TaskLease`, :class:`TaskResult`).  Existing envelopes are
#:   unchanged and version-1 payloads still read fine; the bump exists so
#:   brokers and workers can *negotiate*: a worker advertising an older
#:   version is refused with a structured error (it cannot interpret
#:   leases), a newer one is refused by :func:`_check_wire_version`.
#: * **3** — a lease is one workload block: :class:`TaskLease` carries a
#:   ``task`` (:meth:`repro.harness.executors.WorkloadTask.to_wire`)
#:   instead of one ``cell``, and :class:`TaskResult` reports one
#:   ``cached`` flag per cell instead of an ``outcome_key``.
#:
#: Bump on any incompatible envelope change; see
#: :func:`repro.analysis.report.check_schema_version` for the read policy.
WIRE_SCHEMA_VERSION = 3


class SchemaError(ValueError):
    """A wire payload is malformed or from an unsupported schema version."""


def _check_wire_version(payload: dict, kind: str) -> None:
    version = payload.get("schema_version", 1)
    if not isinstance(version, int) or version < 1:
        raise SchemaError(f"malformed {kind} schema_version: {version!r}")
    if version > WIRE_SCHEMA_VERSION:
        raise SchemaError(
            f"{kind} uses wire schema {version}, newer than the supported "
            f"{WIRE_SCHEMA_VERSION}; upgrade this package to read it"
        )


class JobState:
    """Lifecycle states of a submitted job (plain string constants).

    ``PENDING → RUNNING → (SUCCEEDED | FAILED | CANCELLED)``; the three
    right-hand states are terminal.
    """

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = frozenset({SUCCEEDED, FAILED, CANCELLED})


@dataclass
class ExperimentRequest:
    """One experiment submission: which registered experiment, on what grid.

    Attributes:
        experiment: Registry name (``"fig8"``, ``"scale_sweep"``, ...).
        suite: Workload suite, or None for the experiment's default.
        workloads: Explicit workload subset, or None for the full suite.
        scale: Workload scale factor (``scale_sweep`` ignores it and reads
            ``params["scales"]`` instead).
        params: Extra experiment parameters (e.g. ``register_sizes`` for
            ``fig11_regs``); values must be JSON-serialisable on the wire.
    """

    experiment: str
    suite: str | None = None
    workloads: list[str] | None = None
    scale: int = 1
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`SchemaError` on a structurally invalid request."""
        if not self.experiment or not isinstance(self.experiment, str):
            raise SchemaError(f"experiment must be a non-empty string, "
                              f"got {self.experiment!r}")
        if self.suite is not None and not isinstance(self.suite, str):
            raise SchemaError(f"suite must be a string or null, got {self.suite!r}")
        if self.workloads is not None:
            if (not isinstance(self.workloads, (list, tuple))
                    or not all(isinstance(name, str) for name in self.workloads)):
                raise SchemaError(f"workloads must be a list of names, "
                                  f"got {self.workloads!r}")
        if not isinstance(self.scale, int) or self.scale < 1:
            raise SchemaError(f"scale must be an integer >= 1, got {self.scale!r}")
        if not isinstance(self.params, dict):
            raise SchemaError(f"params must be an object, got {self.params!r}")

    def to_dict(self) -> dict:
        """JSON-safe form (the ``POST /experiments`` body)."""
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "experiment": self.experiment,
            "suite": self.suite,
            "workloads": list(self.workloads) if self.workloads is not None else None,
            "scale": self.scale,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentRequest":
        """Inverse of :meth:`to_dict`; validates shape and schema version."""
        if not isinstance(payload, dict):
            raise SchemaError(f"request body must be a JSON object, got "
                              f"{type(payload).__name__}")
        _check_wire_version(payload, "request")
        params = payload.get("params")
        request = cls(
            experiment=payload.get("experiment", ""),
            suite=payload.get("suite"),
            workloads=payload.get("workloads"),
            scale=payload.get("scale", 1),
            params={} if params is None else params,
        )
        request.validate()
        return request

    def digest(self) -> str:
        """Content address of this request (the coalescing key).

        Canonical JSON over every request field: two requests digest alike
        exactly when they describe the same experiment run.  Tuples are
        serialised as JSON arrays, so in-process callers passing tuples and
        wire callers sending lists coalesce together.
        """
        try:
            material = json.dumps(self.to_dict(), sort_keys=True)
        except (TypeError, ValueError) as error:
            raise SchemaError(
                f"request is not content-addressable (non-JSON params?): {error}"
            ) from error
        return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class JobStatus:
    """A point-in-time view of one job (the ``GET /jobs/<id>`` payload).

    Attributes:
        job_id: Server-assigned identifier.
        state: One of the :class:`JobState` constants.
        experiment: The requested experiment's registry name.
        request: The originating request in dict form.
        cells_done: Grid cells whose outcomes are available so far.
        cells_total: Total grid cells, or None when the experiment's shape
            is not a single grid (custom runners like ``scale_sweep``).
        cells_cached: How many completed cells were outcome-cache hits.
        error: Failure message (``state == "failed"`` only).
        report: Serialised report (``state == "succeeded"`` only).
        occupancy: Live per-cell occupancy/utilization summaries
            (``"workload/machine/reno"`` →
            :meth:`repro.uarch.observe.OccupancyStats.summary`), populated
            incrementally as cells finish when the experiment records
            occupancy statistics; None otherwise.  Additive field — the
            wire schema version is unchanged.
    """

    job_id: str
    state: str
    experiment: str
    request: dict = field(default_factory=dict)
    cells_done: int = 0
    cells_total: int | None = None
    cells_cached: int = 0
    error: str | None = None
    report: dict | None = None
    occupancy: dict | None = None

    def to_dict(self) -> dict:
        """JSON-safe form (the ``GET /jobs/<id>`` body)."""
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "experiment": self.experiment,
            "request": self.request,
            "cells_done": self.cells_done,
            "cells_total": self.cells_total,
            "cells_cached": self.cells_cached,
            "error": self.error,
            "report": self.report,
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobStatus":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        if not isinstance(payload, dict):
            raise SchemaError(f"status body must be a JSON object, got "
                              f"{type(payload).__name__}")
        _check_wire_version(payload, "job status")
        return cls(
            job_id=payload.get("job_id", ""),
            state=payload.get("state", JobState.PENDING),
            experiment=payload.get("experiment", ""),
            request=payload.get("request") or {},
            cells_done=payload.get("cells_done", 0),
            cells_total=payload.get("cells_total"),
            cells_cached=payload.get("cells_cached", 0),
            error=payload.get("error"),
            report=payload.get("report"),
            occupancy=payload.get("occupancy"),
        )


# ---------------------------------------------------------------------------
# Fleet messages (broker ⇄ worker)
# ---------------------------------------------------------------------------


@dataclass
class WorkerHello:
    """A worker's registration message (``POST /fleet/hello``).

    Attributes:
        worker_id: Caller-chosen stable identifier (unique per worker
            process; the broker keys heartbeats and leases on it).
        schema_version: The wire schema version the worker speaks.  The
            broker refuses mismatches: an *older* worker gets a structured
            rejection (it could not interpret the broker's leases), a
            *newer* one is refused by the standard
            newer-than-us :class:`SchemaError` policy.
        pid: The worker's OS process id (observability only).
        host: The worker's host name (observability only).
    """

    worker_id: str
    schema_version: int = WIRE_SCHEMA_VERSION
    pid: int = 0
    host: str = ""

    def to_dict(self) -> dict:
        """JSON-safe form (the ``POST /fleet/hello`` body)."""
        return {
            "schema_version": self.schema_version,
            "worker_id": self.worker_id,
            "pid": self.pid,
            "host": self.host,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkerHello":
        """Inverse of :meth:`to_dict`; refuses newer-than-us versions."""
        if not isinstance(payload, dict):
            raise SchemaError(f"hello body must be a JSON object, got "
                              f"{type(payload).__name__}")
        _check_wire_version(payload, "worker hello")
        worker_id = payload.get("worker_id", "")
        if not worker_id or not isinstance(worker_id, str):
            raise SchemaError(f"worker_id must be a non-empty string, "
                              f"got {worker_id!r}")
        return cls(
            worker_id=worker_id,
            schema_version=payload.get("schema_version", 1),
            pid=payload.get("pid", 0),
            host=payload.get("host", ""),
        )




@dataclass
class TaskLease:
    """One leased workload block (the ``POST /fleet/lease`` success payload).

    A lease is the broker's exclusive, *expiring* grant of one task to one
    worker: results are only accepted while the lease is live, heartbeats
    extend it, and an expired lease sends the task back to the queue for
    another worker (bounded by the broker's retry budget).

    Attributes:
        lease_id: Broker-assigned unique identifier of this grant.
        job_tag: The submission the task belongs to (fair-share key).
        task: Every (machine × RENO) cell of one workload, in the form of
            :meth:`repro.harness.executors.WorkloadTask.to_wire`, with the
            shared store's locator as its ``cache_root``.
        attempt: 1-based execution attempt this lease represents.
        lease_ttl_s: Seconds until the lease expires without a heartbeat.
        heartbeat_every_s: How often the worker should heartbeat.
    """

    lease_id: str
    job_tag: str
    task: dict
    attempt: int = 1
    lease_ttl_s: float = 10.0
    heartbeat_every_s: float = 2.0

    def to_dict(self) -> dict:
        """JSON-safe form (shipped inside the lease response)."""
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "lease_id": self.lease_id,
            "job_tag": self.job_tag,
            "task": dict(self.task),
            "attempt": self.attempt,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_every_s": self.heartbeat_every_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskLease":
        """Inverse of :meth:`to_dict`; validates shape and schema version."""
        if not isinstance(payload, dict):
            raise SchemaError(f"lease body must be a JSON object, got "
                              f"{type(payload).__name__}")
        _check_wire_version(payload, "task lease")
        lease_id = payload.get("lease_id", "")
        if not lease_id or not isinstance(lease_id, str):
            raise SchemaError(f"lease_id must be a non-empty string, "
                              f"got {lease_id!r}")
        task = payload.get("task")
        if not isinstance(task, dict):
            raise SchemaError(f"lease task must be an object, got {task!r}")
        return cls(
            lease_id=lease_id,
            job_tag=payload.get("job_tag", ""),
            task=task,
            attempt=payload.get("attempt", 1),
            lease_ttl_s=float(payload.get("lease_ttl_s", 10.0)),
            heartbeat_every_s=float(payload.get("heartbeat_every_s", 2.0)),
        )


@dataclass
class TaskResult:
    """A worker's completion report for one lease (``POST /fleet/result``).

    The simulation outcomes themselves never cross the wire: the worker
    stores each cell's outcome in the shared content-addressed result
    store, and the executor reads them by the keys it computed when it
    submitted the task.  That keeps the wire JSON-pure and makes retries
    cheap — every cell a dead or late worker already stored is a store hit
    for the next one.

    Attributes:
        lease_id: The lease being completed.
        worker_id: The reporting worker.
        ok: Whether the task executed successfully.
        cached: One flag per cell, in grid order (``ok=True`` only): True
            where the worker found the outcome in the store instead of
            simulating it.
        error: Failure description (``ok=False`` only).
    """

    lease_id: str
    worker_id: str
    ok: bool
    cached: list[bool] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON-safe form (the ``POST /fleet/result`` body)."""
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "lease_id": self.lease_id,
            "worker_id": self.worker_id,
            "ok": self.ok,
            "cached": list(self.cached),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskResult":
        """Inverse of :meth:`to_dict`; validates shape and schema version."""
        if not isinstance(payload, dict):
            raise SchemaError(f"result body must be a JSON object, got "
                              f"{type(payload).__name__}")
        _check_wire_version(payload, "task result")
        lease_id = payload.get("lease_id", "")
        if not lease_id or not isinstance(lease_id, str):
            raise SchemaError(f"lease_id must be a non-empty string, "
                              f"got {lease_id!r}")
        ok = payload.get("ok")
        if not isinstance(ok, bool):
            raise SchemaError(f"result ok must be a boolean, got {ok!r}")
        cached = payload.get("cached", [])
        if (not isinstance(cached, list)
                or not all(isinstance(flag, bool) for flag in cached)):
            raise SchemaError(f"result cached must be a list of booleans, "
                              f"got {cached!r}")
        return cls(
            lease_id=lease_id,
            worker_id=payload.get("worker_id", ""),
            ok=ok,
            cached=cached,
            error=payload.get("error"),
        )
