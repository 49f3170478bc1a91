"""``repro.api`` — the stable public API of the reproduction.

This package is the supported integration surface; everything else is
library internals that may change between versions.  It has four pieces:

* :class:`~repro.api.session.Session` / :class:`~repro.api.session.Job` —
  the submission facade: ``submit(request) -> Job`` with progress
  streaming, cancellation, and content-addressed request coalescing
  (:mod:`repro.api.session`).
* The versioned wire schema — :class:`~repro.api.schema.ExperimentRequest`,
  :class:`~repro.api.schema.JobStatus`, :class:`~repro.api.schema.JobState`
  (:mod:`repro.api.schema`).
* The HTTP front-end behind ``python -m repro serve``
  (:mod:`repro.api.service`), on the HTTP layer it shares with the fleet
  broker and ``repro store-serve`` (:mod:`repro.api.http`).
* Incremental simulation — time-sliced, checkpointable pipeline runs
  (:mod:`repro.api.checkpoint`, re-exporting
  :class:`~repro.uarch.snapshot.PipelineSnapshot`).
* The distributed worker fleet — a lease broker plus ``python -m repro
  worker`` pullers executing experiment grids across processes with
  byte-identical results (:mod:`repro.api.fleet`, :mod:`repro.api.worker`;
  wire messages :class:`~repro.api.schema.WorkerHello`,
  :class:`~repro.api.schema.TaskLease`,
  :class:`~repro.api.schema.TaskResult`).
* The shared result store — every ``cache=`` argument accepts a
  :class:`~repro.store.base.ResultStore` instance or a locator string
  (path, ``sqlite://…``, ``http(s)://…``); the tiers and
  :func:`~repro.store.base.open_store` are re-exported from
  :mod:`repro.store`.

Quick start::

    from repro.api import ExperimentRequest, Session

    with Session(jobs="auto") as session:
        job = session.submit(ExperimentRequest("fig8", suite="micro"))
        report = job.result()
"""

import importlib

#: Every public name, by the module that defines it.  Names resolve on
#: first use, so importing one submodule (``repro.store.http`` builds its
#: server on :mod:`repro.api.http`) does not pull in the whole package —
#: eager imports here would be circular.
_EXPORTS = {
    "repro.api.schema": ("WIRE_SCHEMA_VERSION", "ExperimentRequest",
                         "JobState", "JobStatus", "SchemaError",
                         "WorkerHello", "TaskLease", "TaskResult"),
    "repro.api.session": ("Session", "Job", "JobCancelled", "JobFailed",
                          "default_session"),
    "repro.api.service": ("serve", "make_server"),
    "repro.api.checkpoint": ("run_sliced", "resume_sliced"),
    "repro.uarch.snapshot": ("PipelineSnapshot", "SnapshotError"),
    "repro.api.fleet": ("FleetBroker", "FleetServer", "FleetExecutor",
                        "FleetError", "FleetSaturated", "FleetStalled",
                        "FleetTaskError", "WorkerRejected",
                        "make_fleet_server", "shared_fleet"),
    "repro.api.worker": ("FleetWorker",),
    "repro.store": ("ResultStore", "DiskStore", "SqliteStore", "HTTPStore",
                    "open_store", "store_locator"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Resolve a public name from its defining module."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_HOME[name]), name)
