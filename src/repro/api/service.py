"""``python -m repro serve``: JSON-over-HTTP front-end for a Session.

A route table on the shared HTTP layer (:mod:`repro.api.http`) that maps
the :class:`~repro.api.session.Session` facade onto these endpoints:

========  =======================  ==========================================
method    path                     behaviour
========  =======================  ==========================================
GET       ``/healthz``             liveness probe (``{"ok": true}``)
GET       ``/experiments``         the experiment registry (names + titles)
POST      ``/experiments``         submit an ``ExperimentRequest`` body →
                                   202 with ``job_id`` (identical concurrent
                                   requests coalesce onto one job)
GET       ``/jobs/<id>``           job status incl. per-cell progress and,
                                   when finished, the serialised report;
                                   ``?wait=<seconds>`` long-polls
POST      ``/jobs/<id>/cancel``    cooperative cancellation
GET       ``/fleet``               broker stats when the session executes
                                   on a worker fleet (404 otherwise)
GET       ``/store/stats``         result-store counters (hits, misses,
                                   evictions, bytes — see ``docs/store.md``)
                                   when the session has a store (404
                                   otherwise)
========  =======================  ==========================================

When the session runs on a :class:`~repro.api.fleet.FleetExecutor`, a
submission that would overflow the broker queue is refused with a
structured **429** (``retry_after_s`` plus the live queue numbers) instead
of growing memory without bound — the fleet's backpressure surfaced at the
HTTP edge.

Requests are handled on one thread each (``ThreadingHTTPServer``), the
CPU-heavy work lives on the session's workers, and identical concurrent
submissions execute once: in-flight requests via the session's
content-addressed coalescing, repeats via the result store.  Two *separate*
``repro serve`` processes sharing a store (``--store sqlite://…`` or an
HTTP store URL) coalesce across processes too — the store carries the
in-flight claim markers (see ``docs/store.md``).
"""

from __future__ import annotations

from repro.api.http import JSONServer, RouteError, clamp_wait, run_until_signalled
from repro.api.schema import WIRE_SCHEMA_VERSION, ExperimentRequest, SchemaError
from repro.api.session import Session

#: Default bind address of ``python -m repro serve``.
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``python -m repro serve``.
DEFAULT_PORT = 8765

#: Upper bound on ``?wait=`` long-poll durations (seconds).
MAX_WAIT_S = 60.0


class ReproServer(JSONServer):
    """The endpoint table in the module docstring over one :class:`Session`."""

    def __init__(self, address, session: Session):
        """Bind to ``address`` and serve ``session``."""
        self.session = session
        super().__init__(address, [
            ("GET", "/experiments", self._experiments),
            ("POST", "/experiments", self._submit),
            ("GET", "/jobs/<id>", self._status),
            ("POST", "/jobs/<id>/cancel", self._cancel),
            ("GET", "/fleet", self._fleet),
            ("GET", "/store/stats", self._store_stats),
        ], WIRE_SCHEMA_VERSION, errors={SchemaError: 400})

    def _experiments(self, request) -> tuple[int, dict]:
        from repro.harness.spec import list_experiments

        return 200, {
            "schema_version": WIRE_SCHEMA_VERSION,
            "experiments": [
                {"name": entry.name, "title": entry.title,
                 "description": entry.description,
                 "default_suite": entry.default_suite}
                for entry in list_experiments()
            ],
        }

    def _submit(self, request) -> tuple[int, dict]:
        from repro.api.fleet import FleetSaturated

        try:
            job = self.session.submit(
                ExperimentRequest.from_dict(request.read_json()))
        except FleetSaturated as error:
            # Backpressure, not failure: the fleet queue is full.  The
            # structured body carries the live numbers so clients can
            # back off intelligently instead of hammering the edge.
            return 429, {
                "schema_version": WIRE_SCHEMA_VERSION,
                "error": str(error),
                "queue_depth": error.queue_depth,
                "max_queue_depth": error.max_queue_depth,
                "retry_after_s": 5.0,
            }
        except KeyError as error:
            # A bare ``KeyError()`` has no args; fall back to the
            # exception itself rather than crashing the handler.
            raise RouteError(404, str(error.args[0] if error.args else error))
        return 202, {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": job.job_id,
            "state": job.state,
            "coalesced": job.submissions > 1,
        }

    def _job(self, job_id: str):
        job = self.session.job(job_id)
        if job is None:
            raise RouteError(404, f"unknown job {job_id!r}")
        return job

    def _status(self, request, job_id: str) -> tuple[int, dict]:
        job = self._job(job_id)
        wait = clamp_wait(request.query("wait"), MAX_WAIT_S)
        if wait:
            job.wait(wait)
        return 200, job.status().to_dict()

    def _cancel(self, request, job_id: str) -> tuple[int, dict]:
        job = self._job(job_id)
        accepted = job.cancel()
        return 200, {
            "schema_version": WIRE_SCHEMA_VERSION,
            "job_id": job.job_id,
            "cancelled": accepted,
            "state": job.state,
        }

    def _fleet(self, request) -> tuple[int, dict]:
        broker = getattr(self.session.executor, "broker", None)
        if broker is None:
            raise RouteError(404, "this session does not run on a worker "
                                  "fleet; start one with `repro serve "
                                  "--workers N`")
        return 200, broker.stats()

    def _store_stats(self, request) -> tuple[int, dict]:
        if self.session.cache is None:
            raise RouteError(404, "this session has no result store; start "
                                  "one with `repro serve --cache-dir DIR` or "
                                  "`--store URL`")
        return 200, self.session.cache.stats_payload()


def make_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    session: Session | None = None,
) -> ReproServer:
    """Create (but do not start) a :class:`ReproServer`.

    ``port=0`` binds an ephemeral free port — the chosen one is in
    ``server.server_address``.  Tests drive the returned server from a
    thread via ``serve_forever()``/``shutdown()``.
    """
    return ReproServer((host, port), session or Session())


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
          session: Session | None = None) -> int:
    """Run the service until SIGINT/SIGTERM (the ``repro serve`` body).

    Prints one ``listening on http://host:port`` line (flushed, so process
    supervisors and CI scripts can wait for readiness), then serves
    forever; both signals trigger a clean shutdown that drains in-flight
    HTTP handlers and closes the session.
    """
    server = make_server(host, port, session)
    print(f"repro serve: listening on {server.url}", flush=True)
    return run_until_signalled(server, "repro serve",
                               lambda: server.session.close(wait=False))
