"""The ``Session``/``Job`` facade: the supported programmatic API surface.

A :class:`Session` owns the engine state every caller used to wire up by
hand — an execution backend and an outcome cache — and exposes one
submission surface in front of the experiment registry:

* :meth:`Session.submit` returns a :class:`Job` immediately; the experiment
  runs on a background worker with per-cell progress streaming
  (:meth:`Job.status`) and cooperative cancellation (:meth:`Job.cancel`).
* :meth:`Session.run` is the synchronous form: same plumbing, same
  deterministic results, executed in the calling thread.
* Identical concurrent submissions are **coalesced**: requests are
  content-addressed (:meth:`~repro.api.schema.ExperimentRequest.digest`),
  an in-flight digest match returns the existing job, and *completed*
  repeats recompute through the content-addressed outcome cache — so an
  experiment grid executes once no matter how many clients ask for it.

The legacy entry points (``run_experiment``, the ``figure*`` wrappers, the
``python -m repro run`` CLI) are thin clients of this facade; ``python -m
repro serve`` (:mod:`repro.api.service`) maps it onto HTTP.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api.schema import ExperimentRequest, JobState, JobStatus
from repro.harness.cache import SimulationCache, resolve_cache
from repro.harness.executors import ExecutionCancelled, Executor, resolve_executor
from repro.harness.spec import Experiment, get_experiment

#: How long a session's cross-session request claim stays live without
#: renewal.  A holder that crashes without releasing blocks identical
#: requests elsewhere only until this expires; a takeover after expiry
#: merely recomputes — conditional puts keep the store consistent.
REQUEST_CLAIM_TTL_S = 60.0

#: Poll interval while waiting on another session's identical request.
REQUEST_CLAIM_POLL_S = 0.05

#: Sentinel distinguishing "cache not resolved yet" from a resolved None.
_UNRESOLVED = object()


class JobCancelled(RuntimeError):
    """Raised by :meth:`Job.result` when the job was cancelled."""


class JobFailed(RuntimeError):
    """Raised by :meth:`Job.result` when the job's experiment raised.

    The original exception is chained as ``__cause__``.
    """


class Job:
    """A submitted experiment: status, progress, result, cancellation.

    Jobs are created by :meth:`Session.submit`; the session runs them on a
    worker thread and streams per-cell completion into the job's counters.
    All methods are thread-safe.
    """

    #: Mutable state shared between the session's worker thread and any
    #: number of status-polling clients; only touch under ``self._lock``
    #: (enforced by the ``lock-discipline`` lint rule).
    _GUARDED_BY_LOCK = (
        "_state",
        "_report",
        "_report_dict",
        "_error",
        "_cells_done",
        "_cells_cached",
        "_cell_occupancy",
        "_progress_watchers",
        "_submissions",
        "_finished_at",
    )

    def __init__(self, job_id: str, request: ExperimentRequest,
                 cells_total: int | None, clock=time.monotonic):
        """Create a pending job (called by the session only)."""
        self.job_id = job_id
        self.request = request
        self.cells_total = cells_total
        self._clock = clock
        self._submissions = 1
        self._lock = threading.Lock()
        self._state = JobState.PENDING
        self._cancel_event = threading.Event()
        self._done_event = threading.Event()
        self._report = None
        self._report_dict: dict | None = None
        self._error: BaseException | None = None
        self._cells_done = 0
        self._cells_cached = 0
        self._cell_occupancy: dict[str, dict] = {}
        self._progress_watchers: list = []
        self._finished_at: float | None = None

    # ------------------------------------------------------------------
    # Engine-facing hooks (driven by the session's worker thread)
    # ------------------------------------------------------------------

    def _on_cell(self, grid_key, cached: bool, outcome=None) -> None:
        """Per-cell progress callback threaded into the executors.

        The third argument is the cell's
        :class:`~repro.core.simulator.SimulationOutcome` (the executors
        pass it to outcome-aware callbacks); when it carries occupancy
        statistics, their summary is folded into the live per-cell view
        that :meth:`status` reports.
        """
        occupancy = (outcome.stats.occupancy
                     if outcome is not None and outcome.stats.occupancy is not None
                     else None)
        with self._lock:
            self._cells_done += 1
            if cached:
                self._cells_cached += 1
            if occupancy is not None:
                label = ("/".join(str(part) for part in grid_key)
                         if isinstance(grid_key, tuple) else str(grid_key))
                self._cell_occupancy[label] = occupancy.summary()
            watchers = list(self._progress_watchers)
        for watcher in watchers:
            # Watchers are isolated: one client's broken callback must not
            # abort the grid and fail the job for every coalesced
            # subscriber.
            try:
                watcher(self, grid_key, cached)
            except Exception:         # noqa: BLE001 - observer boundary
                pass

    def _note_coalesced(self) -> None:
        """Count one more submit() coalesced onto this job."""
        with self._lock:
            self._submissions += 1

    def _mark_running(self) -> None:
        with self._lock:
            if self._state == JobState.PENDING:
                self._state = JobState.RUNNING

    def _finish(self, report) -> None:
        # Serialise once, outside the lock: the report is immutable from
        # here on and status() may be polled by many watchers.
        report_dict = report.to_dict()
        with self._lock:
            self._report = report
            self._report_dict = report_dict
            self._state = JobState.SUCCEEDED
            self._finished_at = self._clock()
        self._done_event.set()

    def _finish_cancelled(self) -> None:
        with self._lock:
            self._state = JobState.CANCELLED
            self._finished_at = self._clock()
        self._done_event.set()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self._error = error
            self._state = JobState.FAILED
            self._finished_at = self._clock()
        self._done_event.set()

    # ------------------------------------------------------------------
    # Client-facing surface
    # ------------------------------------------------------------------

    def add_progress_watcher(self, watcher) -> None:
        """Register ``watcher(job, grid_key, cached)``, fired per cell."""
        with self._lock:
            self._progress_watchers.append(watcher)

    @property
    def state(self) -> str:
        """Current :class:`~repro.api.schema.JobState` constant."""
        with self._lock:
            return self._state

    @property
    def submissions(self) -> int:
        """How many submit() calls this job satisfied (> 1 ⇒ later
        identical requests were coalesced onto it)."""
        with self._lock:
            return self._submissions

    @property
    def finished_at(self) -> float | None:
        """Monotonic timestamp of the transition into a terminal state
        (None while pending/running); drives the session's TTL eviction."""
        with self._lock:
            return self._finished_at

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._done_event.is_set()

    def cancelled(self) -> bool:
        """Whether the job ended (or will end) cancelled."""
        return self._cancel_event.is_set() or self.state == JobState.CANCELLED

    def status(self) -> JobStatus:
        """A consistent point-in-time :class:`~repro.api.schema.JobStatus`."""
        with self._lock:
            return JobStatus(
                job_id=self.job_id,
                state=self._state,
                experiment=self.request.experiment,
                request=self.request.to_dict(),
                cells_done=self._cells_done,
                cells_total=self.cells_total,
                cells_cached=self._cells_cached,
                error=(f"{type(self._error).__name__}: {self._error}"
                       if self._error is not None else None),
                report=self._report_dict,
                occupancy=(dict(self._cell_occupancy)
                           if self._cell_occupancy else None),
            )

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; returns False on timeout."""
        return self._done_event.wait(timeout)

    def result(self, timeout: float | None = None):
        """The finished :class:`~repro.harness.experiments.ExperimentReport`.

        Blocks until the job is terminal.  Raises :class:`TimeoutError` if
        ``timeout`` elapses first, :class:`JobCancelled` for a cancelled
        job, and :class:`JobFailed` (chaining the original exception) for a
        failed one.
        """
        if not self._done_event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} still {self.state} after {timeout}s")
        with self._lock:
            if self._state == JobState.CANCELLED:
                raise JobCancelled(f"job {self.job_id} was cancelled")
            if self._state == JobState.FAILED:
                raise JobFailed(
                    f"job {self.job_id} failed: {self._error}") from self._error
            return self._report

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        Returns True when the request may still take effect (the job was
        not already terminal).  A running grid stops at the next cell
        boundary; cells already computed stay in the outcome cache.
        """
        if self._done_event.is_set():
            return False
        self._cancel_event.set()
        return True


class Session:
    """The stable facade over the experiment engine (see module docstring).

    Args:
        jobs: Default execution backend selector for this session's runs —
            an int, ``"auto"``, or None (read ``$REPRO_JOBS``; unset means
            auto), exactly as :func:`repro.harness.runner.run_matrix` takes.
        cache: Default result store, in any form
            :func:`repro.harness.cache.resolve_cache` accepts — a store
            instance, a locator (path, ``sqlite://<path>``,
            ``http://host:port``), or a bool.  The session resolves it
            lazily per run, so ``None`` keeps tracking the
            ``$REPRO_STORE`` / ``$REPRO_CACHE_DIR`` environment like the
            library defaults do.  A claim-capable store also coalesces
            identical requests *across* sessions and hosts (see
            :meth:`Session._claim_request`).
        executor: Explicit default :class:`~repro.harness.executors.Executor`
            (overrides ``jobs``).
        backend: Default cycle-loop backend name for this session's runs
            (``"python"``, ``"compiled"``; see :mod:`repro.uarch.backend`),
            or None to defer to ``$REPRO_BACKEND``/``python`` per
            simulation.  Results are backend-independent, so this is pure
            provenance + speed — it never changes request digests,
            coalescing, or outcome-cache keys.
        workers: Worker threads for asynchronously submitted jobs.  Grids
            are CPU-bound, so a small number only orders queued jobs; the
            process-pool executors below provide the real parallelism.
        max_retained_jobs: How many jobs the session keeps queryable by id.
            When a new submission would exceed the cap, the *oldest
            terminal* jobs are evicted (in-flight jobs are never evicted,
            and may temporarily push the table past the cap).  Long-lived
            sessions — ``repro serve`` in particular — would otherwise
            grow the job table without bound.
        job_ttl_s: How long a terminal job stays queryable after it
            finishes; expired jobs are swept on each submission *and* on
            the status paths (:meth:`job` / :meth:`jobs`), so an
            idle-but-polled session still evicts.  None disables the TTL
            (the cap still applies).
        clock: Monotonic time source for job timestamps and TTL sweeps
            (tests inject a fake to exercise eviction without sleeping).
    """

    #: Submission-path state shared with worker threads; only touch under
    #: ``self._lock`` (enforced by the ``lock-discipline`` lint rule).
    _GUARDED_BY_LOCK = (
        "_pool",
        "_jobs_by_id",
        "_inflight",
        "_next_job_number",
        "_closed",
    )

    def __init__(
        self,
        *,
        jobs: int | str | None = None,
        cache: SimulationCache | bool | str | None = None,
        executor: Executor | None = None,
        backend: str | None = None,
        workers: int = 2,
        max_retained_jobs: int = 256,
        job_ttl_s: float | None = 3600.0,
        clock=time.monotonic,
    ):
        if max_retained_jobs < 1:
            raise ValueError(
                f"max_retained_jobs must be >= 1, got {max_retained_jobs}")
        if job_ttl_s is not None and job_ttl_s <= 0:
            raise ValueError(f"job_ttl_s must be positive or None, got {job_ttl_s}")
        self._jobs_arg = jobs
        self._cache_arg = cache
        self._cache_resolved: SimulationCache | None | object = _UNRESOLVED
        self._executor_arg = executor
        self._backend_arg = backend
        self._workers = max(1, workers)
        self._max_retained_jobs = max_retained_jobs
        self._job_ttl_s = job_ttl_s
        self._clock = clock
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._jobs_by_id: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._next_job_number = 1
        self._closed = False

    # ------------------------------------------------------------------
    # Owned engine state
    # ------------------------------------------------------------------

    @property
    def cache(self) -> SimulationCache | None:
        """The session's result store (resolved from the constructor arg).

        Any :class:`repro.store.base.ResultStore` tier, not just the
        disk one — locators like ``sqlite://…`` and ``http://…`` open
        the shared tiers.  The resolution is memoized: a locator opens
        exactly one store instance per session, so its hit/store
        counters (``/store/stats`` on a serving session) accumulate
        instead of resetting on every access.
        """
        if self._cache_resolved is _UNRESOLVED:
            with self._lock:
                if self._cache_resolved is _UNRESOLVED:
                    self._cache_resolved = resolve_cache(self._cache_arg)
        return self._cache_resolved

    @property
    def executor(self) -> Executor:
        """The session's execution backend (resolved per access)."""
        return resolve_executor(self._jobs_arg, self._executor_arg)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: ExperimentRequest | dict,
               on_progress=None) -> Job:
        """Queue an experiment run and return its :class:`Job` immediately.

        Args:
            request: An :class:`~repro.api.schema.ExperimentRequest` (or its
                dict form).  The experiment name is validated against the
                registry before the job is created.
            on_progress: Optional ``watcher(job, grid_key, cached)`` fired
                per completed cell.

        Returns:
            The job — possibly a *pre-existing* one: an identical request
            already in flight is coalesced onto the running job
            (``job.submissions`` counts the merged submissions) instead of
            executing the grid twice.

        Raises:
            repro.api.fleet.FleetSaturated: When the session's executor has
                an ``admit`` hook (the fleet's backpressure check) and the
                request's estimated cells would overflow its queue;
                coalesced submissions are never refused (they add no
                cells).  ``repro serve`` maps this onto a structured 429.
        """
        request = self._coerce(request)
        entry = get_experiment(request.experiment)   # raises on unknown names
        digest = request.digest()
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            existing = self._inflight.get(digest)
            if existing is not None and not existing.done():
                existing._note_coalesced()
                if on_progress is not None:
                    existing.add_progress_watcher(on_progress)
                return existing
            cells = self._estimate_cells(entry, request)
            admit = getattr(self.executor, "admit", None)
            if admit is not None:
                admit(cells)             # may raise FleetSaturated
            job_id = f"job-{self._next_job_number:04d}"
            self._next_job_number += 1
            job = Job(job_id, request, cells, clock=self._clock)
            self._sweep_jobs_locked(incoming=1)
            self._jobs_by_id[job_id] = job
            self._inflight[digest] = job
            pool = self._ensure_pool_locked()
        if on_progress is not None:
            job.add_progress_watcher(on_progress)
        pool.submit(self._run_job, job, digest)
        return job

    def run(self, request: ExperimentRequest | dict):
        """Run a request synchronously in the calling thread.

        Same validation, defaults, cache and determinism as
        :meth:`submit`; returns the finished report directly.  If an
        identical request is already in flight on a worker, its result is
        reused instead of recomputing — but another client cancelling (or
        crashing) that job never poisons this caller: on a cancelled or
        failed coalesced job the request simply executes here.
        """
        request = self._coerce(request)
        digest = request.digest()
        with self._lock:
            existing = self._inflight.get(digest)
        if existing is not None:
            try:
                return existing.result()
            except (JobCancelled, JobFailed):
                pass                  # fall through to a direct run
        return self._execute(request)

    def job(self, job_id: str) -> Job | None:
        """Look up a job by id (None when unknown).

        Status lookups also run the TTL sweep, so an idle-but-polled
        session (a dashboard refreshing ``GET /jobs/<id>``) still evicts
        expired terminal jobs instead of retaining them until the next
        submission.  The job being asked for is itself evictable: an
        expired id answers None exactly as it would after a submit-time
        sweep.
        """
        with self._lock:
            self._sweep_jobs_locked()
            return self._jobs_by_id.get(job_id)

    def jobs(self) -> list[Job]:
        """Every retained job, in submission order (TTL sweep applied)."""
        with self._lock:
            self._sweep_jobs_locked()
            return list(self._jobs_by_id.values())

    # ------------------------------------------------------------------
    # Thin-client passthrough (run_experiment / figure* / CLI)
    # ------------------------------------------------------------------

    def run_experiment(
        self,
        name: str,
        *,
        suite: str | None = None,
        workloads: list | None = None,
        scale: int = 1,
        jobs: int | str | None = None,
        cache: SimulationCache | bool | str | None = None,
        executor: Executor | None = None,
        backend: str | None = None,
        progress=None,
        cancel=None,
        **params,
    ):
        """Run a registered experiment with the session's defaults applied.

        This is the compatibility surface behind
        :func:`repro.harness.spec.run_experiment` and the ``figure*``
        wrappers: every argument keeps its historical meaning, the session
        only supplies its own ``jobs``/``cache``/``executor`` defaults when
        the caller left them unset.  Unlike :meth:`run` it accepts ad-hoc
        :class:`~repro.workloads.base.Workload` *objects* and arbitrary
        Python params, which cannot cross the wire.
        """
        if jobs is None and executor is None:
            jobs, executor = self._jobs_arg, self._executor_arg
        if cache is None:
            # Forward the memoized store *instance*, not the constructor
            # arg: a locator would re-open a fresh store (new connection,
            # zeroed counters) on every run.  False (caching explicitly
            # off) resolves to None and must stay False downstream.
            cache = self.cache
            if cache is None:
                cache = self._cache_arg
        if backend is None:
            backend = self._backend_arg
        return get_experiment(name).run(
            suite=suite, workloads=workloads, scale=scale, jobs=jobs,
            cache=cache, executor=executor, progress=progress, cancel=cancel,
            backend=backend, **params,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Cancel nothing, stop accepting work, and join the worker pool.

        An explicitly supplied executor with a ``close`` method (the fleet)
        is closed too: the session was its lifecycle owner, and leaving a
        broker thread plus worker subprocesses behind would leak.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        shutdown = getattr(self._executor_arg, "close", None)
        if shutdown is not None:
            shutdown()

    def __enter__(self) -> "Session":
        """Context-manager entry (returns the session)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close` the session."""
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(request) -> ExperimentRequest:
        if isinstance(request, dict):
            return ExperimentRequest.from_dict(request)
        if isinstance(request, ExperimentRequest):
            request.validate()
            return request
        raise TypeError(
            f"submit() takes an ExperimentRequest or its dict form, "
            f"got {type(request).__name__}")

    @staticmethod
    def _estimate_cells(entry: Experiment, request: ExperimentRequest) -> int | None:
        """Grid size for progress totals (None for custom-runner shapes)."""
        if entry.build_spec is None:
            return None
        try:
            spec = entry.build_spec(
                request.suite or entry.default_suite,
                list(request.workloads) if request.workloads is not None else None,
                request.scale,
                **request.params,
            )
            return spec.grid_size
        except Exception:
            return None               # progress simply reports no total

    def _sweep_jobs_locked(self, incoming: int = 0) -> None:
        """Drop expired/excess *terminal* jobs (caller holds the lock).

        Two passes over the table in insertion (= submission) order: first
        every terminal job older than the TTL, then — if the table would
        still exceed ``max_retained_jobs`` with ``incoming`` new jobs
        counted — the oldest terminal jobs until it fits.  Jobs still
        pending or running are never evicted, so coalescing onto in-flight
        work is unaffected regardless of the cap.  Runs on submission
        (``incoming=1``) and on the status paths (``incoming=0``).
        """
        if self._job_ttl_s is not None:
            deadline = self._clock() - self._job_ttl_s
            for job_id, job in list(self._jobs_by_id.items()):
                if (job.done() and job.finished_at is not None
                        and job.finished_at < deadline):
                    del self._jobs_by_id[job_id]
        excess = len(self._jobs_by_id) + incoming - self._max_retained_jobs
        if excess <= 0:
            return
        for job_id, job in list(self._jobs_by_id.items()):
            if excess <= 0:
                break
            if job.done():
                del self._jobs_by_id[job_id]
                excess -= 1

    def _ensure_pool_locked(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-session")
        return self._pool

    @property
    def _claim_owner(self) -> str:
        """This session's store-wide identity for request claims."""
        return f"session-{os.getpid()}-{id(self):x}"

    def _claim_request(self, store, token: str, cancel) -> bool:
        """Acquire the cross-session coalescing marker for one request.

        In-process coalescing (the ``_inflight`` table) cannot see an
        identical request running in *another* session or host, so the
        store carries an in-flight marker too: whoever claims
        ``request/<digest>`` runs; everyone else waits, then finds the
        outcomes already stored and replays them as pure cache hits.

        Returns whether a claim was taken (and must be released).  A
        session without a claim-capable store — or whose store errors —
        runs uncoalesced: the marker is an optimisation, never a
        correctness gate.
        """
        if store is None or not hasattr(store, "claim"):
            return False
        owner = self._claim_owner
        while True:
            try:
                granted = store.claim(token, owner, REQUEST_CLAIM_TTL_S)
            except Exception:     # noqa: BLE001 - degrade to uncoalesced
                return False
            if granted:
                return True
            if cancel is not None and cancel():
                raise ExecutionCancelled(
                    "cancelled while waiting on an identical in-flight "
                    "request in another session")
            time.sleep(REQUEST_CLAIM_POLL_S)

    def _execute(self, request: ExperimentRequest,
                 progress=None, cancel=None):
        """Run one coerced request through the engine with session defaults."""
        store = self.cache
        token = f"request/{request.digest()}"
        claimed = self._claim_request(store, token, cancel)
        try:
            return self.run_experiment(
                request.experiment,
                suite=request.suite,
                workloads=list(request.workloads) if request.workloads is not None else None,
                scale=request.scale,
                progress=progress,
                cancel=cancel,
                **request.params,
            )
        finally:
            if claimed:
                try:
                    store.release(token, self._claim_owner)
                except Exception:   # noqa: BLE001 - advisory marker only
                    pass

    def _run_job(self, job: Job, digest: str) -> None:
        """Worker-thread body for one submitted job."""
        try:
            if job._cancel_event.is_set():
                job._finish_cancelled()
                return
            job._mark_running()
            try:
                report = self._execute(
                    job.request,
                    progress=job._on_cell,
                    cancel=job._cancel_event.is_set,
                )
            except ExecutionCancelled:
                job._finish_cancelled()
            except BaseException as error:      # noqa: BLE001 - job boundary
                job._fail(error)
            else:
                job._finish(report)
        finally:
            with self._lock:
                if self._inflight.get(digest) is job:
                    del self._inflight[digest]


# ---------------------------------------------------------------------------
# The process-default session
# ---------------------------------------------------------------------------

_default_session: Session | None = None
_default_session_lock = threading.Lock()


def default_session() -> Session:
    """The lazily created process-wide session the thin clients use.

    Constructed with all-default arguments, so ``run_experiment`` and the
    ``figure*`` wrappers behave exactly as they did before the facade
    existed: backend from ``jobs=``/``$REPRO_JOBS``, cache from
    ``$REPRO_CACHE_DIR``.
    """
    global _default_session
    with _default_session_lock:
        if _default_session is None or _default_session._closed:
            _default_session = Session()
        return _default_session
