"""Pluggable execution backends for experiment grids.

:func:`execute_grid` is the machinery behind
:func:`repro.harness.runner.run_matrix`: it splits the (workload × machine ×
RENO config) grid into one :class:`WorkloadTask` per workload, consults the
on-disk outcome cache, and hands the task list to an :class:`Executor`:

* :class:`SerialExecutor` runs every task in-process (keeping full outcomes).
* :class:`ProcessExecutor` fans tasks out over a ``fork`` multiprocessing
  pool, falling back to serial when there is one worker or one task, the
  platform lacks ``fork``, or a task cannot be pickled.  ``jobs="auto"``
  (the default) is a :class:`ProcessExecutor` over every CPU.

Design points:

* **Task granularity is one workload.**  All (machine, RENO) points of a
  workload share one functional trace — exactly the paper's methodology and
  the serial runner's behaviour — so splitting finer would recompute traces.
  Parallelism across workloads is where the wall-clock time is.
* **Deterministic ordering.**  Results are assembled in grid order (workload,
  then machine, then RENO label) regardless of worker completion order, so
  ``MatrixResult`` iteration order is identical to the serial runner's.
* **Graceful fallback.**  Every executor degrades to in-process execution
  with identical results whenever a pool cannot help.
* **Cache-aware workers.**  Each worker checks the cache per grid point and
  only computes (and stores) the misses; the functional trace is built only
  if at least one point of the workload misses.

Workers return *slim* outcomes (no program / functional trace) to keep
inter-process traffic proportional to the statistics, not the trace length.
The in-process path keeps full outcomes for cache misses, preserving the
original ``run_matrix`` behaviour for callers that inspect
``outcome.functional``.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import pickle
from dataclasses import dataclass, fields, replace
from typing import Callable, Protocol, runtime_checkable

from repro.core.config import RenoConfig
from repro.core.simulator import SimulationOutcome, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.harness.cache import (
    SimulationCache,
    outcome_key,
    program_digest,
    resolve_cache,
)
from repro.store.base import open_store, store_locator
from repro.uarch.config import MachineConfig
from repro.uarch.tables import TraceTables
from repro.workloads.base import Workload

#: Environment variable supplying the default worker count for ``jobs=None``
#: (an integer, ``auto`` for one worker per CPU, or ``fleet``).
JOBS_ENV = "REPRO_JOBS"

#: Environment variable enabling the distributed fleet backend for
#: ``jobs=None`` (its value is the fleet worker-process count); an explicit
#: ``$REPRO_JOBS`` still wins.  See :mod:`repro.api.fleet`.
FLEET_ENV = "REPRO_FLEET"

#: Grid-point key: (workload name, machine label, RENO label).
GridKey = tuple[str, str, str]

#: One executed workload block: grid-ordered (key, outcome) pairs.
Block = list[tuple[GridKey, SimulationOutcome]]

#: Per-cell completion callback: ``progress(grid_key, cached)`` is invoked
#: once per grid cell as its outcome becomes available (``cached`` is True
#: for cache hits).  A callback accepting a third positional argument is
#: additionally handed the cell's :class:`SimulationOutcome` — this is how
#: the session streams live per-cell utilization.  In-process execution
#: streams cell by cell; pool execution streams block by block as workers
#: finish.
ProgressFn = Callable[[GridKey, bool], None]

#: Cooperative cancellation probe: return True to abort the grid.
CancelFn = Callable[[], bool]


class ExecutionCancelled(RuntimeError):
    """A grid execution was aborted by its cancellation callback."""


def _progress_emitter(progress):
    """Normalise a progress callback to the 3-arg form.

    Legacy callbacks take ``(grid_key, cached)``; outcome-aware callbacks
    (the session's live-utilization hook) take ``(grid_key, cached,
    outcome)``.  Both keep working: the returned emitter always accepts
    three arguments and drops the outcome for 2-arg callbacks.
    """
    if progress is None:
        return None
    try:
        parameters = list(inspect.signature(progress).parameters.values())
    except (TypeError, ValueError):
        parameters = []
    positional = sum(1 for p in parameters
                     if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD))
    if positional >= 3 or any(p.kind == p.VAR_POSITIONAL for p in parameters):
        return progress
    return lambda grid_key, cached, outcome: progress(grid_key, cached)


@dataclass(frozen=True)
class WorkloadTask:
    """Everything a worker needs to run one workload's (machine × RENO) block."""

    workload: Workload
    scale: int
    machines: tuple[tuple[str, MachineConfig], ...]
    renos: tuple[tuple[str, RenoConfig | None], ...]
    collect_timing: bool
    max_instructions: int
    #: Result-store locator (a path, ``sqlite://...`` or ``http://...``;
    #: see :func:`repro.store.base.open_store`); None disables caching.
    #: Named ``cache_root`` for wire/pickle compatibility with pre-store
    #: payloads, where it was always a directory path.
    cache_root: str | None
    record_stats: bool = False
    #: Cycle-loop backend name (see :mod:`repro.uarch.backend`); None defers
    #: to ``$REPRO_BACKEND``/``python`` at simulation time.  Never part of
    #: the outcome-cache key — results are backend-independent.
    backend: str | None = None

    @property
    def cells(self) -> int:
        """Number of grid points this task covers."""
        return len(self.machines) * len(self.renos)


def _slim(outcome: SimulationOutcome) -> SimulationOutcome:
    """Drop the program and functional trace before crossing a process pipe."""
    return replace(outcome, program=None, functional=None)


def run_workload_block(
    task: WorkloadTask,
    *,
    slim: bool,
    cache: SimulationCache | None = None,
    progress: ProgressFn | None = None,
    cancel: CancelFn | None = None,
) -> Block:
    """Run (or load from cache) every grid point of one workload.

    Args:
        task: The workload block description.
        slim: Strip programs/traces from computed outcomes (used by worker
            processes; the in-process path keeps them).
        cache: Store instance to use; defaults to one opened from the
            ``task.cache_root`` locator (worker processes build their own
            so the task stays cheap to pickle).
        progress: Optional per-cell completion callback (see
            :data:`ProgressFn`).
        cancel: Optional cancellation probe, checked before every computed
            cell; raises :class:`ExecutionCancelled` when it returns True.

    Returns:
        ``[(grid_key, outcome), ...]`` in (machine, RENO) grid order.
    """
    workload = task.workload
    emit = _progress_emitter(progress)
    if cache is None and task.cache_root is not None:
        cache = open_store(task.cache_root)
    if cancel is not None and cancel():
        raise ExecutionCancelled(f"cancelled before workload {workload.name}")
    program = workload.build(task.scale)
    digest = program_digest(program) if cache is not None else ""

    points: list[tuple[GridKey, str | None, SimulationOutcome | None]] = []
    misses = 0
    for machine_label, machine in task.machines:
        for reno_label, reno in task.renos:
            grid_key = (workload.name, machine_label, reno_label)
            key = None
            outcome = None
            if cache is not None:
                key = outcome_key(digest, machine, reno,
                                  task.max_instructions, task.collect_timing,
                                  task.record_stats)
                outcome = cache.get(key)
            if outcome is None:
                misses += 1
            points.append((grid_key, key, outcome))

    # The trace and its read-only tables are built once and shared by every
    # computed cell; they are dropped when the block returns.
    functional = tables = None
    if misses:
        functional = FunctionalSimulator(program, task.max_instructions).run()
        tables = TraceTables(program, functional.trace)

    machines = dict(task.machines)
    renos = dict(task.renos)
    results: Block = []
    for grid_key, key, outcome in points:
        cached = outcome is not None
        if outcome is None:
            if cancel is not None and cancel():
                raise ExecutionCancelled(f"cancelled in workload {workload.name}")
            _, machine_label, reno_label = grid_key
            outcome = simulate(
                program,
                machines[machine_label],
                renos[reno_label],
                trace=functional,
                tables=tables,
                collect_timing=task.collect_timing,
                record_stats=task.record_stats,
                max_instructions=task.max_instructions,
                backend=task.backend,
            )
            if cache is not None:
                cache.put(key, outcome)
            if slim:
                outcome = _slim(outcome)
        results.append((grid_key, outcome))
        if emit is not None:
            emit(grid_key, cached, outcome)
    return results


def _worker(task: WorkloadTask):
    """Pool entry point: slim outcomes plus the worker-local cache stats,
    which the parent merges so ``cache.stats`` is meaningful for pools."""
    cache = open_store(task.cache_root)
    block = run_workload_block(task, slim=True, cache=cache)
    return block, (cache.stats if cache is not None else None)


def _fork_context():
    """The fork multiprocessing context, or None when the platform lacks it."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _tasks_picklable(tasks: list[WorkloadTask]) -> bool:
    """Whether every task can cross a process boundary (ad-hoc workloads with
    closure builders cannot; they silently run in-process instead)."""
    try:
        for task in tasks:
            pickle.dumps(task)
    except Exception:
        return False
    return True


def build_tasks(
    workloads: list[Workload],
    machines: dict[str, MachineConfig],
    renos: dict[str, RenoConfig | None],
    *,
    scale: int = 1,
    collect_timing: bool = False,
    record_stats: bool = False,
    max_instructions: int = 2_000_000,
    cache_root: str | None = None,
    backend: str | None = None,
) -> list[WorkloadTask]:
    """One :class:`WorkloadTask` per workload, covering the full grid."""
    return [
        WorkloadTask(
            workload=workload,
            scale=scale,
            machines=tuple(machines.items()),
            renos=tuple(renos.items()),
            collect_timing=collect_timing,
            max_instructions=max_instructions,
            cache_root=cache_root,
            record_stats=record_stats,
            backend=backend,
        )
        for workload in workloads
    ]


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


@runtime_checkable
class Executor(Protocol):
    """Strategy for running a list of workload tasks.

    Implementations must return one block per task, **in task order**, with
    each block's (machine, RENO) pairs in grid order — the deterministic
    ordering contract every consumer of :func:`execute_grid` relies on.

    ``progress``/``cancel`` are optional keyword hooks (see
    :data:`ProgressFn` / :data:`CancelFn`); None means no callback.
    """

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: SimulationCache | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run every task and return their blocks in task order."""
        ...  # pragma: no cover - protocol definition


class SerialExecutor:
    """Run every task in-process (full, non-slim outcomes)."""

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: SimulationCache | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run the tasks one after another in the current process."""
        return [
            run_workload_block(task, slim=False, cache=cache,
                               progress=progress, cancel=cancel)
            for task in tasks
        ]


def _emit_block_progress(block: Block, progress: ProgressFn | None) -> None:
    """Fire the per-cell callback for a block computed elsewhere."""
    emit = _progress_emitter(progress)
    if emit is None:
        return
    for grid_key, outcome in block:
        emit(grid_key, outcome.cached, outcome)


class ProcessExecutor:
    """Fan tasks out over a ``fork`` multiprocessing pool.

    Falls back to :class:`SerialExecutor` whenever a pool cannot help or
    cannot work: a single task, ``jobs <= 1``, a platform without ``fork``,
    or tasks that cannot be pickled.  This is the whole selection rule
    behind ``jobs="auto"``, which is this executor over every CPU.

    Progress streams block by block as workers finish (worker processes
    cannot call back into the parent per cell); cancellation is checked
    between arriving blocks and terminates the pool.
    """

    def __init__(self, jobs: int):
        """Create an executor using at most ``jobs`` worker processes."""
        self.jobs = jobs

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: SimulationCache | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run the tasks on a worker pool (serial fallback when impossible)."""
        jobs = min(self.jobs, len(tasks))
        context = _fork_context()
        if jobs <= 1 or context is None or not _tasks_picklable(tasks):
            return SerialExecutor().execute(tasks, cache, progress=progress,
                                            cancel=cancel)
        blocks: list[Block] = []
        with context.Pool(processes=jobs) as pool:
            # imap preserves task order while letting finished blocks stream
            # back before the whole grid is done (progress + cancellation).
            for block, worker_stats in pool.imap(_worker, tasks):
                if cancel is not None and cancel():
                    pool.terminate()
                    raise ExecutionCancelled(
                        f"cancelled after {len(blocks)}/{len(tasks)} workloads")
                blocks.append(block)
                if cache is not None and worker_stats is not None:
                    for field in fields(worker_stats):
                        setattr(cache.stats, field.name,
                                getattr(cache.stats, field.name)
                                + getattr(worker_stats, field.name))
                _emit_block_progress(block, progress)
        return blocks


def resolve_executor(
    jobs: int | str | None = None, executor: Executor | None = None
) -> Executor:
    """Normalise the ``jobs=`` / ``executor=`` arguments to an :class:`Executor`.

    * An explicit ``executor`` always wins.
    * ``jobs=None`` (the default) reads ``$REPRO_JOBS``; when that is also
      unset but ``$REPRO_FLEET`` is set, the process-shared distributed
      fleet is selected; otherwise ``"auto"``.
    * ``jobs="auto"`` selects a :class:`ProcessExecutor` with one worker
      per CPU (it runs serially on one CPU or one task).
    * ``jobs="fleet"`` selects the process-shared
      :class:`repro.api.fleet.FleetExecutor` (broker + worker processes
      over the wire schema; worker count from ``$REPRO_FLEET``).
    * ``jobs<=1`` selects :class:`SerialExecutor`; larger integers select
      :class:`ProcessExecutor` with that many workers.

    Raises:
        ValueError: ``jobs`` is a string that is none of an integer,
            ``auto`` or ``fleet``.
    """
    if executor is not None:
        return executor
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV, "").strip()
        if not jobs:
            jobs = "fleet" if os.environ.get(FLEET_ENV, "").strip() else "auto"
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return ProcessExecutor(os.cpu_count() or 1)
        if jobs.lower() == "fleet":
            # Imported lazily: the fleet lives in the api layer, and plain
            # in-process runs must not pay (or require) its import.
            from repro.api.fleet import shared_fleet

            return shared_fleet()
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(
                f"invalid jobs value {jobs!r}: expected an integer, "
                f"'auto' or 'fleet'") from None
    if jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)


# ---------------------------------------------------------------------------
# The grid entry point
# ---------------------------------------------------------------------------


def execute_grid(
    workloads: list[Workload],
    machines: dict[str, MachineConfig],
    renos: dict[str, RenoConfig | None],
    *,
    scale: int = 1,
    collect_timing: bool = False,
    record_stats: bool = False,
    max_instructions: int = 2_000_000,
    jobs: int | str | None = None,
    cache: SimulationCache | bool | str | None = None,
    executor: Executor | None = None,
    progress: ProgressFn | None = None,
    cancel: CancelFn | None = None,
    backend: str | None = None,
) -> dict[GridKey, SimulationOutcome]:
    """Run the full grid and return outcomes in deterministic grid order.

    Args:
        workloads: Resolved workload objects (one task each).
        machines: Machine-label → configuration.
        renos: RENO-label → configuration (None = baseline).
        scale: Workload scale factor.
        collect_timing: Keep per-instruction timing records.
        record_stats: Record occupancy/utilization histograms per cell
            (``outcome.stats.occupancy``; see :mod:`repro.uarch.observe`).
        max_instructions: Functional-simulation budget.
        jobs: Worker processes: an int, ``"auto"`` (one per CPU; the
            default), ``"fleet"``, or None to read ``$REPRO_JOBS``.
        cache: Outcome cache; accepts every form
            :func:`repro.harness.cache.resolve_cache` understands
            (instance / bool / path / None).
        executor: Explicit :class:`Executor` instance (overrides ``jobs``).
        progress: Optional per-cell completion callback
            (:data:`ProgressFn`); this is what streams job progress out of
            a :class:`repro.api.session.Session`.
        cancel: Optional cancellation probe (:data:`CancelFn`); a True
            return aborts the grid with :class:`ExecutionCancelled`.
        backend: Cycle-loop backend name for every simulation in the grid
            (see :mod:`repro.uarch.backend`); None defers to
            ``$REPRO_BACKEND``/``python``.  Provenance only — outcome-cache
            keys do not include it, because results are
            backend-independent.

    Returns:
        ``{(workload name, machine label, reno label): outcome}`` ordered
        exactly as the serial nested loops would produce it.  Outcomes
        computed by worker processes or loaded from the cache are *slim*:
        ``program``/``functional`` are None, while all timing-side fields
        are byte-identical to an in-process run.
    """
    executor = resolve_executor(jobs, executor)
    cache = resolve_cache(cache)
    cache_root = store_locator(cache)
    tasks = build_tasks(
        workloads,
        machines,
        renos,
        scale=scale,
        collect_timing=collect_timing,
        record_stats=record_stats,
        max_instructions=max_instructions,
        cache_root=cache_root,
        backend=backend,
    )
    blocks = (executor.execute(tasks, cache, progress=progress, cancel=cancel)
              if tasks else [])
    outcomes: dict[GridKey, SimulationOutcome] = {}
    for block in blocks:
        for grid_key, outcome in block:
            outcomes[grid_key] = outcome
    return outcomes
