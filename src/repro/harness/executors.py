"""The experiment engine: outcome keys, the store argument and executors.

:func:`repro.harness.runner.run_matrix` splits the (workload × machine ×
RENO config) grid into one :class:`WorkloadTask` per workload
(:func:`build_tasks`) and hands the task list to an :class:`Executor`:

* :class:`SerialExecutor` runs every task in-process (keeping full outcomes).
* :class:`ProcessExecutor` fans tasks out over a ``fork`` multiprocessing
  pool, falling back to serial when there is one worker or one task, the
  platform lacks ``fork``, the store exists only in this process, or a
  task cannot be pickled.  ``jobs="auto"`` (the default) is a
  :class:`ProcessExecutor` over every CPU.

Every grid point is deterministic, so its outcome is stored in a
content-addressed result store (:mod:`repro.store`) under
:func:`outcome_key`: a SHA-256 over

* :func:`program_digest` of the assembled program (instructions, entry
  point, initial memory) — the workload name is deliberately *not* part
  of the key, so two workloads assembling the identical program share an
  entry;
* :meth:`MachineConfig.digest` and :meth:`RenoConfig.digest` (behavioural
  fields only; report labels are excluded);
* the functional-simulation instruction budget, and whether timing
  records and occupancy statistics were collected;
* :data:`~repro.store.base.CACHE_FORMAT_VERSION` (bumped whenever the
  stored payload shape or this key material changes).

:func:`resolve_cache` maps the engine's ``cache=`` argument onto a store
tier.

A warm request rebuilds nothing: each process builds a ``(workload,
scale)`` program and computes its :func:`program_digest` once
(:func:`shared_program`, :func:`shared_program_digest`; every registered
workload at one scale fits in :data:`PROGRAM_SLOTS`), and computes each
config digest once (:func:`repro.confighash.dataclass_digest`).  Every
caller, and every outcome simulated in-process, shares one
:class:`~repro.isa.program.Program` object, which must not be mutated.

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
* **Cache-aware workers.**  Each worker checks the store per grid point and
  only computes (and stores) the misses; the functional trace is built only
  if at least one point of the workload misses.

Workers return *slim* outcomes (no program / functional trace) to keep
inter-process traffic proportional to the statistics, not the trace length.
The in-process path keeps full outcomes for cache misses, preserving the
original ``run_matrix`` behaviour for callers that inspect
``outcome.functional``.
"""

from __future__ import annotations

import hashlib
import inspect
import multiprocessing
import os
import pickle
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

from repro.api.schema import SchemaError
from repro.core.config import RenoConfig
from repro.core.simulator import SimulationOutcome, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.isa.program import Program
from repro.store.base import (
    CACHE_FORMAT_VERSION,
    STORE_ENV,
    ResultStore,
    open_store,
    process_local,
)
from repro.store.disk import CACHE_DIR_ENV, DiskStore
from repro.uarch.config import MachineConfig
from repro.uarch.tables import TraceTables, share_program_tables
from repro.workloads.base import Workload, get_workload

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


def program_digest(program: Program) -> str:
    """Content hash of an assembled program.

    Covers everything that influences simulation: the instruction stream
    (with resolved targets), the entry point and the initial memory image.
    The program *name* is a report label and is excluded.
    """
    hasher = hashlib.sha256()
    hasher.update(str(program.entry).encode())
    for instruction in program.instructions:
        hasher.update(
            f"{instruction.opcode.value}|{instruction.rd}|{instruction.rs1}|"
            f"{instruction.rs2}|{instruction.imm}|{instruction.target}\n".encode()
        )
    for address in sorted(program.initial_memory):
        hasher.update(f"@{address}={program.initial_memory[address]}".encode())
    return hasher.hexdigest()


#: How many built programs (with their digests) one process keeps: every
#: registered workload at one scale fits.
PROGRAM_SLOTS = 64

#: ``(workload, scale) -> [Program, program digest or None, ProgramTables]``,
#: oldest first.
_programs: dict[tuple[Workload, int], list] = {}
_programs_lock = threading.Lock()


def _reset_programs_lock() -> None:
    # A fork child inherits the lock in whatever state another parent
    # thread left it; the memo's dict itself is always consistent.
    global _programs_lock
    _programs_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_programs_lock)


def _program_slot(workload: Workload, scale: int) -> list:
    """The memo slot of ``(workload, scale)``; the caller holds the lock."""
    key = (workload, scale)
    slot = _programs.get(key)
    if slot is None:
        program = workload.build(scale)
        slot = [program, None, share_program_tables(program)]
        if len(_programs) >= PROGRAM_SLOTS:
            del _programs[next(iter(_programs))]
        _programs[key] = slot
    return slot


def shared_program(workload: Workload, scale: int) -> Program:
    """``workload.build(scale)``, built once per process and shared.

    Every caller gets the same :class:`Program` object (so do the outcomes
    simulated from it): treat it as read-only.  Its
    :class:`~repro.uarch.tables.ProgramTables` live in its memo slot.
    """
    with _programs_lock:
        return _program_slot(workload, scale)[0]


def shared_program_digest(workload: Workload, scale: int) -> str:
    """:func:`program_digest` of :func:`shared_program`, computed once per
    process."""
    with _programs_lock:
        slot = _program_slot(workload, scale)
        if slot[1] is None:
            slot[1] = program_digest(slot[0])
        return slot[1]


def outcome_key(
    prog_digest: str,
    machine: MachineConfig,
    reno: RenoConfig | None,
    max_instructions: int,
    collect_timing: bool,
    record_stats: bool = False,
) -> str:
    """The result-store key for one grid point."""
    reno_digest = reno.digest() if reno is not None else "baseline"
    material = "|".join([
        f"v{CACHE_FORMAT_VERSION}",
        prog_digest,
        machine.digest(),
        reno_digest,
        str(max_instructions),
        "timing" if collect_timing else "notiming",
        "stats" if record_stats else "nostats",
    ])
    return hashlib.sha256(material.encode()).hexdigest()


def resolve_cache(cache) -> ResultStore | None:
    """Normalise the ``cache=`` argument accepted by the experiment engine.

    * ``None`` (the default): a store is active only when ``$REPRO_STORE``
      names one (any locator) or ``$REPRO_CACHE_DIR`` is set (the disk
      tier there), so casual runs and the existing test suite touch no
      global state.
    * ``True`` / ``False``: force the default-location disk tier on or off.
    * a locator (``str`` / ``Path``): a path opens the disk tier there;
      ``sqlite://<path>`` and ``http(s)://host:port`` open the shared
      tiers (see :func:`repro.store.base.open_store`).
    * a store instance (any :class:`repro.store.base.ResultStore`): used
      as-is.
    """
    if cache is None:
        locator = os.environ.get(STORE_ENV)
        if locator:
            return open_store(locator)
        return DiskStore() if os.environ.get(CACHE_DIR_ENV) else None
    if cache is False:
        return None
    if cache is True:
        return DiskStore()
    if isinstance(cache, (str, Path)):
        return open_store(cache)
    if hasattr(cache, "get") and hasattr(cache, "put"):
        return cache
    raise TypeError(f"cache must be None, bool, a locator or a result store, "
                    f"got {cache!r}")


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

    def to_wire(self) -> dict:
        """JSON-safe form: the ``task`` of a fleet lease.  The workload
        travels by registry name, each config as ``[label, to_dict()]``."""
        return {
            "workload": self.workload.name,
            "scale": self.scale,
            "machines": [[label, machine.to_dict()]
                         for label, machine in self.machines],
            "renos": [[label, reno.to_dict() if reno is not None else None]
                      for label, reno in self.renos],
            "collect_timing": self.collect_timing,
            "record_stats": self.record_stats,
            "max_instructions": self.max_instructions,
            "backend": self.backend,
            "cache_root": self.cache_root,
        }

    @classmethod
    def from_wire(cls, payload) -> "WorkloadTask":
        """Inverse of :meth:`to_wire`; malformed network input raises
        :class:`~repro.api.schema.SchemaError`."""
        try:
            for name, kind in _WIRE_TYPES.items():
                value = payload[name]
                if not isinstance(value, kind) or (kind is int
                                                   and isinstance(value, bool)):
                    raise TypeError(f"{name} is {value!r}")
            return cls(
                workload=get_workload(payload["workload"]),
                scale=payload["scale"],
                machines=_wire_pairs(payload["machines"],
                                     MachineConfig.from_dict),
                renos=_wire_pairs(payload["renos"], lambda config: (
                    None if config is None else RenoConfig.from_dict(config))),
                collect_timing=payload["collect_timing"],
                max_instructions=payload["max_instructions"],
                cache_root=payload["cache_root"],
                record_stats=payload["record_stats"],
                backend=payload["backend"],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SchemaError(f"malformed task: {error}") from None


#: The JSON type of every :meth:`WorkloadTask.to_wire` field.
_WIRE_TYPES = {
    "workload": str, "scale": int, "machines": list, "renos": list,
    "collect_timing": bool, "record_stats": bool, "max_instructions": int,
    "backend": (str, type(None)), "cache_root": (str, type(None)),
}


def _wire_pairs(pairs: list, parse) -> tuple:
    """Decode a wire list of ``[label, config]`` pairs with ``parse``."""
    if not all(isinstance(pair, list) and len(pair) == 2
               and isinstance(pair[0], str) for pair in pairs):
        raise TypeError(f"expected [label, config] pairs, got {pairs!r}")
    return tuple((label, parse(config)) for label, config in pairs)


def _slim(outcome: SimulationOutcome) -> SimulationOutcome:
    """Drop the program and functional trace before crossing a process pipe."""
    return replace(outcome, program=None, functional=None)


def run_workload_block(
    task: WorkloadTask,
    *,
    slim: bool,
    cache: ResultStore | None = None,
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
    digest = (shared_program_digest(workload, task.scale)
              if cache is not None else "")

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
    program = functional = tables = None
    if misses:
        program = shared_program(workload, task.scale)
        functional = FunctionalSimulator(program, task.max_instructions,
                                         backend=task.backend).run()
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
    ordering contract :func:`~repro.harness.runner.run_matrix` relies on.

    ``progress``/``cancel`` are optional keyword hooks (see
    :data:`ProgressFn` / :data:`CancelFn`); None means no callback.
    """

    def execute(
        self,
        tasks: list[WorkloadTask],
        cache: ResultStore | None,
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
        cache: ResultStore | None,
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
    a store that exists only in this process (workers would each open an
    empty one of their own; see :func:`repro.store.base.process_local`),
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
        cache: ResultStore | None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
    ) -> list[Block]:
        """Run the tasks on a worker pool (serial fallback when impossible)."""
        jobs = min(self.jobs, len(tasks))
        context = _fork_context()
        if (jobs <= 1 or context is None or process_local(cache)
                or not _tasks_picklable(tasks)):
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
