"""Grid runner: (workload × machine × RENO config) simulation matrices."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RenoConfig
from repro.core.simulator import SimulationOutcome
from repro.harness.executors import (
    CancelFn,
    Executor,
    ProgressFn,
    build_tasks,
    resolve_cache,
    resolve_executor,
)
from repro.store.base import ResultStore, store_locator
from repro.uarch.config import MachineConfig
from repro.workloads.base import Workload, get_workload

#: Label conventionally used for the RENO-less machine in config dictionaries.
SPEEDUP_BASELINE = "BASE"


class MatrixLookupError(KeyError):
    """A (workload, machine, RENO) triple absent from a result matrix.

    Carries the missing triple and the labels the matrix does contain so a
    typo'd label is diagnosable from the message alone.
    """

    def __init__(self, matrix: "MatrixResult", workload: str, machine: str, reno: str):
        self.triple = (workload, machine, reno)
        message = (
            f"no outcome for workload={workload!r}, machine={machine!r}, "
            f"reno={reno!r}; matrix has workloads={matrix.workloads}, "
            f"machines={matrix.machine_labels}, renos={matrix.reno_labels}"
        )
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError wraps its argument in repr(); unwrap for a readable message.
        return self.args[0]


class ZeroCycleError(ValueError):
    """An outcome involved in a speedup has ``cycles == 0``.

    A zero-cycle outcome means the simulation never ran (or was truncated to
    nothing) — silently reporting parity would hide a broken run, so the
    offending grid point is named instead.
    """

    def __init__(self, workload: str, machine: str, reno: str):
        self.triple = (workload, machine, reno)
        super().__init__(
            f"outcome for workload={workload!r}, machine={machine!r}, "
            f"reno={reno!r} has cycles == 0; a zero-cycle outcome indicates "
            f"a broken run, not parity — refusing to compute a speedup from it"
        )


def _require_unique(labels: list[str], kind: str) -> None:
    """Raise ValueError naming any label that appears more than once."""
    seen: set[str] = set()
    duplicates: set[str] = set()
    for label in labels:
        if label in seen:
            duplicates.add(label)
        seen.add(label)
    if duplicates:
        raise ValueError(
            f"duplicate {kind} label(s) {sorted(duplicates)}: every {kind} in a "
            f"grid needs a unique label, otherwise outcomes silently overwrite "
            f"each other"
        )


def _normalize_axis(axis, kind: str) -> dict:
    """Normalise a machines/renos axis (dict or (label, config) pairs) to a
    dict, rejecting duplicate labels."""
    if isinstance(axis, dict):
        return axis
    pairs = list(axis)
    _require_unique([label for label, _ in pairs], kind)
    return dict(pairs)


@dataclass
class MatrixResult:
    """All simulation outcomes of one experiment grid."""

    outcomes: dict[tuple[str, str, str], SimulationOutcome]
    workloads: list[str]
    machine_labels: list[str]
    reno_labels: list[str]

    def get(self, workload: str, machine: str, reno: str) -> SimulationOutcome:
        """The outcome for one grid point (raises :class:`MatrixLookupError`)."""
        try:
            return self.outcomes[(workload, machine, reno)]
        except KeyError:
            raise MatrixLookupError(self, workload, machine, reno) from None

    def speedup(self, workload: str, machine: str, reno: str,
                baseline_machine: str | None = None,
                baseline_reno: str = SPEEDUP_BASELINE) -> float:
        """Cycles(baseline) / cycles(config) for one workload.

        Raises :class:`ZeroCycleError` when either outcome reports zero
        cycles (a broken run), rather than returning a fake ratio.
        """
        baseline_machine = baseline_machine or machine
        baseline = self.get(workload, baseline_machine, baseline_reno)
        target = self.get(workload, machine, reno)
        if not target.cycles:
            raise ZeroCycleError(workload, machine, reno)
        if not baseline.cycles:
            raise ZeroCycleError(workload, baseline_machine, baseline_reno)
        return baseline.cycles / target.cycles


def _resolve_workloads(workloads: list[str | Workload]) -> list[Workload]:
    resolved = []
    for entry in workloads:
        resolved.append(get_workload(entry) if isinstance(entry, str) else entry)
    _require_unique([workload.name for workload in resolved], "workload")
    return resolved


def run_matrix(
    workloads: list[str | Workload],
    machines: dict[str, MachineConfig],
    renos: dict[str, RenoConfig | None],
    scale: int = 1,
    collect_timing: bool = False,
    record_stats: bool = False,
    max_instructions: int = 2_000_000,
    jobs: int | str | None = None,
    cache: ResultStore | bool | str | None = None,
    executor: Executor | None = None,
    progress: ProgressFn | None = None,
    cancel: CancelFn | None = None,
    backend: str | None = None,
) -> MatrixResult:
    """Simulate every (workload, machine, RENO config) combination.

    The functional trace for each workload is computed once and shared by all
    machine/RENO points, so every configuration sees the identical dynamic
    instruction stream (as in the paper's methodology).

    Duplicate labels on any axis — the same workload name twice, or a reused
    machine/RENO label — raise ValueError instead of silently overwriting
    outcomes in the result matrix.

    Args:
        workloads: Workload names (resolved via the registry) or objects.
        machines: Machine-label → configuration (a dict, or (label, config)
            pairs).
        renos: RENO-label → configuration (None = conventional baseline);
            same forms as ``machines``.
        scale: Workload scale factor.
        collect_timing: Keep per-instruction timing records (Figure 9).
        record_stats: Record per-structure occupancy histograms and issue
            utilization per cell (``outcome.stats.occupancy``; see
            :mod:`repro.uarch.observe`).
        max_instructions: Functional-simulation budget per workload.
        jobs: Worker processes to fan workloads out over: an int, ``"auto"``
            (one per CPU, see
            :func:`repro.harness.executors.resolve_executor`), or None to
            read ``$REPRO_JOBS`` (unset defaults to ``"auto"``).  Simulated
            results and their ordering are identical for every ``jobs``
            value, but outcomes computed by worker processes are *slim*
            (``outcome.program``/``outcome.functional`` are None — the
            program and trace are not shipped back over the pipe); callers
            needing those fields should run with ``jobs=1`` and a cold
            cache, as cache hits are slim too.
        cache: Result store.  None enables one only when ``$REPRO_STORE``
            or ``$REPRO_CACHE_DIR`` is set; True/False force the disk tier
            on/off; a locator or a :class:`~repro.store.base.ResultStore`
            selects a specific store.  See
            :func:`repro.harness.executors.resolve_cache`.
        executor: Explicit :class:`~repro.harness.executors.Executor`
            backend (overrides ``jobs``).
        progress: Per-cell completion callback
            (:data:`~repro.harness.executors.ProgressFn`).
        cancel: Cooperative cancellation probe
            (:data:`~repro.harness.executors.CancelFn`).
        backend: Cycle-loop backend name for every simulation (``"python"``,
            ``"compiled"``; see :mod:`repro.uarch.backend`), or None to
            defer to ``$REPRO_BACKEND``/``python``.  Results are identical
            for every backend — this only changes how fast cells compute —
            so it never enters spec digests or outcome-cache keys.
    """
    resolved = _resolve_workloads(workloads)
    machines = _normalize_axis(machines, "machine")
    renos = _normalize_axis(renos, "RENO")
    executor = resolve_executor(jobs, executor)
    store = resolve_cache(cache)
    tasks = build_tasks(
        resolved,
        machines,
        renos,
        scale=scale,
        collect_timing=collect_timing,
        record_stats=record_stats,
        max_instructions=max_instructions,
        cache_root=store_locator(store),
        backend=backend,
    )
    blocks = (executor.execute(tasks, store, progress=progress, cancel=cancel)
              if tasks else [])
    outcomes = {grid_key: outcome
                for block in blocks for grid_key, outcome in block}
    return MatrixResult(
        outcomes=outcomes,
        workloads=[workload.name for workload in resolved],
        machine_labels=list(machines),
        reno_labels=list(renos),
    )
