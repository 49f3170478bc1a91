"""One-call simulation helpers combining the functional and timing models.

These are the functions examples, tests and the experiment harness use:

* :func:`simulate` — run a :class:`~repro.isa.program.Program` on a machine
  configuration, optionally with RENO enabled, and return both the functional
  and the timing results (with the architectural-equivalence check applied).
* :func:`simulate_workload` — the same, starting from a workload name.
* :func:`run_config_comparison` — run one workload under several RENO
  configurations (sharing the functional trace) and return per-config results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RenoConfig
from repro.functional.simulator import ExecutionResult, FunctionalSimulator
from repro.isa.program import Program
from repro.uarch.backend import resolve_backend
from repro.uarch.config import MachineConfig
from repro.uarch.core import SimResult
from repro.uarch.tables import TraceTables
from repro.workloads.base import Workload, get_workload


class ArchitecturalMismatchError(Exception):
    """Raised when the timing simulator's final state disagrees with the
    functional simulator's (this would indicate a renaming/RENO bug)."""


@dataclass
class SimulationOutcome:
    """Functional + timing results for one (program, machine, RENO) run.

    Outcomes loaded from the result store (see
    :mod:`repro.harness.executors`) are *slim*: ``program`` and
    ``functional`` are None (the store keeps only the timing result), and
    ``cached`` is True.  All report-facing accessors (``stats``, ``ipc``, ``cycles``,
    ``timing.timing_records``) behave identically for slim outcomes.
    """

    program: Program | None
    functional: ExecutionResult | None
    timing: SimResult
    reno_config: RenoConfig | None = None
    cached: bool = False

    @property
    def stats(self):
        return self.timing.stats

    @property
    def ipc(self) -> float:
        return self.timing.ipc

    @property
    def cycles(self) -> int:
        return self.timing.cycles


def simulate(
    program: Program,
    machine: MachineConfig | None = None,
    reno: RenoConfig | None = None,
    *,
    trace: ExecutionResult | None = None,
    collect_timing: bool = False,
    record_stats: bool = False,
    max_instructions: int = 2_000_000,
    verify: bool = True,
    backend: str | None = None,
    tables: TraceTables | None = None,
) -> SimulationOutcome:
    """Run ``program`` through the functional and timing simulators.

    Args:
        program: The assembled program.
        machine: Machine configuration (defaults to the paper's 4-wide core).
        reno: RENO configuration, or None for the conventional baseline.
        trace: Optionally reuse an existing functional run (saves time when
            comparing several configurations on the same workload).
        collect_timing: Collect per-instruction timing records for
            critical-path analysis.
        record_stats: Record per-structure occupancy histograms and issue
            utilization (``outcome.stats.occupancy``); see
            :mod:`repro.uarch.observe`.
        max_instructions: Functional-simulation budget.
        verify: Check that the timing simulator's final architectural state
            matches the functional simulator's.
        backend: Backend name for the functional run (when ``trace`` is
            None) and the timing run (``"python"``, ``"compiled"``), or
            None to consult ``$REPRO_BACKEND`` and default to ``python`` —
            see :mod:`repro.uarch.backend`.  Results are
            backend-independent; only speed changes.  The cell is the
            backend's :meth:`~repro.uarch.backend.CycleLoopBackend.run_fresh`:
            on ``compiled`` the kernel with no pipeline, whose failure
            raises the python loop's exception, or a
            :class:`~repro.uarch.compiled.marshal.KernelError` when the
            python loop finishes the cell.
        tables: The read-only tables of (``program``, ``trace.trace``)
            (:class:`~repro.uarch.tables.TraceTables`), built once by a
            caller that runs several cells on one trace; None builds them
            for this cell alone.

    Returns:
        A :class:`SimulationOutcome`.
    """
    machine = machine or MachineConfig.default_4wide()
    functional = trace or FunctionalSimulator(
        program, max_instructions, backend=backend).run()
    if tables is None:
        tables = TraceTables(program, functional.trace)
    timing = resolve_backend(backend).run_fresh(
        program, functional.trace, tables, machine, reno, collect_timing,
        record_stats)
    if verify:
        verify_registers(program, functional, timing, reno)
    return SimulationOutcome(program=program, functional=functional,
                             timing=timing, reno_config=reno)


def verify_registers(program: Program, functional: ExecutionResult,
                     timing: SimResult, reno: RenoConfig | None) -> None:
    """Raise :class:`ArchitecturalMismatchError` unless the timing run of
    ``program`` (with ``reno``, or the baseline) ends with the functional
    run's architectural registers."""
    if timing.final_registers != list(functional.state.snapshot()):
        raise ArchitecturalMismatchError(
            f"{program.name}: timing-simulator architectural state diverged "
            f"(reno={'on' if reno else 'off'})"
        )


def simulate_workload(
    workload: str | Workload,
    scale: int = 1,
    machine: MachineConfig | None = None,
    reno: RenoConfig | None = None,
    **kwargs,
) -> SimulationOutcome:
    """Build a workload's program and :func:`simulate` it."""
    if isinstance(workload, str):
        workload = get_workload(workload)
    program = workload.build(scale)
    return simulate(program, machine, reno, **kwargs)


def run_config_comparison(
    workload: str | Workload,
    configs: dict[str, RenoConfig | None],
    scale: int = 1,
    machine: MachineConfig | None = None,
    **kwargs,
) -> dict[str, SimulationOutcome]:
    """Run one workload under several RENO configurations.

    The functional trace and the tables derived from it are computed once
    and shared, so every configuration sees exactly the same dynamic
    instruction stream.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    program = workload.build(scale)
    functional = FunctionalSimulator(
        program, kwargs.pop("max_instructions", 2_000_000),
        backend=kwargs.get("backend")).run()
    tables = TraceTables(program, functional.trace)
    outcomes: dict[str, SimulationOutcome] = {}
    for label, reno in configs.items():
        outcomes[label] = simulate(
            program, machine, reno, trace=functional, tables=tables, **kwargs
        )
    return outcomes
