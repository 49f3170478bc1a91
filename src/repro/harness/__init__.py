"""Experiment harness: regenerates every figure of the paper's evaluation.

The harness is organised around three layers:

* **Specs and the registry** (:mod:`repro.harness.spec`): every figure is a
  declarative :class:`SweepSpec` grid plus a pure reducer, registered under
  a short name (``fig8`` ... ``fig12``, ``mix``, ``fusion``, ``it_cost``,
  ``scale_sweep``) and runnable via :func:`run_experiment` or the
  ``python -m repro`` CLI.
* **The engine** (:mod:`repro.harness.executors`,
  :mod:`repro.harness.cache`): pluggable execution backends (serial /
  process pool, which ``"auto"`` sizes to the CPU count) over a
  content-addressed on-disk outcome cache.
* **Compat wrappers** (:mod:`repro.harness.experiments`): the original
  ``figure*`` functions, now thin shims over the registry, still returning
  :class:`~repro.harness.experiments.ExperimentReport` objects whose rows
  mirror the paper's figures.  The benchmarks in ``benchmarks/`` and the
  examples in ``examples/`` build on these layers.
"""

from repro.harness.cache import SimulationCache, file_lock, outcome_key, program_digest
from repro.harness.executors import (
    CancelFn,
    ExecutionCancelled,
    Executor,
    ProcessExecutor,
    ProgressFn,
    SerialExecutor,
    execute_grid,
    resolve_executor,
)
from repro.harness.runner import (
    MatrixLookupError,
    MatrixResult,
    SPEEDUP_BASELINE,
    ZeroCycleError,
    run_matrix,
)
from repro.harness.spec import (
    Experiment,
    SweepSpec,
    experiment,
    get_experiment,
    list_experiments,
    register_experiment,
    run_experiment,
)
from repro.harness.experiments import (
    ExperimentReport,
    figure8_elimination_and_speedup,
    figure9_critical_path,
    figure10_division_of_labor,
    figure11_register_file,
    figure11_issue_width,
    figure12_scheduler,
    instruction_mix,
    fusion_sensitivity,
    integration_table_cost,
    run_scale_sweep,
)

__all__ = [
    "run_matrix",
    "MatrixResult",
    "SPEEDUP_BASELINE",
    "MatrixLookupError",
    "ZeroCycleError",
    "SimulationCache",
    "execute_grid",
    "file_lock",
    "outcome_key",
    "program_digest",
    "Executor",
    "ExecutionCancelled",
    "ProgressFn",
    "CancelFn",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "SweepSpec",
    "Experiment",
    "experiment",
    "register_experiment",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "ExperimentReport",
    "figure8_elimination_and_speedup",
    "figure9_critical_path",
    "figure10_division_of_labor",
    "figure11_register_file",
    "figure11_issue_width",
    "figure12_scheduler",
    "instruction_mix",
    "fusion_sensitivity",
    "integration_table_cost",
    "run_scale_sweep",
]
