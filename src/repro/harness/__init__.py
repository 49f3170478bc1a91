"""Experiment harness: regenerates every figure of the paper's evaluation.

The harness is organised in two layers:

* **Specs and the registry** (:mod:`repro.harness.spec`,
  :mod:`repro.harness.experiments`): every figure is a declarative
  :class:`SweepSpec` grid plus a pure reducer, registered under a short
  name (``fig8`` ... ``fig12``, ``mix``, ``fusion``, ``it_cost``,
  ``scale_sweep``).  :func:`run_experiment` (or the ``python -m repro``
  CLI) is the one way to run any of them, and each returns an
  :class:`~repro.harness.experiments.ExperimentReport` whose rows mirror
  the paper's figure::

      from repro.harness import run_experiment

      report = run_experiment("fig8", suite="micro",
                              workloads=["micro_addi_chain"], jobs=1)

* **The engine** (:mod:`repro.harness.runner`,
  :mod:`repro.harness.executors`): :func:`run_matrix` runs a grid on a
  pluggable execution backend (serial / process pool, which ``"auto"``
  sizes to the CPU count) over a content-addressed result store
  (:mod:`repro.store`).

The benchmarks in ``benchmarks/`` and the examples in ``examples/`` build on
these layers.
"""

from repro.harness.executors import (
    CancelFn,
    ExecutionCancelled,
    Executor,
    ProcessExecutor,
    ProgressFn,
    SerialExecutor,
    outcome_key,
    program_digest,
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
    instruction_mix,
    run_scale_sweep,
)

__all__ = [
    "run_matrix",
    "MatrixResult",
    "SPEEDUP_BASELINE",
    "MatrixLookupError",
    "ZeroCycleError",
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
    "instruction_mix",
    "run_scale_sweep",
]
