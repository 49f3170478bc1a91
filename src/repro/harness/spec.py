"""Declarative experiment specifications and the experiment registry.

A :class:`SweepSpec` captures one full experiment grid — (workloads ×
machines × RENO configs × scale) plus the simulation budget — as a plain,
hashable, JSON-round-trippable value.  Each figure is registered as an
:class:`Experiment`: a *spec builder* (parameters → :class:`SweepSpec`) plus
a *pure reducer* (:class:`~repro.harness.runner.MatrixResult` →
:class:`~repro.harness.experiments.ExperimentReport`).  That split is what
makes experiments scriptable:

* the spec is data — it can be printed, diffed, digested, serialised into a
  report artifact, and re-run bit-identically;
* the registry drives the ``python -m repro`` CLI (``list`` / ``run``), so
  every figure of the paper is runnable without writing Python;
* reducers never touch the engine, so parallelism/caching/executor choice
  cannot change report contents.

Example::

    from repro.harness import get_experiment, run_experiment

    spec = get_experiment("fig8").build_spec("specint", ["gzip_like"], 1)
    spec.digest()                # stable content hash of the whole grid
    report = run_experiment("fig8", workloads=["gzip_like"], jobs="auto")

Experiments whose shape is not one grid (the functional-only instruction
mix, the multi-scale sweep) register a custom ``run_fn`` instead of a
builder/reducer pair; the CLI treats both kinds identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.config import RenoConfig
from repro.harness.executors import CancelFn, Executor, ProgressFn
from repro.harness.runner import MatrixResult, _require_unique, run_matrix
from repro.store.base import ResultStore
from repro.uarch.config import MachineConfig
from repro.workloads.base import Workload
from repro.workloads.suites import suite_by_name


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid as a declarative, hashable value.

    Attributes:
        suite: Suite name the workloads came from (report labelling).
        workloads: Workload names, in report row order.
        machines: (label, machine config) pairs, in report column order.
        renos: (label, RENO config or None) pairs, in series order.
        scale: Workload scale factor (≥ 1).
        collect_timing: Keep per-instruction timing records.
        record_stats: Record occupancy/utilization histograms per cell.
        max_instructions: Functional-simulation budget per workload.
    """

    suite: str
    workloads: tuple[str, ...]
    machines: tuple[tuple[str, MachineConfig], ...]
    renos: tuple[tuple[str, RenoConfig | None], ...]
    scale: int = 1
    collect_timing: bool = False
    record_stats: bool = False
    max_instructions: int = 2_000_000

    def __post_init__(self):
        """Validate the grid: non-empty axes, unique labels, sane scale."""
        if not self.workloads:
            raise ValueError("spec needs at least one workload")
        if not self.machines or not self.renos:
            raise ValueError("spec needs at least one machine and one RENO config")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.max_instructions < 1:
            raise ValueError("max_instructions must be positive")
        _require_unique(list(self.workloads), "workload")
        _require_unique([label for label, _ in self.machines], "machine")
        _require_unique([label for label, _ in self.renos], "RENO")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_grid(
        cls,
        suite: str,
        workloads: list[str | Workload] | None,
        machines: dict[str, MachineConfig],
        renos: dict[str, RenoConfig | None],
        *,
        scale: int = 1,
        collect_timing: bool = False,
        record_stats: bool = False,
        max_instructions: int = 2_000_000,
    ) -> "SweepSpec":
        """Build a spec from an experiment's grid arguments.

        ``workloads=None`` resolves to the full named suite; explicit
        entries may be names or :class:`~repro.workloads.base.Workload`
        objects (stored by name — a spec is pure data, so re-running one
        built from *unregistered* ad-hoc objects requires the objects
        again; :meth:`Experiment.run` handles that case by running the
        grid with the original objects).
        """
        if workloads is None:
            names = tuple(workload.name for workload in suite_by_name(suite))
        else:
            names = tuple(
                entry.name if isinstance(entry, Workload) else entry
                for entry in workloads
            )
        return cls(
            suite=suite,
            workloads=names,
            machines=tuple(machines.items()),
            renos=tuple(renos.items()),
            scale=scale,
            collect_timing=collect_timing,
            record_stats=record_stats,
            max_instructions=max_instructions,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def machine_labels(self) -> list[str]:
        """Machine labels in grid order."""
        return [label for label, _ in self.machines]

    @property
    def reno_labels(self) -> list[str]:
        """RENO labels in grid order."""
        return [label for label, _ in self.renos]

    @property
    def grid_size(self) -> int:
        """Total number of (workload, machine, RENO) cells."""
        return len(self.workloads) * len(self.machines) * len(self.renos)

    # ------------------------------------------------------------------
    # Serialization / hashing
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The whole grid as a plain JSON-serialisable dictionary."""
        return {
            "suite": self.suite,
            "workloads": list(self.workloads),
            "machines": {label: machine.to_dict() for label, machine in self.machines},
            "renos": {
                label: (reno.to_dict() if reno is not None else None)
                for label, reno in self.renos
            },
            "scale": self.scale,
            "collect_timing": self.collect_timing,
            "record_stats": self.record_stats,
            "max_instructions": self.max_instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            suite=data["suite"],
            workloads=tuple(data["workloads"]),
            machines=tuple(
                (label, MachineConfig.from_dict(machine))
                for label, machine in data["machines"].items()
            ),
            renos=tuple(
                (label, RenoConfig.from_dict(reno) if reno is not None else None)
                for label, reno in data["renos"].items()
            ),
            scale=data["scale"],
            collect_timing=data["collect_timing"],
            # Absent in spec dicts serialised before observability existed.
            record_stats=data.get("record_stats", False),
            max_instructions=data["max_instructions"],
        )

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable content hash of the full grid (labels included)."""
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        jobs: int | str | None = None,
        cache: ResultStore | bool | str | None = None,
        executor: Executor | None = None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
        backend: str | None = None,
    ) -> MatrixResult:
        """Run the grid through the experiment engine.

        ``jobs``/``cache``/``executor``/``progress``/``cancel``/``backend``
        take the same forms as :func:`~repro.harness.runner.run_matrix`; the
        spec contributes everything else.  ``backend`` is deliberately a
        run-time argument and **not** a spec field: results are
        backend-independent, so it must never perturb :meth:`to_dict` or
        :meth:`digest` (and with them the outcome-cache identity of a grid).
        """
        return run_matrix(
            list(self.workloads),
            self.machines,
            self.renos,
            scale=self.scale,
            collect_timing=self.collect_timing,
            record_stats=self.record_stats,
            max_instructions=self.max_instructions,
            jobs=jobs,
            cache=cache,
            executor=executor,
            progress=progress,
            cancel=cancel,
            backend=backend,
        )


# ---------------------------------------------------------------------------
# The experiment registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A registered, named experiment: spec builder + pure reducer.

    Attributes:
        name: Registry key (``"fig8"``, ``"fig11_regs"``, ...).
        title: Human-readable title (``"Figure 8"``).
        description: One-line summary shown by ``python -m repro list``.
        default_suite: Suite used when the caller passes none.
        build_spec: ``(suite, workloads, scale, **params) -> SweepSpec``.
        reduce: ``(matrix, spec) -> ExperimentReport``; must be pure — it
            may only read the matrix and spec, never re-run simulations.
        run_fn: Custom runner for experiments that are not a single grid
            (signature ``(suite, workloads=, scale=, jobs=, cache=,
            executor=, progress=, cancel=, backend=, **params) ->
            ExperimentReport``); when set, ``build_spec``/``reduce`` are
            unused.
    """

    name: str
    title: str
    description: str
    default_suite: str = "specint"
    build_spec: Callable[..., SweepSpec] | None = None
    reduce: Callable[[MatrixResult, SweepSpec], Any] | None = None
    run_fn: Callable[..., Any] | None = None

    def run(
        self,
        suite: str | None = None,
        workloads: list[str] | None = None,
        scale: int = 1,
        jobs: int | str | None = None,
        cache: ResultStore | bool | str | None = None,
        executor: Executor | None = None,
        progress: ProgressFn | None = None,
        cancel: CancelFn | None = None,
        backend: str | None = None,
        **params,
    ):
        """Build the spec, run the grid, reduce to an ``ExperimentReport``.

        The returned report carries provenance: ``report.experiment`` is the
        registry name and ``report.spec`` the spec's :meth:`SweepSpec.to_dict`
        form (None for custom-runner experiments).  ``progress``/``cancel``
        stream per-cell completion out of (and cooperative cancellation
        into) the engine — this is the hook
        :class:`repro.api.session.Session` jobs are built on.
        """
        suite = suite or self.default_suite
        if self.run_fn is not None:
            report = self.run_fn(
                suite, workloads=workloads, scale=scale, jobs=jobs,
                cache=cache, executor=executor, progress=progress,
                cancel=cancel, backend=backend, **params,
            )
            spec_dict = None
        else:
            spec = self.build_spec(suite, workloads, scale, **params)
            # Ad-hoc Workload objects may not be in the registry, so the
            # grid runs with the objects themselves; the spec still records
            # their names for provenance.
            adhoc = {entry.name: entry for entry in workloads or ()
                     if isinstance(entry, Workload)}
            matrix = run_matrix(
                [adhoc.get(name, name) for name in spec.workloads],
                spec.machines, spec.renos,
                scale=spec.scale, collect_timing=spec.collect_timing,
                record_stats=spec.record_stats,
                max_instructions=spec.max_instructions,
                jobs=jobs, cache=cache, executor=executor,
                progress=progress, cancel=cancel, backend=backend,
            )
            report = self.reduce(matrix, spec)
            spec_dict = spec.to_dict()
        report.experiment = self.name
        report.spec = spec_dict
        return report


#: Registry name → :class:`Experiment`, in registration (paper) order.
EXPERIMENTS: dict[str, Experiment] = {}


def register_experiment(entry: Experiment) -> Experiment:
    """Add an experiment to the registry (duplicate names are an error)."""
    if entry.name in EXPERIMENTS:
        raise ValueError(f"experiment {entry.name!r} registered twice")
    EXPERIMENTS[entry.name] = entry
    return entry


def experiment(
    name: str,
    *,
    title: str,
    description: str = "",
    suite: str = "specint",
    reducer: Callable[[MatrixResult, SweepSpec], Any],
) -> Callable[[Callable[..., SweepSpec]], Callable[..., SweepSpec]]:
    """Decorator registering a spec builder (with its reducer) by name.

    Usage::

        @experiment("fig8", title="Figure 8",
                    description="...", reducer=_reduce_fig8)
        def _fig8_spec(suite, workloads, scale):
            return SweepSpec.from_grid(...)
    """

    def decorator(builder: Callable[..., SweepSpec]) -> Callable[..., SweepSpec]:
        register_experiment(Experiment(
            name=name,
            title=title,
            description=description,
            default_suite=suite,
            build_spec=builder,
            reduce=reducer,
        ))
        return builder

    return decorator


def _ensure_registered() -> None:
    # The experiment definitions live in repro.harness.experiments, which
    # imports this module for the decorator; import it lazily so the registry
    # fills itself on first use without a circular import.
    from repro.harness import experiments  # noqa: F401


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment by name."""
    _ensure_registered()
    try:
        return EXPERIMENTS[name]
    except KeyError as exc:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from exc


def list_experiments() -> list[Experiment]:
    """All registered experiments, in registration (paper) order."""
    _ensure_registered()
    return list(EXPERIMENTS.values())


def run_experiment(name: str, **kwargs):
    """Run a registered experiment end to end (see :meth:`Experiment.run`).

    Since the API redesign this is a thin client of the process-default
    :class:`repro.api.session.Session` — same arguments, same deterministic
    results, but every run flows through the one facade the service and the
    CLI also use (session defaults for ``jobs``/``cache``/``executor``
    apply only where the caller left them unset).
    """
    from repro.api.session import default_session

    return default_session().run_experiment(name, **kwargs)
