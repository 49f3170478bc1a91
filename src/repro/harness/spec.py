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

With a result store active, :meth:`Experiment.run` keeps every finished
report in the store as a *report memo* under :func:`report_key`, and
answers a repeated request with that one read: no spec, no cell key, no
reducer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import repro
from repro.core.config import RenoConfig
from repro.harness.executors import CancelFn, Executor, ProgressFn, resolve_cache
from repro.harness.runner import MatrixResult, _require_unique, run_matrix
from repro.store.base import CACHE_FORMAT_VERSION, ResultStore
from repro.uarch.config import MachineConfig
from repro.workloads.base import Workload
from repro.workloads.suites import suite_by_name

logger = logging.getLogger("repro.harness")


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
# The report memo
# ---------------------------------------------------------------------------


#: The ``repro`` package directory, whose ``.py`` files :func:`source_digest`
#: covers.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=1)
def source_digest() -> str | None:
    """SHA-256 over every ``.py`` file of the ``repro`` package (sorted
    relative paths plus bytes), computed once per process; None when the
    sources cannot be read.

    It is part of every :func:`report_key`, so any edit to a reducer, spec
    builder, workload or simulator misses every report memo written before.
    The digest is taken on the first lookup, not at import, so it is None
    too — no memo for the rest of the process — when a file was modified
    after the process loaded the package (:data:`repro.LOADED_AT_NS`):
    the process runs the old code, and its reports must not be keyed by
    the new bytes.
    """
    try:
        paths = sorted(PACKAGE_ROOT.rglob("*.py"))
        if not paths:
            return None
        hasher = hashlib.sha256()
        for path in paths:
            hasher.update(path.relative_to(PACKAGE_ROOT).as_posix().encode()
                          + b"\0")
            hasher.update(path.read_bytes())
        edited = [path for path in paths
                  if path.stat().st_mtime_ns > repro.LOADED_AT_NS]
    except OSError:
        return None
    if edited:
        logger.warning("%s changed after this process loaded the repro "
                       "sources; report memo off until it restarts",
                       edited[0].relative_to(PACKAGE_ROOT).as_posix())
        return None
    return hasher.hexdigest()


def report_key(store, experiment: str, suite: str, workloads,
               scale, params: dict) -> str | None:
    """The report-memo key of one request, or None when it has none.

    A SHA-256 over :data:`~repro.store.base.CACHE_FORMAT_VERSION`,
    :func:`source_digest` and the canonical request JSON (experiment,
    resolved suite, workloads, scale, params).  None — compute, do not
    memoise — when ``store`` keeps no reports, a workload is an ad-hoc
    :class:`~repro.workloads.base.Workload` object, the params are not
    JSON or the sources cannot be read.
    """
    if store is None or not hasattr(store, "get_report"):
        return None
    if workloads is not None and not all(isinstance(name, str)
                                         for name in workloads):
        return None
    try:
        request = json.dumps({
            "experiment": experiment, "suite": suite,
            "workloads": list(workloads) if workloads is not None else None,
            "scale": scale, "params": params,
        }, sort_keys=True)
    except (TypeError, ValueError):
        return None
    sources = source_digest()
    if sources is None:
        return None
    material = f"{CACHE_FORMAT_VERSION}\n{sources}\n{request}"
    return hashlib.sha256(material.encode()).hexdigest()


def lookup_report(store, key: str | None) -> dict | None:
    """The report memo under ``key`` (its ``to_dict()`` form), or None.

    The store only returns a memo that decodes as a report
    (:func:`~repro.store.base.decode_report`).  A store that fails the
    lookup reads as a miss: the memo saves work, it never gates a run.
    """
    if key is None:
        return None
    try:
        return store.get_report(key)
    except Exception:             # noqa: BLE001 - a failed lookup is a miss
        return None


def remember_report(store, key: str | None, report: dict) -> None:
    """Store ``report`` (a ``to_dict()`` form) as the memo under ``key``;
    first writer wins, and a failed put only costs a later recompute."""
    if key is None:
        return
    try:
        store.put_report(key, report)
    except Exception:             # noqa: BLE001 - the report is already made
        pass


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

        With a store that keeps report memos, a repeated request is
        answered from the memo (:meth:`recall_or_run`).
        """
        report = self.recall_or_run(
            suite, workloads, scale, params, jobs=jobs, cache=cache,
            executor=executor, progress=progress, cancel=cancel,
            backend=backend)
        if isinstance(report, dict):
            from repro.harness.experiments import ExperimentReport

            return ExperimentReport.from_dict(report)
        return report

    def recall_or_run(self, suite, workloads, scale, params: dict, *,
                      jobs=None, cache=None, executor=None, progress=None,
                      cancel=None, backend=None, gate=None):
        """The report of one request: the wire dict of its report memo on a
        hit, else the computed ``ExperimentReport``, which is then stored.

        The store is resolved once and the memo (:func:`report_key`) is
        read before anything is built or run; a hit sends no progress
        event.  ``gate``, a context-manager factory, is entered on a miss
        only, and held until the report is stored: the memo is read again
        inside it, so a caller that gates on a cross-session claim finds
        the report of the holder it waited for.
        """
        suite = suite or self.default_suite
        store = resolve_cache(cache)
        key = report_key(store, self.name, suite, workloads, scale, params)
        memo = lookup_report(store, key)
        if memo is not None:
            return memo
        with gate() if gate is not None else contextlib.nullcontext():
            if gate is not None:
                memo = lookup_report(store, key)
                if memo is not None:
                    return memo
            # None would re-read the environment downstream; False stays off.
            report = self._compute(
                suite, workloads, scale, params,
                jobs=jobs, cache=store if store is not None else False,
                executor=executor, progress=progress, cancel=cancel,
                backend=backend)
            remember_report(store, key, report.to_dict())
        return report

    def _compute(self, suite, workloads, scale, params, **run):
        """Run the experiment (no memo) and stamp the report's provenance."""
        if self.run_fn is not None:
            report = self.run_fn(suite, workloads=workloads, scale=scale,
                                 **run, **params)
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
                max_instructions=spec.max_instructions, **run,
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
