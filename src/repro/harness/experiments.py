"""One experiment per figure / in-text result of the paper's evaluation.

Each figure is registered in the experiment registry
(:mod:`repro.harness.spec`) as a *spec builder* — parameters →
:class:`~repro.harness.spec.SweepSpec` — plus a *pure reducer* that turns the
resulting :class:`~repro.harness.runner.MatrixResult` into an
:class:`ExperimentReport`.  The registry is what drives the ``python -m
repro`` CLI and :func:`~repro.harness.spec.run_experiment`, the one way to
run any of them.

Every experiment returns an :class:`ExperimentReport` whose rows mirror the
series of the corresponding figure.  ``workloads=None`` runs the full suite;
passing an explicit subset (as the benchmarks do) keeps runtimes bounded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.critpath import analyze_critical_path
from repro.analysis.report import (
    REPORT_SCHEMA_VERSION,
    check_schema_version,
    decode_data_key,
    encode_data_key,
    format_percent,
    format_table,
)
from repro.core.config import RenoConfig
from repro.functional.simulator import FunctionalSimulator
from repro.functional.trace import mix_statistics
from repro.harness.executors import shared_program
from repro.harness.runner import SPEEDUP_BASELINE, MatrixResult, run_matrix
from repro.harness.spec import Experiment, SweepSpec, experiment, register_experiment
from repro.uarch.config import MachineConfig
from repro.workloads.base import Workload
from repro.workloads.suites import suite_by_name


@dataclass
class ExperimentReport:
    """A regenerated table/figure: labelled rows plus the raw data.

    ``experiment`` and ``spec`` are provenance filled in by the registry
    (the registry name and the generating spec's dict form); reports built
    by hand leave them empty.  The whole report — including tuple-keyed
    ``data`` entries — round-trips exactly through :meth:`to_json` /
    :meth:`from_json`, which is what the ``--json`` CLI artifacts, the
    ``repro serve`` wire payloads and the structured benchmark comparisons
    consume.  ``schema_version`` stamps the serialised layout
    (:data:`~repro.analysis.report.REPORT_SCHEMA_VERSION`); readers accept
    older artifacts and refuse newer ones.

    ``occupancy`` (schema version 2) is an optional per-grid-cell
    occupancy/utilization section — ``"workload/machine/reno"`` →
    :meth:`repro.uarch.observe.OccupancyStats.summary` — populated only
    when the generating spec set ``record_stats``; it is None otherwise
    and for artifacts written before the section existed.
    """

    name: str
    description: str
    headers: list[str]
    rows: list[list[str]]
    data: dict = field(default_factory=dict)
    experiment: str = ""
    spec: dict | None = None
    occupancy: dict | None = None
    schema_version: int = REPORT_SCHEMA_VERSION

    def __str__(self) -> str:
        return format_table(self.headers, self.rows, title=f"{self.name}: {self.description}")

    # ------------------------------------------------------------------
    # Serialization (CLI artifacts, structured benchmark comparisons)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dictionary form (tuple data keys are tagged)."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "experiment": self.experiment,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "data": [[encode_data_key(key), value] for key, value in self.data.items()],
            "spec": self.spec,
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        """Inverse of :meth:`to_dict`.

        Artifacts that predate schema versioning read as version 1; a
        payload stamped with a *newer* schema than this package supports
        raises ValueError instead of being silently misread.
        """
        version = check_schema_version(payload.get("schema_version", 1))
        return cls(
            name=payload["name"],
            description=payload["description"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            data={decode_data_key(key): value for key, value in payload["data"]},
            experiment=payload.get("experiment", ""),
            spec=payload.get("spec"),
            occupancy=payload.get("occupancy"),
            schema_version=version,
        )

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict` (the ``--json`` artifact format)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Inverse of :meth:`to_json` (exact round-trip)."""
        return cls.from_dict(json.loads(text))


def _workload_list(suite: str, workloads: list[str] | None) -> list[str | Workload]:
    if workloads is not None:
        return list(workloads)
    return [workload.name for workload in suite_by_name(suite)]


def _label(name: str) -> str:
    from repro.workloads.base import get_workload

    return get_workload(name).label


_RENO_STACK = {
    SPEEDUP_BASELINE: None,
    "ME": RenoConfig.reno_me(),
    "CF+ME": RenoConfig.reno_cf_me(),
    "RENO": RenoConfig.reno_default(),
}


# ---------------------------------------------------------------------------
# Figure 8: elimination rates and speedups, 4- and 6-wide
# ---------------------------------------------------------------------------


def _reduce_fig8(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Elimination/fold shares and 4/6-wide speedups per workload + amean."""
    headers = ["benchmark", "ME%", "CF%", "RA+CSE%", "total%",
               "speedup 4w", "speedup 6w"]
    rows = []
    data = {}
    sums = [0.0] * 6
    for name in matrix.workloads:
        stats4 = matrix.get(name, "4wide", "RENO").stats
        speedup4 = matrix.speedup(name, "4wide", "RENO") - 1
        speedup6 = matrix.speedup(name, "6wide", "RENO") - 1
        values = [stats4.move_elimination_rate, stats4.fold_rate, stats4.cse_ra_rate,
                  stats4.elimination_rate, speedup4, speedup6]
        data[name] = dict(zip(["me", "cf", "cse_ra", "total", "speedup4", "speedup6"], values))
        sums = [total + value for total, value in zip(sums, values)]
        rows.append([_label(name)] + [format_percent(v) for v in values[:4]]
                    + [format_percent(v, signed=True) for v in values[4:]])
    count = len(matrix.workloads) or 1
    averages = [total / count for total in sums]
    rows.append(["amean"] + [format_percent(v) for v in averages[:4]]
                + [format_percent(v, signed=True) for v in averages[4:]])
    data["amean"] = dict(zip(["me", "cf", "cse_ra", "total", "speedup4", "speedup6"], averages))
    return ExperimentReport(
        name=f"Figure 8 ({spec.suite})",
        description="instructions eliminated/folded and RENO speedups (4- and 6-wide)",
        headers=headers, rows=rows, data=data,
    )


@experiment("fig8", title="Figure 8",
            description="instructions eliminated/folded and RENO speedups (4- and 6-wide)",
            reducer=_reduce_fig8)
def _fig8_spec(suite: str, workloads: list[str] | None, scale: int) -> SweepSpec:
    """Grid: {4wide, 6wide} × {BASE, RENO} over the suite."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={"4wide": MachineConfig.default_4wide(),
                  "6wide": MachineConfig.default_6wide()},
        renos={SPEEDUP_BASELINE: None, "RENO": RenoConfig.reno_default()},
        scale=scale,
    )


# ---------------------------------------------------------------------------
# Bottleneck sweep: occupancy attribution across the Figure 8 grid
# ---------------------------------------------------------------------------


def collect_occupancy(matrix: MatrixResult) -> dict:
    """The per-cell occupancy section of a matrix, keyed ``"w/m/r"``.

    Only cells whose outcomes actually carry occupancy statistics (i.e. the
    grid ran with ``record_stats=True``) contribute; everything else is
    skipped rather than emitted as an empty entry.
    """
    section = {}
    for (workload, machine, reno), outcome in matrix.outcomes.items():
        occupancy = outcome.stats.occupancy
        if occupancy is not None:
            section[f"{workload}/{machine}/{reno}"] = occupancy.summary()
    return section


def _reduce_bottleneck(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Utilization table per grid cell, plus the raw occupancy section."""
    headers = ["benchmark", "machine", "config", "ROB", "IQ", "PRF",
               "issue", "top stall"]
    rows = []
    data = {}
    for name in matrix.workloads:
        for machine_label in matrix.machine_labels:
            for reno_label in matrix.reno_labels:
                outcome = matrix.get(name, machine_label, reno_label)
                summary = outcome.stats.occupancy.summary()
                structures = summary["structures"]
                stalls = summary["fetch_stalls"]
                top_stall = (max(stalls, key=stalls.get)
                             if any(stalls.values()) else "-")
                data[(name, machine_label, reno_label)] = summary
                rows.append([
                    _label(name), machine_label, reno_label,
                    format_percent(structures["rob"]["utilization"]),
                    format_percent(structures["iq"]["utilization"]),
                    format_percent(structures["prf"]["utilization"]),
                    format_percent(summary["issue"]["utilization"]),
                    top_stall,
                ])
    return ExperimentReport(
        name=f"Bottleneck sweep ({spec.suite})",
        description="occupancy attribution: structure/issue utilization across the Figure 8 grid",
        headers=headers, rows=rows, data=data,
        occupancy=collect_occupancy(matrix),
    )


@experiment("bottleneck", title="Bottleneck sweep",
            description="occupancy attribution: structure/issue utilization across the Figure 8 grid",
            reducer=_reduce_bottleneck)
def _bottleneck_spec(suite: str, workloads: list[str] | None, scale: int) -> SweepSpec:
    """The Figure 8 grid with per-structure occupancy recording enabled."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={"4wide": MachineConfig.default_4wide(),
                  "6wide": MachineConfig.default_6wide()},
        renos={SPEEDUP_BASELINE: None, "RENO": RenoConfig.reno_default()},
        scale=scale,
        record_stats=True,
    )


# ---------------------------------------------------------------------------
# Figure 9: critical-path breakdown
# ---------------------------------------------------------------------------


def _reduce_fig9(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Critical-path bucket shares per (workload, RENO config)."""
    headers = ["benchmark", "config", "fetch", "alu", "load", "mem", "commit"]
    rows = []
    data = {}
    for name in matrix.workloads:
        for reno_label in matrix.reno_labels:
            outcome = matrix.get(name, "4wide", reno_label)
            breakdown = analyze_critical_path(outcome.timing.timing_records)
            fractions = breakdown.fractions()
            data[(name, reno_label)] = fractions
            rows.append([
                _label(name), reno_label,
                format_percent(fractions["fetch"]),
                format_percent(fractions["alu_exec"]),
                format_percent(fractions["load_exec"]),
                format_percent(fractions["load_mem"]),
                format_percent(fractions["commit"]),
            ])
    return ExperimentReport(
        name=f"Figure 9 ({spec.suite})",
        description="critical-path breakdown: baseline vs CF+ME vs full RENO",
        headers=headers, rows=rows, data=data,
    )


@experiment("fig9", title="Figure 9",
            description="critical-path breakdown: baseline vs CF+ME vs full RENO",
            reducer=_reduce_fig9)
def _fig9_spec(suite: str, workloads: list[str] | None, scale: int) -> SweepSpec:
    """Grid: 4wide × {BASE, CF+ME, RENO}, with timing records collected."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={"4wide": MachineConfig.default_4wide()},
        renos={SPEEDUP_BASELINE: None, "CF+ME": RenoConfig.reno_cf_me(),
               "RENO": RenoConfig.reno_default()},
        scale=scale,
        collect_timing=True,
    )


# ---------------------------------------------------------------------------
# Figure 10: division of labor between RENO_CF and RENO_CSE+RA
# ---------------------------------------------------------------------------


def _reduce_fig10(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Per-config speedups over baseline plus the cross-workload average."""
    config_labels = [label for label in matrix.reno_labels if label != SPEEDUP_BASELINE]
    headers = ["benchmark"] + [f"{label} speedup" for label in config_labels]
    rows = []
    data = {}
    sums = {label: 0.0 for label in config_labels}
    for name in matrix.workloads:
        row = [_label(name)]
        for label in config_labels:
            speedup = matrix.speedup(name, "4wide", label) - 1
            sums[label] += speedup
            data[(name, label)] = speedup
            row.append(format_percent(speedup, signed=True))
        rows.append(row)
    count = len(matrix.workloads) or 1
    rows.append(["avg"] + [format_percent(sums[label] / count, signed=True)
                           for label in config_labels])
    for label in config_labels:
        data[("avg", label)] = sums[label] / count
    return ExperimentReport(
        name=f"Figure 10 ({spec.suite})",
        description="cooperation between RENO_CF and RENO_CSE+RA",
        headers=headers, rows=rows, data=data,
    )


@experiment("fig10", title="Figure 10",
            description="cooperation between RENO_CF and RENO_CSE+RA",
            reducer=_reduce_fig10)
def _fig10_spec(suite: str, workloads: list[str] | None, scale: int) -> SweepSpec:
    """Grid: 4wide × {BASE, RENO, RENO+FullInteg, FullInteg, LoadsInteg}."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={"4wide": MachineConfig.default_4wide()},
        renos={
            SPEEDUP_BASELINE: None,
            "RENO": RenoConfig.reno_default(),
            "RENO+FullInteg": RenoConfig.reno_full_integration(),
            "FullInteg": RenoConfig.integration_only_full(),
            "LoadsInteg": RenoConfig.integration_only_loads(),
        },
        scale=scale,
    )


# ---------------------------------------------------------------------------
# Figure 11: compensating for smaller register files / narrower issue
# ---------------------------------------------------------------------------


def _relative_performance(matrix: MatrixResult, spec: SweepSpec,
                          reference_machine: str, name: str,
                          description: str, headers: list[str] | None = None,
                          key=lambda label: label) -> ExperimentReport:
    """BASE, CF+ME and RENO on every machine of the grid, each as the mean
    over workloads of ``reference_machine``'s BASE cycles over its own
    (100% = the reference machine's BASE).

    ``headers`` name the machine columns (default: the machine labels);
    ``data`` maps (RENO label, ``key(machine label)``) to the fraction.
    """
    rows = []
    data = {}
    for reno_label in (SPEEDUP_BASELINE, "CF+ME", "RENO"):
        row = [reno_label]
        for machine_label in matrix.machine_labels:
            relative = 0.0
            for workload in matrix.workloads:
                reference = matrix.get(workload, reference_machine,
                                       SPEEDUP_BASELINE).cycles
                target = matrix.get(workload, machine_label, reno_label).cycles
                relative += reference / target
            relative /= len(matrix.workloads) or 1
            data[(reno_label, key(machine_label))] = relative
            row.append(format_percent(relative))
        rows.append(row)
    return ExperimentReport(
        name=f"{name} ({spec.suite})", description=description,
        headers=["config"] + (headers or list(matrix.machine_labels)),
        rows=rows, data=data,
    )


def _reduce_fig11_registers(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Relative performance per register-file size; 100% = biggest-file BASE."""
    sizes = {label: int(label[1:]) for label in matrix.machine_labels}
    return _relative_performance(
        matrix, spec, f"p{max(sizes.values())}", "Figure 11 top",
        "RENO compensating for physical register file size", key=sizes.get)


@experiment("fig11_regs", title="Figure 11 (top)",
            description="RENO compensating for physical register file size",
            reducer=_reduce_fig11_registers)
def _fig11_regs_spec(
    suite: str,
    workloads: list[str] | None,
    scale: int,
    register_sizes: tuple[int, ...] = (96, 112, 128, 160),
) -> SweepSpec:
    """Grid: one machine per register-file size × the full RENO stack."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={f"p{size}": MachineConfig.default_4wide().with_registers(size)
                  for size in register_sizes},
        renos=dict(_RENO_STACK),
        scale=scale,
    )


def _reduce_fig11_width(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Relative performance per issue width; 100% = widest-machine BASE."""
    return _relative_performance(
        matrix, spec, matrix.machine_labels[-1], "Figure 11 bottom",
        "RENO compensating for reduced issue width")


@experiment("fig11_width", title="Figure 11 (bottom)",
            description="RENO compensating for reduced issue width",
            reducer=_reduce_fig11_width)
def _fig11_width_spec(
    suite: str,
    workloads: list[str] | None,
    scale: int,
    widths: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 4)),
) -> SweepSpec:
    """Grid: one machine per (int, total) issue width × the full RENO stack."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={f"i{i}t{t}": MachineConfig.default_4wide().with_issue(i, t)
                  for i, t in widths},
        renos=dict(_RENO_STACK),
        scale=scale,
    )


# ---------------------------------------------------------------------------
# Figure 12: 2-cycle wakeup/select loop
# ---------------------------------------------------------------------------


def _reduce_fig12(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Relative performance per scheduler latency; 100% = 1-cycle BASE."""
    return _relative_performance(
        matrix, spec, "sched1", "Figure 12",
        "RENO with a 2-cycle wakeup-select loop",
        headers=["1-cycle", "2-cycle"])


@experiment("fig12", title="Figure 12",
            description="RENO with a 2-cycle wakeup-select loop",
            reducer=_reduce_fig12)
def _fig12_spec(suite: str, workloads: list[str] | None, scale: int) -> SweepSpec:
    """Grid: {1-cycle, 2-cycle scheduler} × the full RENO stack."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={"sched1": MachineConfig.default_4wide(),
                  "sched2": MachineConfig.default_4wide().with_scheduler_latency(2)},
        renos=dict(_RENO_STACK),
        scale=scale,
    )


# ---------------------------------------------------------------------------
# Scale sweep: the same grids at growing workload sizes
# ---------------------------------------------------------------------------


def run_scale_sweep(
    suite: str = "specint",
    workloads: list[str] | None = None,
    scales: tuple[int, ...] = (1, 2, 4),
    jobs: int | str | None = None,
    cache=None,
    max_instructions: int = 2_000_000,
    executor=None,
    progress=None,
    cancel=None,
    backend=None,
) -> ExperimentReport:
    """Baseline-vs-RENO behaviour as the workloads scale up.

    For each ``scale`` the full (workload × {BASE, RENO}) grid is fanned
    through the parallel/cached experiment engine — ``jobs=`` parallelises
    across workloads and ``cache=`` makes repeated sweeps nearly free, which
    is what makes multi-scale grids cheap to iterate on.  Rows report the
    dynamic instruction count, baseline cycles/IPC and the RENO speedup at
    every (workload, scale) point, plus a per-scale arithmetic mean.

    Args:
        suite: Workload suite name (``specint``/``mediabench``).
        workloads: Optional explicit workload subset.
        scales: Scale factors to sweep (each roughly multiplies the dynamic
            instruction count).
        jobs: Worker processes per grid (see :func:`repro.harness.run_matrix`).
        cache: Outcome cache (same forms as :func:`repro.harness.run_matrix`).
        max_instructions: Functional-simulation budget per workload run.
        executor: Explicit execution backend (overrides ``jobs``).
        progress: Per-cell completion callback, applied per scale grid
            (:data:`~repro.harness.executors.ProgressFn`).
        cancel: Cooperative cancellation probe
            (:data:`~repro.harness.executors.CancelFn`).
        backend: Cycle-loop backend name for every grid (see
            :func:`repro.harness.run_matrix`).
    """
    names = _workload_list(suite, workloads)
    machines = {"4wide": MachineConfig.default_4wide()}
    renos = {SPEEDUP_BASELINE: None, "RENO": RenoConfig.reno_default()}

    headers = ["benchmark", "scale", "instructions", "base cycles",
               "base IPC", "RENO speedup"]
    rows = []
    data = {}
    for scale in scales:
        matrix = run_matrix(names, machines, renos, scale=scale, jobs=jobs,
                            cache=cache, max_instructions=max_instructions,
                            executor=executor, progress=progress,
                            cancel=cancel, backend=backend)
        speedup_sum = 0.0
        for name in matrix.workloads:
            base = matrix.get(name, "4wide", SPEEDUP_BASELINE)
            speedup = matrix.speedup(name, "4wide", "RENO") - 1
            speedup_sum += speedup
            data[(name, scale)] = {
                "instructions": base.stats.committed,
                "base_cycles": base.cycles,
                "base_ipc": base.ipc,
                "speedup": speedup,
            }
            rows.append([_label(name), str(scale), str(base.stats.committed),
                         str(base.cycles), f"{base.ipc:.2f}",
                         format_percent(speedup, signed=True)])
        count = len(matrix.workloads) or 1
        data[("amean", scale)] = {"speedup": speedup_sum / count}
        rows.append(["amean", str(scale), "", "", "",
                     format_percent(speedup_sum / count, signed=True)])
    return ExperimentReport(
        name=f"Scale sweep ({suite})",
        description=f"baseline vs RENO at workload scales {list(scales)}",
        headers=headers, rows=rows, data=data,
    )


def _run_scale_sweep_experiment(suite, workloads=None, scale=1, jobs=None,
                                cache=None, executor=None, progress=None,
                                cancel=None, backend=None, scales=(1, 2, 4),
                                **params):
    """Registry adapter for the scale sweep, which sweeps ``scales`` and
    therefore rejects a single ``scale=`` instead of silently ignoring it."""
    if scale != 1:
        raise ValueError(
            f"scale_sweep sweeps scales={tuple(scales)} and ignores scale=; "
            f"pass scales=... (Python) instead of scale={scale}"
        )
    return run_scale_sweep(suite, workloads=workloads, scales=tuple(scales),
                           jobs=jobs, cache=cache, executor=executor,
                           progress=progress, cancel=cancel, backend=backend,
                           **params)


register_experiment(Experiment(
    name="scale_sweep",
    title="Scale sweep",
    description="baseline vs RENO at workload scales {1, 2, 4}",
    run_fn=_run_scale_sweep_experiment,
))


# ---------------------------------------------------------------------------
# In-text results
# ---------------------------------------------------------------------------


def instruction_mix(
    suite: str = "specint",
    workloads: list[str] | None = None,
    scale: int = 1,
    backend: str | None = None,
) -> ExperimentReport:
    """Dynamic fractions of moves and register-immediate additions (§2.3).

    Runs only the (fast) functional simulator, on ``backend`` (see
    :class:`~repro.functional.simulator.FunctionalSimulator`), so it takes
    no ``jobs``/``cache`` arguments.
    """
    names = _workload_list(suite, workloads)
    headers = ["benchmark", "moves", "reg-imm adds", "loads", "stores", "branches"]
    rows = []
    data = {}
    sums = [0.0] * 5
    for entry in names:
        from repro.workloads.base import get_workload

        workload = get_workload(entry) if isinstance(entry, str) else entry
        result = FunctionalSimulator(shared_program(workload, scale),
                                     2_000_000, backend=backend).run()
        mix = mix_statistics(result.trace)
        values = [mix.move_fraction, mix.reg_imm_add_fraction, mix.load_fraction,
                  mix.store_fraction, mix.branch_fraction]
        sums = [total + value for total, value in zip(sums, values)]
        data[workload.name] = dict(zip(["moves", "addis", "loads", "stores", "branches"], values))
        rows.append([workload.label] + [format_percent(value) for value in values])
    count = len(names) or 1
    rows.append(["amean"] + [format_percent(total / count) for total in sums])
    data["amean"] = dict(zip(["moves", "addis", "loads", "stores", "branches"],
                             [total / count for total in sums]))
    return ExperimentReport(
        name=f"Instruction mix ({suite})",
        description="dynamic move / register-immediate-addition fractions (§2.3)",
        headers=headers, rows=rows, data=data,
    )


def _run_mix_experiment(suite, workloads=None, scale=1, jobs=None, cache=None,
                        executor=None, progress=None, cancel=None, backend=None,
                        **params):
    """Registry adapter: the mix is functional-only, so of the engine
    arguments it uses only ``backend`` (``jobs``/``cache``/``executor``/
    ``progress``/``cancel`` go unused);
    :meth:`repro.api.session.Session.run_experiment` has already validated
    ``jobs`` and ``cache``."""
    return instruction_mix(suite, workloads=workloads, scale=scale,
                           backend=backend)


register_experiment(Experiment(
    name="mix",
    title="Instruction mix",
    description="dynamic move / register-immediate-addition fractions (§2.3)",
    run_fn=_run_mix_experiment,
))


def _reduce_fusion(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """Benefit retained per workload when every fusion costs a cycle."""
    headers = ["benchmark", "CF+ME speedup", "slow-fusion speedup", "benefit retained"]
    rows = []
    data = {}
    for name in matrix.workloads:
        fast = matrix.speedup(name, "4wide", "CF+ME") - 1
        slow = matrix.speedup(name, "4wide", "CF+ME slow fusion") - 1
        retained = slow / fast if fast > 0 else 1.0
        data[name] = {"fast": fast, "slow": slow, "retained": retained}
        rows.append([_label(name), format_percent(fast, signed=True),
                     format_percent(slow, signed=True), format_percent(retained)])
    return ExperimentReport(
        name=f"Fusion sensitivity ({spec.suite})",
        description="RENO_CF benefit with 0-cycle vs 1-cycle fusion (§3.3)",
        headers=headers, rows=rows, data=data,
    )


@experiment("fusion", title="Fusion sensitivity",
            description="RENO_CF benefit with 0-cycle vs 1-cycle fusion (§3.3)",
            suite="mediabench", reducer=_reduce_fusion)
def _fusion_spec(suite: str, workloads: list[str] | None, scale: int) -> SweepSpec:
    """Grid: 4wide × {BASE, CF+ME, CF+ME with 1-cycle fusion}."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={"4wide": MachineConfig.default_4wide()},
        renos={SPEEDUP_BASELINE: None, "CF+ME": RenoConfig.reno_cf_me(),
               "CF+ME slow fusion": RenoConfig.reno_cf_me().with_slow_fusion()},
        scale=scale,
    )


def _reduce_it_cost(matrix: MatrixResult, spec: SweepSpec) -> ExperimentReport:
    """IT bandwidth (lookups + insertions) per division-of-labor policy."""
    headers = ["benchmark", "RENO IT accesses", "FullInteg IT accesses", "saved", "elim RENO", "elim FullInteg"]
    rows = []
    data = {}
    for name in matrix.workloads:
        default_stats = matrix.get(name, "4wide", "RENO").stats
        full_stats = matrix.get(name, "4wide", "RENO+FullInteg").stats
        default_accesses = default_stats.it_lookups + default_stats.it_insertions
        full_accesses = full_stats.it_lookups + full_stats.it_insertions
        saved = 1 - default_accesses / full_accesses if full_accesses else 0.0
        data[name] = {"default": default_accesses, "full": full_accesses, "saved": saved}
        rows.append([_label(name), str(default_accesses), str(full_accesses),
                     format_percent(saved),
                     format_percent(default_stats.elimination_rate),
                     format_percent(full_stats.elimination_rate)])
    return ExperimentReport(
        name=f"Integration table cost ({spec.suite})",
        description="IT bandwidth: loads-only division of labor vs full integration (§4.4)",
        headers=headers, rows=rows, data=data,
    )


@experiment("it_cost", title="Integration table cost",
            description="IT bandwidth: loads-only division of labor vs full integration (§4.4)",
            reducer=_reduce_it_cost)
def _it_cost_spec(suite: str, workloads: list[str] | None, scale: int) -> SweepSpec:
    """Grid: 4wide × {BASE, RENO, RENO+FullInteg}."""
    return SweepSpec.from_grid(
        suite, workloads,
        machines={"4wide": MachineConfig.default_4wide()},
        renos={SPEEDUP_BASELINE: None, "RENO": RenoConfig.reno_default(),
               "RENO+FullInteg": RenoConfig.reno_full_integration()},
        scale=scale,
    )
