"""Tests for the declarative spec/registry API, executors, and the CLI.

Covers: SweepSpec dict/JSON round-trips and validation, registry
completeness (every figure experiment is registered and visible to
``python -m repro list``), ExperimentReport JSON round-trips (including
tuple data keys), the grid-runner label/zero-cycle guards, executor
selection and the process pool's serial fallback, and CLI smoke tests
(in-process and via subprocess).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.config import RenoConfig
from repro.core.simulator import SimulationOutcome
from repro.harness import (
    ExperimentReport,
    MatrixResult,
    ProcessExecutor,
    SerialExecutor,
    SweepSpec,
    ZeroCycleError,
    get_experiment,
    list_experiments,
    resolve_executor,
    run_experiment,
    run_matrix,
)
from repro.harness.executors import FLEET_ENV, JOBS_ENV, build_tasks
from repro.uarch.config import MachineConfig
from repro.uarch.core import SimResult
from repro.uarch.stats import SimStats
from repro.workloads.base import get_workload

SMALL = ["micro_addi_chain", "micro_call_spill"]
MACHINES = {"4wide": MachineConfig.default_4wide()}
RENOS = {"BASE": None, "RENO": RenoConfig.reno_default()}

#: Experiments built on SweepSpec grids (spec provenance in their reports).
SPEC_EXPERIMENTS = ["fig8", "fig9", "fig10", "fig11_regs", "fig11_width",
                    "fig12", "fusion", "it_cost"]

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def small_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        suite="micro",
        workloads=tuple(SMALL),
        machines=tuple(MACHINES.items()),
        renos=tuple(RENOS.items()),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# SweepSpec: round-trips, hashing, validation
# ---------------------------------------------------------------------------


def test_spec_dict_and_json_roundtrip():
    spec = small_spec(scale=2, collect_timing=True, max_instructions=123_456)
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    assert SweepSpec.from_json(spec.to_json()) == spec
    # to_dict is JSON-safe as-is.
    json.dumps(spec.to_dict())


def test_spec_is_hashable_and_digest_tracks_content():
    spec = small_spec()
    assert hash(spec) == hash(small_spec())
    assert spec.digest() == small_spec().digest()
    assert spec.digest() != small_spec(scale=2).digest()
    assert spec.digest() != small_spec(workloads=tuple(reversed(SMALL))).digest()


def test_spec_from_grid_resolves_suite_and_objects():
    by_name = SweepSpec.from_grid("micro", SMALL, MACHINES, RENOS)
    by_object = SweepSpec.from_grid(
        "micro", [get_workload(name) for name in SMALL], MACHINES, RENOS)
    assert by_name == by_object
    full = SweepSpec.from_grid("micro", None, MACHINES, RENOS)
    assert set(SMALL) <= set(full.workloads)
    assert full.grid_size == len(full.workloads) * 2


def test_spec_rejects_duplicate_labels_and_bad_scale():
    with pytest.raises(ValueError, match="duplicate workload"):
        small_spec(workloads=("micro_addi_chain", "micro_addi_chain"))
    with pytest.raises(ValueError, match="duplicate machine"):
        small_spec(machines=(("m", MachineConfig.default_4wide()),
                             ("m", MachineConfig.default_6wide())))
    with pytest.raises(ValueError, match="duplicate RENO"):
        small_spec(renos=(("R", None), ("R", RenoConfig.reno_default())))
    with pytest.raises(ValueError, match="scale"):
        small_spec(scale=0)
    with pytest.raises(ValueError, match="workload"):
        small_spec(workloads=())


def test_spec_run_matches_run_matrix():
    spec = small_spec(workloads=tuple(SMALL[:1]))
    matrix = spec.run(jobs=1, cache=False)
    reference = run_matrix(SMALL[:1], MACHINES, RENOS, jobs=1, cache=False)
    assert list(matrix.outcomes) == list(reference.outcomes)
    for key in matrix.outcomes:
        assert matrix.outcomes[key].cycles == reference.outcomes[key].cycles


# ---------------------------------------------------------------------------
# Registry completeness
# ---------------------------------------------------------------------------


def test_every_figure_function_is_registered():
    registered = {entry.name for entry in list_experiments()}
    assert {"fig8", "fig9", "fig10", "fig11_regs", "fig11_width", "fig12",
            "mix", "fusion", "it_cost", "scale_sweep"} <= registered


def test_registered_experiments_match_figure_wrappers():
    from repro.harness import experiments as module

    wrappers = {
        "fig8": module.figure8_elimination_and_speedup,
        "fig9": module.figure9_critical_path,
        "fig10": module.figure10_division_of_labor,
        "fig11_regs": module.figure11_register_file,
        "fig11_width": module.figure11_issue_width,
        "fig12": module.figure12_scheduler,
    }
    for name, wrapper in wrappers.items():
        direct = run_experiment(name, suite="micro", workloads=SMALL[:1],
                                jobs=1, cache=False)
        compat = wrapper("micro", workloads=SMALL[:1], jobs=1, cache=False)
        assert compat.rows == direct.rows
        assert compat.data == direct.data
        assert compat.experiment == name


def test_spec_experiments_carry_spec_provenance():
    report = run_experiment("fig8", suite="micro", workloads=SMALL[:1],
                            jobs=1, cache=False)
    assert report.experiment == "fig8"
    spec = SweepSpec.from_dict(report.spec)
    assert spec.workloads == tuple(SMALL[:1])
    assert spec.suite == "micro"
    # Custom-runner experiments have no single generating spec.
    mix = run_experiment("mix", suite="micro", workloads=SMALL[:1])
    assert mix.experiment == "mix" and mix.spec is None


def test_unknown_experiment_error_names_known_ones():
    with pytest.raises(KeyError, match="fig8"):
        get_experiment("fig99")


# ---------------------------------------------------------------------------
# ExperimentReport serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig8", "fig10", "fig11_regs"])
def test_report_json_roundtrip_is_exact(name):
    report = run_experiment(name, suite="micro", workloads=SMALL,
                            jobs=1, cache=False)
    restored = ExperimentReport.from_json(report.to_json())
    assert restored == report
    assert str(restored) == str(report)


def test_report_roundtrip_preserves_tuple_keys_with_ints():
    report = run_experiment("fig11_regs", suite="micro", workloads=SMALL[:1],
                            register_sizes=(112, 160), jobs=1, cache=False)
    assert ("BASE", 160) in report.data
    restored = ExperimentReport.from_json(report.to_json())
    assert restored.data[("BASE", 160)] == report.data[("BASE", 160)]
    assert set(restored.data) == set(report.data)


# ---------------------------------------------------------------------------
# Grid-runner guards (satellites)
# ---------------------------------------------------------------------------


def test_run_matrix_rejects_duplicate_workload_names():
    with pytest.raises(ValueError, match="duplicate workload"):
        run_matrix(["micro_addi_chain", "micro_addi_chain"], MACHINES, RENOS)


def test_run_matrix_rejects_duplicate_axis_labels_in_pairs():
    pairs = [("m", MachineConfig.default_4wide()), ("m", MachineConfig.default_6wide())]
    with pytest.raises(ValueError, match="duplicate machine"):
        run_matrix(SMALL[:1], pairs, RENOS)
    reno_pairs = [("BASE", None), ("BASE", RenoConfig.reno_default())]
    with pytest.raises(ValueError, match="duplicate RENO"):
        run_matrix(SMALL[:1], MACHINES, reno_pairs)


def zero_cycle_matrix() -> MatrixResult:
    config = MachineConfig.default_4wide()
    broken = SimulationOutcome(
        program=None, functional=None,
        timing=SimResult(stats=SimStats(), config=config))
    healthy_stats = SimStats()
    healthy_stats.cycles = 100
    healthy = SimulationOutcome(
        program=None, functional=None,
        timing=SimResult(stats=healthy_stats, config=config))
    return MatrixResult(
        outcomes={("w", "m", "BASE"): healthy, ("w", "m", "RENO"): broken},
        workloads=["w"], machine_labels=["m"], reno_labels=["BASE", "RENO"],
    )


def test_speedup_raises_on_zero_cycle_target():
    matrix = zero_cycle_matrix()
    with pytest.raises(ZeroCycleError, match="cycles == 0") as excinfo:
        matrix.speedup("w", "m", "RENO")
    assert excinfo.value.triple == ("w", "m", "RENO")


def test_speedup_raises_on_zero_cycle_baseline():
    matrix = zero_cycle_matrix()
    # Target the healthy outcome against the broken baseline.
    with pytest.raises(ZeroCycleError, match="RENO"):
        matrix.speedup("w", "m", "BASE", baseline_reno="RENO")


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


def micro_tasks(count: int = 2):
    workloads = [get_workload(name) for name in SMALL[:count]]
    return build_tasks(workloads, MACHINES, RENOS)


class _NoPoolContext:
    """A fork context stand-in whose ``Pool`` fails the test if used."""

    def Pool(self, *args, **kwargs):
        raise AssertionError("a process pool was created")


def _assert_runs_in_process(executor, tasks, monkeypatch, fork=True):
    """Run ``tasks`` and check they ran serially, without a pool: in-process
    blocks keep each computed outcome's functional trace."""
    from repro.harness import executors

    monkeypatch.setattr(executors, "_fork_context",
                        lambda: _NoPoolContext() if fork else None)
    blocks = executor.execute(tasks, cache=None)
    serial = SerialExecutor().execute(tasks, cache=None)
    assert len(blocks) == len(tasks)
    for block, reference in zip(blocks, serial):
        assert [(key, outcome.cycles) for key, outcome in block] == \
               [(key, outcome.cycles) for key, outcome in reference]
        assert all(outcome.functional is not None for _, outcome in block)


def test_process_executor_with_one_job_runs_in_process(monkeypatch):
    _assert_runs_in_process(ProcessExecutor(1), micro_tasks(), monkeypatch)


def test_process_executor_with_one_task_runs_in_process(monkeypatch):
    _assert_runs_in_process(ProcessExecutor(8), micro_tasks(1), monkeypatch)


def test_process_executor_without_fork_runs_in_process(monkeypatch):
    _assert_runs_in_process(ProcessExecutor(8), micro_tasks(), monkeypatch,
                            fork=False)


def test_process_executor_with_unpicklable_task_runs_in_process(monkeypatch):
    from repro.workloads.base import Workload

    base = get_workload("micro_addi_chain")
    adhoc = Workload(name="adhoc_closure", suite="example",
                     builder=lambda scale: base.builder(scale))
    tasks = build_tasks([adhoc, get_workload(SMALL[1])], MACHINES, RENOS)
    _assert_runs_in_process(ProcessExecutor(8), tasks, monkeypatch)


def test_figure_wrappers_accept_adhoc_workload_objects():
    from repro.harness import figure12_scheduler
    from repro.workloads.base import Workload

    base = get_workload("micro_addi_chain")
    adhoc = Workload(name="adhoc_kernel", suite="example", builder=base.builder)
    report = figure12_scheduler("micro", workloads=[adhoc], jobs=1, cache=False)
    assert report.rows
    assert SweepSpec.from_dict(report.spec).workloads == ("adhoc_kernel",)


def test_resolve_executor_forms(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    monkeypatch.delenv(FLEET_ENV, raising=False)
    cpus = os.cpu_count() or 1
    for jobs in (None, "auto", "AUTO"):
        executor = resolve_executor(jobs)
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == cpus
    assert isinstance(resolve_executor(1), SerialExecutor)
    assert isinstance(resolve_executor(4), ProcessExecutor)
    assert isinstance(resolve_executor("4"), ProcessExecutor)
    monkeypatch.setenv(JOBS_ENV, "2")
    assert resolve_executor(None).jobs == 2
    monkeypatch.setenv(JOBS_ENV, "auto")
    assert resolve_executor(None).jobs == cpus
    explicit = SerialExecutor()
    assert resolve_executor(8, executor=explicit) is explicit


@pytest.mark.parametrize("jobs", ["8x", "fuor", "", "2.5"])
def test_resolve_executor_rejects_unparseable_jobs(jobs):
    with pytest.raises(ValueError, match="an integer, 'auto' or 'fleet'"):
        resolve_executor(jobs)


def test_resolve_executor_rejects_unparseable_env_jobs(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "fuor")
    with pytest.raises(ValueError, match="'fuor'"):
        resolve_executor(None)


def test_cli_rejects_unparseable_jobs(capsys):
    assert cli_main(["run", "fig8", "--suite", "micro",
                     "--workloads", "micro_addi_chain",
                     "--jobs", "8x", "--no-cache", "--quiet"]) == 2
    assert "an integer, 'auto' or 'fleet'" in capsys.readouterr().err


def test_jobs_auto_matches_serial_rows():
    auto = run_matrix(SMALL, MACHINES, RENOS, jobs="auto", cache=False)
    serial = run_matrix(SMALL, MACHINES, RENOS, jobs=1, cache=False)
    assert list(auto.outcomes) == list(serial.outcomes)
    for key in auto.outcomes:
        assert auto.outcomes[key].cycles == serial.outcomes[key].cycles


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_writes_roundtrippable_json(tmp_path, capsys):
    out = tmp_path / "fig8.json"
    code = cli_main(["run", "fig8", "--suite", "micro",
                     "--workloads", "micro_addi_chain",
                     "--jobs", "auto", "--no-cache", "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Figure 8 (micro)" in printed
    report = ExperimentReport.from_json(out.read_text())
    direct = run_experiment("fig8", suite="micro",
                            workloads=["micro_addi_chain"], jobs=1, cache=False)
    assert report == direct
    assert report.to_json() + "\n" == out.read_text()


def test_cli_list_shows_every_registered_experiment(capsys):
    assert cli_main(["list"]) == 0
    printed = capsys.readouterr().out
    for entry in list_experiments():
        assert entry.name in printed


def test_scale_sweep_rejects_single_scale():
    with pytest.raises(ValueError, match="scale_sweep sweeps"):
        run_experiment("scale_sweep", suite="micro", workloads=SMALL[:1], scale=2)


def test_cli_scale_flag_on_scale_sweep_runs_that_one_scale(capsys):
    # The CLI routes any --scale value into scales= for the sweep, so a
    # single value runs a one-scale sweep (the Python-level scale= keyword
    # still raises, see test_scale_sweep_rejects_single_scale).
    code = cli_main(["run", "scale_sweep", "--suite", "micro",
                     "--workloads", "micro_addi_chain", "--scale", "2",
                     "--no-cache", "--quiet"])
    assert code == 0


def test_cli_leaves_jobs_unset_so_env_applies(monkeypatch, capsys):
    import repro.harness.executors as executors_module

    seen = {}
    real = executors_module.resolve_executor

    def spy(jobs=None, executor=None):
        seen["jobs"] = jobs
        return real(jobs, executor)

    monkeypatch.setattr(executors_module, "resolve_executor", spy)
    assert cli_main(["run", "fig8", "--suite", "micro",
                     "--workloads", "micro_addi_chain",
                     "--no-cache", "--quiet"]) == 0
    assert seen["jobs"] is None            # $REPRO_JOBS stays authoritative
    assert cli_main(["run", "fig8", "--suite", "micro",
                     "--workloads", "micro_addi_chain",
                     "--jobs", "2", "--no-cache", "--quiet"]) == 0
    assert seen["jobs"] == "2"


def test_cli_list_workloads_covers_every_suite(capsys):
    from repro.workloads.base import list_workloads

    assert cli_main(["list", "--workloads"]) == 0
    printed = capsys.readouterr().out
    for workload in list_workloads():
        assert workload.suite in printed


def test_cli_rejects_unknown_experiment_and_workload(capsys):
    assert cli_main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
    assert cli_main(["run", "fig8", "--suite", "micro",
                     "--workloads", "no_such_kernel", "--no-cache"]) == 2
    assert "no_such_kernel" in capsys.readouterr().err


def test_cli_cache_subcommand_reports_and_clears(tmp_path, capsys, monkeypatch):
    from repro.harness.cache import CACHE_DIR_ENV

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    run_matrix(SMALL[:1], MACHINES, {"BASE": None}, cache=True)
    assert cli_main(["cache"]) == 0
    assert "entries:     1" in capsys.readouterr().out
    assert cli_main(["cache", "--clear"]) == 0
    assert "removed:     1" in capsys.readouterr().out


def test_cli_module_entry_point_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        env=subprocess_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "fig8" in result.stdout


def test_cli_run_smoke_via_subprocess(tmp_path):
    out = tmp_path / "fig8.json"
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig8", "--suite", "micro",
         "--workloads", "micro_addi_chain", "--jobs", "auto",
         "--no-cache", "--json", str(out)],
        env=subprocess_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = ExperimentReport.from_json(out.read_text())
    assert report.experiment == "fig8"
    assert report.rows


def test_legacy_run_fn_signature_still_works():
    """Externally registered experiments whose run_fn predates the
    progress/cancel hooks must keep working for plain runs (the hooks are
    only passed when a caller actually supplies them)."""
    from repro.harness.spec import EXPERIMENTS, Experiment

    def legacy_run_fn(suite, workloads=None, scale=1, jobs=None, cache=None,
                      executor=None):
        return ExperimentReport(name="legacy", description=suite,
                                headers=["x"], rows=[["1"]])

    entry = Experiment(name="_legacy_test", title="t", description="d",
                       run_fn=legacy_run_fn)
    EXPERIMENTS[entry.name] = entry
    try:
        report = run_experiment("_legacy_test", suite="micro")
        assert report.name == "legacy"
        # With a hook supplied the legacy signature fails loudly (the
        # feature genuinely needs the new parameter) ...
        with pytest.raises(TypeError):
            entry.run(suite="micro", progress=lambda key, cached: None)
    finally:
        del EXPERIMENTS[entry.name]
