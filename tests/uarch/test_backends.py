"""Property tests: the compiled cycle-loop backend is bit-identical to python.

The backend contract (:mod:`repro.uarch.backend`) is that backends differ
in *speed only*: every simulation observable — final architectural state,
statistics, timing records and occupancy histograms — must be identical
whichever backend ran the cell.  Seeded random programs (the scheduler
equivalence generator: ALU ops, moves, folds, loads, stores, loops) are
run as whole compiled cells (``CompiledBackend.run_fresh``, the kernel's
one route) and on the python loop under several machine and RENO
configurations, with and without timing records and occupancy, on
machines with a 20,000-cycle memory and with every structure tiny.

The failure rule is tested here too: a kernel that returns a nonzero code
on a cell the python loop finishes raises ``KernelError`` after one
kernel call.  A cell the kernel declines (an immediate outside int64)
runs on the python loop with the python result, and a pipeline built on
the compiled backend refuses to run.

Compiled-specific tests skip (not fail) when no C toolchain is present;
the fallback tests force that situation with ``REPRO_NO_CC=1`` and assert
the degradation to python is silent and result-identical, while a kernel
that fails to build with a compiler present raises.
"""

import dataclasses
import threading
from dataclasses import fields

import pytest
from test_scheduler_equivalence import TINY, random_program

from repro.core import RenoConfig, RenoRenamer, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.functional.trace import TraceColumns
from repro.uarch import backend as backend_module
from repro.uarch.backend import backend_names, get_backend, resolve_backend
from repro.uarch.compiled import build, emit
from repro.uarch.compiled.backend import CompiledBackend
from repro.uarch.compiled.marshal import KernelError, KernelState, KernelTables
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.tables import TraceTables
from tests.functional.test_compiled_functional import wide_immediate_program

SEEDS = [3, 59, 977]

CONFIGS = {
    "BASE": None,
    "RENO": RenoConfig.reno_default(),
    "CF+ME": RenoConfig.reno_cf_me(),
}

MACHINES = {
    "4wide": MachineConfig.default_4wide(),
    "6wide": MachineConfig.default_6wide(),
    "sched2": MachineConfig.default_4wide().with_scheduler_latency(2),
}

#: Skip marker for tests that need the real compiled kernel.
needs_compiled = pytest.mark.skipif(
    not get_backend("compiled").available(),
    reason="no C toolchain on this runner")


def build_run(seed, length=200):
    program = random_program(seed, length=length).assemble()
    trace = FunctionalSimulator(program).run().trace
    return program, trace


def make_pipeline(program, trace, reno, backend, machine=None,
                  record_stats=False, collect_timing=False):
    machine = machine or MachineConfig.default_4wide()
    renamer = RenoRenamer(machine.num_physical_regs, reno) \
        if reno is not None else None
    return Pipeline(program, trace, machine, renamer=renamer,
                    record_stats=record_stats, backend=backend,
                    collect_timing=collect_timing)


def compiled_cell(program, trace, reno, machine=None, record_stats=False,
                  collect_timing=False):
    """The whole cell on the compiled backend (its fresh route)."""
    machine = machine or MachineConfig.default_4wide()
    return get_backend("compiled").run_fresh(
        program, trace, TraceTables(program, trace), machine, reno,
        collect_timing, record_stats)


def stats_dict(result):
    return {f.name: getattr(result.stats, f.name) for f in fields(result.stats)}


def assert_results_identical(compiled, python):
    assert stats_dict(compiled) == stats_dict(python)
    assert compiled.final_registers == python.final_registers
    assert compiled.finished and python.finished


def assert_timing_records_identical(compiled, python):
    """Field by field, value and type (a 1 is not a True here)."""
    assert compiled is not None and python is not None
    assert len(compiled) == len(python)
    for mine, theirs in zip(compiled, python):
        for field in fields(theirs):
            value, expected = (getattr(mine, field.name),
                               getattr(theirs, field.name))
            assert (type(value), value) == (type(expected), expected), (
                f"#{theirs.seq} {field.name}: {value!r} != {expected!r}")


@pytest.fixture
def no_silent_replays(monkeypatch):
    """Fail the test when compiled work runs on the python reference.

    The compiled backend runs a cell it declines on the python backend
    (``Pipeline._run_cycles``), and a compiled functional run it cannot
    finish on ``FunctionalSimulator._interpret``; each produces the
    reference's results, so without this guard an equivalence test would
    pass while the kernel never ran.  (A kernel failure cannot pass
    silently: its replay raises.)
    """
    reference_loop = Pipeline._run_cycles
    reference_interpreter = FunctionalSimulator._interpret
    run_fresh = CompiledBackend.run_fresh
    compiled_cells = []

    def compiled_cell(backend, *args, **kwargs):
        compiled_cells.append(backend)
        try:
            return run_fresh(backend, *args, **kwargs)
        finally:
            compiled_cells.pop()

    def guarded(pipeline):
        if compiled_cells or pipeline.backend_name == "compiled":
            pytest.fail("a compiled cell fell back to Pipeline._run_cycles")
        return reference_loop(pipeline)

    def guarded_interpreter(simulator, record_trace):
        if simulator.backend == "compiled":
            pytest.fail("a compiled functional run fell back to "
                        "FunctionalSimulator._interpret")
        return reference_interpreter(simulator, record_trace)

    monkeypatch.setattr(CompiledBackend, "run_fresh", compiled_cell)
    monkeypatch.setattr(Pipeline, "_run_cycles", guarded)
    monkeypatch.setattr(FunctionalSimulator, "_interpret", guarded_interpreter)


# ---------------------------------------------------------------------------
# Backend-vs-backend equivalence
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_matches_python(seed, config_name):
    program, trace = build_run(seed)
    reno = CONFIGS[config_name]
    compiled = compiled_cell(program, trace, reno)
    python = make_pipeline(program, trace, reno, "python").run()
    assert_results_identical(compiled, python)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_compiled_matches_python_across_machines(machine_name):
    program, trace = build_run(4242)
    machine = MACHINES[machine_name]
    compiled = compiled_cell(program, trace, RenoConfig.reno_default(),
                             machine=machine)
    python = make_pipeline(program, trace, RenoConfig.reno_default(),
                           "python", machine=machine).run()
    assert_results_identical(compiled, python)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_occupancy_histograms_identical(config_name):
    """The observability layer sees the same per-cycle history either way."""
    program, trace = build_run(SEEDS[0])
    reno = CONFIGS[config_name]
    compiled = compiled_cell(program, trace, reno, record_stats=True)
    python = make_pipeline(program, trace, reno, "python",
                           record_stats=True).run()
    assert compiled.stats.occupancy is not None
    assert (compiled.stats.occupancy.to_dict()
            == python.stats.occupancy.to_dict())
    assert_results_identical(compiled, python)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("machine_name", ["4wide", "sched2"])
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_timing_records_match_python(seed, config_name, machine_name):
    """The kernel's timing records equal the python loop's, field by field."""
    program, trace = build_run(seed)
    reno = CONFIGS[config_name]
    machine = MACHINES[machine_name]
    compiled = compiled_cell(program, trace, reno, machine=machine,
                             collect_timing=True)
    python = make_pipeline(program, trace, reno, "python", machine=machine,
                           collect_timing=True).run()
    assert len(python.timing_records) == len(trace)
    assert_timing_records_identical(compiled.timing_records,
                                    python.timing_records)
    assert_results_identical(compiled, python)


#: A machine whose memory round trip outlasts the kernel's wakeup ring.
SLOW_MEMORY = dataclasses.replace(MachineConfig.default_4wide(),
                                  name="slow-memory", memory_latency=20_000)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("machine", [SLOW_MEMORY, TINY],
                         ids=lambda machine: machine.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_extreme_machines_run_whole_in_the_kernel(seed, machine):
    """A 20,000-cycle memory and a machine with every structure tiny run
    whole cells in the kernel with no KernelError and the python run's
    result, timing records included."""
    program, trace = build_run(seed)
    for reno in (None, RenoConfig.reno_default()):
        reference = make_pipeline(program, trace, reno, "python",
                                  machine=machine, collect_timing=True).run()
        if machine is SLOW_MEMORY:
            assert reference.stats.l2_misses
        result = compiled_cell(program, trace, reno, machine=machine,
                               collect_timing=True)
        assert_results_identical(result, reference)
        assert result.timing_records == reference.timing_records


@pytest.mark.parametrize("reno", [None, RenoConfig.reno_default()],
                         ids=["BASE", "RENO"])
def test_a_declined_cell_matches_the_python_loop(reno, monkeypatch):
    """A cell the kernel declines (its program does not fit the static
    columns) runs on the python backend, with no kernel call, timed and
    observed, and gives the python loop's result."""
    program = wide_immediate_program()
    trace = FunctionalSimulator(program, backend="python").run().trace
    tables = TraceTables(program, trace)
    assert not KernelTables.of(tables).fits
    calls = []
    kernel = build.load_kernel()
    monkeypatch.setattr(build, "load_kernel", lambda: kernel and (
        lambda *args: calls.append(args) or kernel(*args)))
    machine = MachineConfig.default_4wide()
    cell = (program, trace, tables, machine, reno, True, True)
    declined = get_backend("compiled").run_fresh(*cell)
    reference = get_backend("python").run_fresh(*cell)
    assert calls == []
    assert_results_identical(declined, reference)
    assert declined.timing_records == reference.timing_records
    assert (declined.stats.occupancy.to_dict()
            == reference.stats.occupancy.to_dict())


# ---------------------------------------------------------------------------
# Selection, fallback and degradation
# ---------------------------------------------------------------------------


def test_backend_registry_lists_both_backends():
    names = backend_names()
    assert "python" in names
    assert "compiled" in names


def test_concurrent_first_lookups_share_one_instance(monkeypatch):
    """The built-in table is built once, however many threads ask first."""
    monkeypatch.setattr(backend_module, "_BACKENDS", None)
    start = threading.Barrier(8)
    found = []

    def look_up():
        start.wait()
        found.append(get_backend("compiled"))

    threads = [threading.Thread(target=look_up) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(found) == 8
    assert all(backend is found[0] for backend in found)
    assert resolve_backend("compiled") is found[0] or not found[0].available()


def test_unknown_backend_name_raises():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("turbo")


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert resolve_backend(None).name == "python"
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(None)


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    assert resolve_backend("python").name == "python"


def test_requested_compiled_degrades_silently_without_toolchain(monkeypatch):
    """``REPRO_NO_CC=1`` + ``backend="compiled"`` must run — on python."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    build.reset_cache()
    try:
        program, trace = build_run(SEEDS[0], length=60)
        pipeline = make_pipeline(program, trace, None, "compiled")
        assert pipeline.backend_name == "python"
        degraded = pipeline.run()
        reference = make_pipeline(program, trace, None, "python").run()
        assert_results_identical(degraded, reference)
    finally:
        monkeypatch.delenv("REPRO_NO_CC")
        build.reset_cache()


@pytest.mark.skipif(build.toolchain() is None, reason="needs a C compiler")
def test_a_kernel_that_fails_to_build_raises(tmp_path, monkeypatch):
    """With a compiler present, a kernel that does not compile raises
    ``KernelBuildError`` (memoised) instead of degrading to python."""
    sources = []

    def broken_source():
        sources.append(1)
        return "this is not C;\n"

    monkeypatch.setenv(build.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.setattr(emit, "kernel_source", broken_source)
    build.reset_cache()
    try:
        with pytest.raises(build.KernelBuildError, match="REPRO_NO_CC=1") \
                as raised:
            resolve_backend("compiled")
        assert "error" in str(raised.value)       # the compiler's stderr
        with pytest.raises(build.KernelBuildError):
            build.load_functional()
        assert sources == [1]
    finally:
        build.reset_cache()


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_compiled_simulate_runs_no_python(config_name):
    """``simulate(backend="compiled")`` runs the functional simulation and
    the cycle loop in C, and matches the all-python run."""
    program = random_program(SEEDS[1], length=200).assemble()
    reno = CONFIGS[config_name]
    compiled = simulate(program, reno=reno, backend="compiled")
    assert isinstance(compiled.functional.trace, TraceColumns)
    python = simulate(program, reno=reno, backend="python")
    assert type(python.functional.trace) is list
    assert_results_identical(compiled.timing, python.timing)


@needs_compiled
def test_no_silent_replays_catches_a_functional_fallback(no_silent_replays):
    """A compiled functional run the C entry hands back fails the guard."""
    program = random_program(SEEDS[0], length=60).assemble()
    with pytest.raises(pytest.fail.Exception, match="functional run fell back"):
        FunctionalSimulator(program, 50, backend="compiled").run()


@needs_compiled
def test_no_silent_replays_catches_a_declined_cell(no_silent_replays):
    """A compiled cell the kernel declines, which runs on the python
    backend, fails the guard."""
    program = wide_immediate_program()
    trace = FunctionalSimulator(program, backend="python").run().trace
    with pytest.raises(pytest.fail.Exception, match="compiled cell fell back"):
        compiled_cell(program, trace, None)


# ---------------------------------------------------------------------------
# The failure rule
# ---------------------------------------------------------------------------

#: Every nonzero ``repro_run`` return code.
ERROR_CODES = sorted(value for name, value in vars(emit).items()
                     if name.startswith("ERR_") and value != emit.ERR_OK)


def failing_kernel(monkeypatch, code):
    """Make the loaded kernel run and then return ``code``; returns the
    list of calls made."""
    kernel = build.load_kernel()
    calls = []

    def failing(*args):
        calls.append(kernel(*args))
        return code

    monkeypatch.setattr(build, "load_kernel", lambda: failing)
    return calls


@needs_compiled
@pytest.mark.parametrize("code", ERROR_CODES)
def test_a_failing_kernel_raises_kernel_error(code, monkeypatch):
    """A kernel that returns any nonzero code on a cell the python loop
    finishes fails loudly after one kernel call, with no result."""
    program = random_program(SEEDS[0], length=60).assemble()
    functional = FunctionalSimulator(program, backend="compiled").run()
    calls = failing_kernel(monkeypatch, code)
    name = next(name for name, value in vars(emit).items()
                if name.startswith("ERR_") and value == code)
    with pytest.raises(KernelError, match=name):
        simulate(program, reno=RenoConfig.reno_default(), trace=functional,
                 backend="compiled")
    assert calls == [emit.ERR_OK]


@pytest.mark.parametrize("timeline_stride", [0, 5])
def test_a_compiled_pipeline_refuses_to_run(timeline_stride):
    """The kernel runs whole cells only: a pipeline built on the compiled
    backend (which exists to be captured into a cell's image) raises
    instead of running the python loop under the ``compiled`` label, and
    nothing is ever marshalled out of the kernel.  The same pipeline on
    the python backend runs, timeline and all."""
    program, trace = build_run(SEEDS[0], length=60)
    machine = MachineConfig.default_4wide()
    pipeline = Pipeline(program, trace, machine,
                        timeline_stride=timeline_stride,
                        backend=get_backend("compiled"))
    assert pipeline.backend_name == "compiled"
    assert not get_backend("compiled").supports(pipeline)
    with pytest.raises(RuntimeError, match="run_fresh"):
        pipeline.run()
    assert pipeline._cycle == 0
    if KernelTables.of(pipeline.tables).fits:
        with pytest.raises(RuntimeError, match="run_fresh"):
            KernelState(pipeline).marshal_out(pipeline)
    reference = Pipeline(program, trace, machine,
                         timeline_stride=timeline_stride,
                         backend="python").run()
    assert reference.finished
    assert bool(reference.timeline) is bool(timeline_stride)
