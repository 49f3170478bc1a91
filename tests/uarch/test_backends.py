"""Property tests: the compiled cycle-loop backend is bit-identical to python.

The backend contract (:mod:`repro.uarch.backend`) is that backends differ
in *speed only*: every simulation observable — final architectural state,
statistics, occupancy histograms, snapshots — must be identical whichever
backend ran the cycle loop.  Seeded random programs (reusing the scheduler
equivalence generator: ALU ops, moves, folds, loads, stores, loops) are
run through both backends under several machine and RENO configurations,
with and without timing-record collection (``collect_timing``).

The strongest property here is the **lockstep snapshot** test: both
backends run the same program in slices and the pickled
:meth:`~repro.uarch.core.Pipeline.snapshot` bytes must match at every
slice boundary — full mutable-state equality at intermediate cycles, not
just at the end.  Snapshot hand-offs *across* backends (python → compiled
→ python) certify that a fleet can mix backends mid-run.

Compiled-specific tests skip (not fail) when no C toolchain is present;
the fallback tests force that situation with ``REPRO_NO_CC=1`` and assert
the degradation to python is silent and result-identical.
"""

import pickle
import threading
from dataclasses import fields
from enum import Enum

import pytest
from test_scheduler_equivalence import random_program

from repro.core import RenoConfig, RenoRenamer, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.functional.trace import TraceColumns
from repro.uarch import backend as backend_module
from repro.uarch.backend import backend_names, get_backend, resolve_backend
from repro.uarch.compiled import build, fresh
from repro.uarch.compiled.backend import CompiledBackend
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline

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
    """Fail the test when compiled work falls back to the python reference.

    The compiled backend replays any slice it cannot finish (unsupported
    pipeline, marshal error, nonzero kernel return) through
    ``Pipeline._run_cycles``, and a compiled functional run it cannot
    finish through ``FunctionalSimulator._interpret``; each replay produces
    the reference's results — so without this guard an equivalence test
    would pass while the kernel never ran.  A fresh cell that
    ``CompiledBackend.run_fresh`` declines fails too: its caller reruns it
    on a pipeline, whose kernel slice may well succeed, so nothing else
    would show that the fresh route never ran.
    """
    reference_loop = Pipeline._run_cycles
    reference_interpreter = FunctionalSimulator._interpret
    run_fresh = CompiledBackend.run_fresh

    def guarded(pipeline, stop_cycle=None):
        if pipeline.backend_name == "compiled":
            pytest.fail("a compiled slice fell back to Pipeline._run_cycles")
        return reference_loop(pipeline, stop_cycle)

    def guarded_interpreter(simulator, record_trace):
        if simulator.backend == "compiled":
            pytest.fail("a compiled functional run fell back to "
                        "FunctionalSimulator._interpret")
        return reference_interpreter(simulator, record_trace)

    def guarded_fresh(backend, *args, **kwargs):
        result = run_fresh(backend, *args, **kwargs)
        if result is None:
            pytest.fail("a compiled fresh cell was declined by run_fresh")
        return result

    monkeypatch.setattr(Pipeline, "_run_cycles", guarded)
    monkeypatch.setattr(FunctionalSimulator, "_interpret", guarded_interpreter)
    monkeypatch.setattr(CompiledBackend, "run_fresh", guarded_fresh)


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
    compiled_pipeline = make_pipeline(program, trace, reno, "compiled")
    assert compiled_pipeline.backend_name == "compiled"
    compiled = compiled_pipeline.run()
    python = make_pipeline(program, trace, reno, "python").run()
    assert_results_identical(compiled, python)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_compiled_matches_python_across_machines(machine_name):
    program, trace = build_run(4242)
    machine = MACHINES[machine_name]
    compiled = make_pipeline(program, trace, RenoConfig.reno_default(),
                             "compiled", machine=machine).run()
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
    compiled = make_pipeline(program, trace, reno, "compiled",
                             record_stats=True).run()
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
    compiled = make_pipeline(program, trace, reno, "compiled",
                             machine=machine, collect_timing=True).run()
    python = make_pipeline(program, trace, reno, "python", machine=machine,
                           collect_timing=True).run()
    assert len(python.timing_records) == len(trace)
    assert_timing_records_identical(compiled.timing_records,
                                    python.timing_records)
    assert_results_identical(compiled, python)


def to_plain(obj, on_path=None):
    """A pure-data, aliasing-free projection of an object graph.

    Pickle bytes are unusable for cross-backend comparison: marshal-out
    rebuilds objects, so the python side's shared references become
    distinct (equal) objects and the pickle memo encodes them differently.
    This projection compares *values only* — primitives pass through,
    containers recurse, arbitrary objects become ``(classname, attrs)``
    pairs, and reference cycles collapse to a marker.
    """
    if isinstance(obj, (int, float, str, bytes, bool, type(None))):
        return obj
    if isinstance(obj, bytearray):           # memory pages
        return bytes(obj)
    if isinstance(obj, Enum):                # a member is its name
        return (type(obj).__name__, obj.name)
    on_path = on_path or set()
    if id(obj) in on_path:
        return "<cycle>"
    on_path = on_path | {id(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_plain(item, on_path) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return ["<set>", sorted((to_plain(item, on_path) for item in obj),
                                key=repr)]
    if isinstance(obj, dict):
        # Insertion order is a rebuild artifact (marshal-out repopulates
        # index dicts in scan order); only the mapping itself is state.
        return sorted(((to_plain(k, on_path), to_plain(v, on_path))
                       for k, v in obj.items()), key=repr)
    attrs = {}
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    attrs.update(getattr(obj, "__dict__", {}))
    return (type(obj).__name__,
            [(name, to_plain(value, on_path))
             for name, value in sorted(attrs.items())])


def canonical_snapshot(pipeline):
    """Plain-data snapshot state after the marshaller's two documented
    normalisations (see :mod:`repro.uarch.compiled.marshal`): window
    ``value`` slots still holding the construction-time ``None`` read as
    ``0``, and in-flight ``RenameResult`` objects drop their (already
    consumed) ``sources``.  Everything else must match value for value.
    """
    snapshot = pipeline.snapshot()           # state is a detached deep copy
    window = snapshot.state["window"]
    window.value = [0 if v is None else v for v in window.value]
    for result in window.rename:
        if result is not None:
            result.sources = []
    return to_plain(snapshot.state)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("collect_timing", [False, True])
@pytest.mark.parametrize("seed", [SEEDS[0]])
def test_lockstep_snapshots_match_every_slice(seed, collect_timing):
    """Full mutable-state equality at every slice boundary, both backends.

    ``snapshot()`` captures everything the cycle loop mutates (and is
    itself lint-enforced complete — ``snapshot-coverage``), so equal
    pickled snapshots at cycle k mean the backends agree on *all*
    intermediate state, not just on the final result.  ``backend`` /
    ``backend_name`` are snapshot-exempt, which is exactly what makes this
    comparison well-defined.  With ``collect_timing`` the snapshot also
    covers ``_preg_writer``, the in-flight ``_producers``, the records
    retired so far and the window's issue/retire cycles.
    """
    program, trace = build_run(seed)
    reno = RenoConfig.reno_default()
    compiled_pipeline = make_pipeline(program, trace, reno, "compiled",
                                      collect_timing=collect_timing)
    python_pipeline = make_pipeline(program, trace, reno, "python",
                                    collect_timing=collect_timing)
    slice_cycles = 211          # a handful of mid-burst boundaries; the
    slices = 0                  # projection cost is per boundary, not per cycle
    producer_cuts = 0           # boundaries with producers in flight
    while True:
        compiled = compiled_pipeline.run(max_cycles=slice_cycles)
        python = python_pipeline.run(max_cycles=slice_cycles)
        assert compiled.finished == python.finished
        if compiled.finished:
            break
        slices += 1
        producer_cuts += bool(python_pipeline._producers)
        assert (canonical_snapshot(compiled_pipeline)
                == canonical_snapshot(python_pipeline)), (
            f"state diverged by slice {slices} (seed={seed})")
    assert slices > 1
    assert_results_identical(compiled, python)
    if collect_timing:
        assert producer_cuts
        assert_timing_records_identical(compiled.timing_records,
                                        python.timing_records)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("collect_timing", [False, True])
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_snapshot_handoff_across_backends(config_name, collect_timing):
    """python → compiled → python hand-offs finish bit-identically."""
    program, trace = build_run(SEEDS[1])
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno, "python",
                              collect_timing=collect_timing).run()

    chain = ["python", "compiled", "python", "compiled"]
    pipeline = make_pipeline(program, trace, reno, chain[0],
                             collect_timing=collect_timing)
    hops = 0
    result = pipeline.run(max_cycles=113)
    while not result.finished:
        hops += 1
        snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))
        pipeline = make_pipeline(program, trace, reno,
                                 chain[hops % len(chain)],
                                 collect_timing=collect_timing)
        pipeline.restore(snapshot)
        result = pipeline.run(max_cycles=113)
    assert hops >= 2, "program too short to exercise a backend hand-off"
    assert_results_identical(result, reference)
    if collect_timing:
        assert_timing_records_identical(result.timing_records,
                                        reference.timing_records)


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
def test_no_silent_replays_catches_a_declined_fresh_cell(no_silent_replays,
                                                        monkeypatch):
    """A fresh cell ``run_fresh`` declines fails the guard, although the
    pipeline route then runs it in the kernel and gets the right result."""
    monkeypatch.setattr(fresh, "run_cell", lambda *args: None)
    program = random_program(SEEDS[0], length=60).assemble()
    with pytest.raises(pytest.fail.Exception, match="fresh cell was declined"):
        simulate(program, backend="compiled")


@needs_compiled
def test_timeline_pipelines_run_on_the_python_reference(monkeypatch):
    """Timeline sampling is unsupported by the kernel: the compiled
    backend's ``supports()`` hands such pipelines to the reference loop."""
    program, trace = build_run(SEEDS[0], length=60)
    machine = MachineConfig.default_4wide()
    pipeline = Pipeline(program, trace, machine, timeline_stride=5,
                        backend="compiled")
    assert pipeline.backend_name == "compiled"
    assert not get_backend("compiled").supports(pipeline)
    reference_loop = Pipeline._run_cycles
    replayed = []

    def counted(self, stop_cycle=None):
        replayed.append(self.backend_name)
        return reference_loop(self, stop_cycle)

    monkeypatch.setattr(Pipeline, "_run_cycles", counted)
    sampled = pipeline.run()
    assert replayed == ["compiled"]
    reference = Pipeline(program, trace, machine, timeline_stride=5,
                         backend="python").run()
    assert sampled.timeline and sampled.timeline == reference.timeline
    assert_results_identical(sampled, reference)
