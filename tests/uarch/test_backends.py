"""Property tests: the compiled cycle-loop backend is bit-identical to python.

The backend contract (:mod:`repro.uarch.backend`) is that backends differ
in *speed only*: every simulation observable — final architectural state,
statistics, occupancy histograms, snapshots — must be identical whichever
backend ran the cycle loop.  Seeded random programs (reusing the scheduler
equivalence generator: ALU ops, moves, folds, loads, stores, loops) are
run through both backends under several machine and RENO configurations,
with and without timing-record collection (``collect_timing``).

The strongest property here is the **lockstep snapshot** test: both
backends run the same program in slices and the
:meth:`~repro.uarch.core.Pipeline.snapshot` states must match value for
value at every slice boundary — full mutable-state equality at
intermediate cycles, not just at the end.  Snapshot hand-offs *across*
backends (python → compiled → python) certify that one run can change
backend mid-run.

The failure rule is tested here too: a kernel that returns a nonzero
code on a cell the python loop finishes raises ``KernelError`` after one
kernel call, on the fresh route and on a sliced pipeline, while a real
simulation error raises the python backend's exception; and sliced runs
cut at random cycles and handed between backends, on machines with a
20,000-cycle memory and with every structure tiny, finish with no
``KernelError`` and the python result.

Compiled-specific tests skip (not fail) when no C toolchain is present;
the fallback tests force that situation with ``REPRO_NO_CC=1`` and assert
the degradation to python is silent and result-identical, while a kernel
that fails to build with a compiler present raises.  A marshal round trip
(marshal-in, then marshal-out, no kernel call) runs without a toolchain.
"""

import dataclasses
import io
import pickle
import random
import threading
from dataclasses import fields
from enum import Enum

import pytest
from test_scheduler_equivalence import TINY, random_program

from repro.core import RenoConfig, RenoRenamer, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.functional.trace import TraceColumns
from repro.uarch import backend as backend_module
from repro.uarch.backend import backend_names, get_backend, resolve_backend
from repro.uarch.compiled import build, emit
from repro.uarch.compiled.marshal import KernelError, KernelState
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.rename import RenameResult
from repro.workloads import get_workload

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
    """Fail the test when compiled work runs on the python reference.

    The compiled backend runs a slice on ``Pipeline._run_cycles`` when
    ``supports()`` declines its pipeline, and a compiled functional run it
    cannot finish on ``FunctionalSimulator._interpret``; each produces the
    reference's results, so without this guard an equivalence test would
    pass while the kernel never ran.  (A kernel failure cannot pass
    silently: its replay raises.)
    """
    reference_loop = Pipeline._run_cycles
    reference_interpreter = FunctionalSimulator._interpret

    def guarded(pipeline, stop_cycle=None):
        if pipeline.backend_name == "compiled":
            pytest.fail("a compiled slice fell back to Pipeline._run_cycles")
        return reference_loop(pipeline, stop_cycle)

    def guarded_interpreter(simulator, record_trace):
        if simulator.backend == "compiled":
            pytest.fail("a compiled functional run fell back to "
                        "FunctionalSimulator._interpret")
        return reference_interpreter(simulator, record_trace)

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


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("collect_timing", [False, True])
@pytest.mark.parametrize("config_name", ["BASE", "RENO"])
@pytest.mark.parametrize("seed", [SEEDS[0]])
def test_lockstep_snapshots_match_every_slice(seed, config_name,
                                              collect_timing):
    """Full mutable-state equality at every slice boundary, both backends.

    ``snapshot()`` captures everything the cycle loop mutates (and is
    itself lint-enforced complete — ``snapshot-coverage``), so equal
    snapshot states at cycle k mean the backends agree on *all*
    intermediate state, not just on the final result: every window
    column, stale slots included, field for field, with no
    normalisation but one: the wakeup heap is compared sorted, since
    marshal-out rebuilds it as the sorted list, one valid heap ordering of
    the same cycles (its order is no state).  ``backend`` /
    ``backend_name`` are snapshot-exempt, which is exactly what makes this
    comparison well-defined.  With
    ``collect_timing`` the snapshot also covers ``_preg_writer``, the
    window's issue cycles and in-flight producers, and the record columns
    of the seqs retired so far.
    """
    program, trace = build_run(seed)
    reno = CONFIGS[config_name]
    compiled_pipeline = make_pipeline(program, trace, reno, "compiled",
                                      collect_timing=collect_timing)
    python_pipeline = make_pipeline(program, trace, reno, "python",
                                    collect_timing=collect_timing)
    slice_cycles = 211          # a handful of mid-burst boundaries; the
    slices = 0                  # projection cost is per boundary, not per cycle
    producer_cuts = 0           # boundaries with producers in flight

    def plain_state(pipeline):
        state = pipeline.snapshot().state
        state["issue_queue"]._wakeup_heap.sort()
        return to_plain(state)

    while True:
        compiled = compiled_pipeline.run(max_cycles=slice_cycles)
        python = python_pipeline.run(max_cycles=slice_cycles)
        assert compiled.finished == python.finished
        if compiled.finished:
            break
        slices += 1
        window = python_pipeline.window
        producer_cuts += any(
            window.nprod[seq & window.mask] for seq in range(
                python_pipeline._committed, python_pipeline._fetch_index))
        assert (plain_state(compiled_pipeline)
                == plain_state(python_pipeline)), (
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


@pytest.fixture(scope="module")
def call_spill_run():
    program = get_workload("micro_call_spill").build()
    return program, FunctionalSimulator(program).run().trace


@pytest.mark.parametrize("record_stats", [False, True])
@pytest.mark.parametrize("collect_timing", [False, True])
@pytest.mark.parametrize("config_name", ["BASE", "RENO"])
@pytest.mark.parametrize("cut", [300, 425])
def test_marshal_round_trip_keeps_the_state(call_spill_run, cut, config_name,
                                            collect_timing, record_stats):
    """Marshal-in then marshal-out, with no kernel call between them,
    leaves a python-loop pipeline cut mid-run (instructions in flight, the
    BTB and the return stack occupied) as it was: what marshal-out writes
    back is exactly what marshal-in copied.  The wakeup heap is compared
    sorted: marshal-out rebuilds it as the sorted list, which is one valid
    heap ordering of the same cycles (a layout with no behavioural
    meaning, see :mod:`repro.uarch.backend`).  Needs no toolchain."""
    program, trace = call_spill_run
    pipeline = make_pipeline(program, trace, CONFIGS[config_name], "python",
                             record_stats=record_stats,
                             collect_timing=collect_timing)
    pipeline.run(max_cycles=cut)
    assert pipeline._committed < pipeline._fetch_index
    assert any(pipeline.branch_unit.btb._sets)

    def plain_state():
        state = pipeline.snapshot().state
        state["issue_queue"]._wakeup_heap.sort()
        return to_plain(state)

    before = plain_state()
    kernel_state = KernelState(pipeline)
    kernel_state.marshal_in(pipeline, None)
    kernel_state.marshal_out(pipeline)
    assert plain_state() == before


@pytest.fixture(scope="module")
def gzip_run():
    program = get_workload("gzip_like").build()
    return program, FunctionalSimulator(program).run().trace


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("snapshot_reno, built_reno", [
    (RenoConfig.reno_me(), RenoConfig.reno_default()),
    (RenoConfig.reno_default(), None),
    (None, RenoConfig.reno_default()),
], ids=["ME-into-RENO", "RENO-into-BASE", "BASE-into-RENO"])
def test_restored_renamer_runs_in_the_kernel(gzip_run, snapshot_reno,
                                             built_reno):
    """The renamer is part of the snapshot: restored into a compiled
    pipeline built with another renamer, the kernel runs the snapshot's
    renamer (a restore re-prepares the backend), as the python loop does."""
    program, trace = gzip_run
    source = make_pipeline(program, trace, snapshot_reno, "python")
    source.run(max_cycles=500)
    snapshot = source.snapshot()
    reference = source.run()

    pipeline = make_pipeline(program, trace, built_reno, "compiled")
    pipeline.restore(snapshot)
    assert_results_identical(pipeline.run(), reference)


def test_a_snapshot_holds_no_rename_result_or_decoded_op(monkeypatch):
    """A mid-run RENO snapshot is plain data: the window keeps int columns,
    so no ``RenameResult`` and no decoded-op tuple is pickled."""
    program, trace = build_run(SEEDS[0])
    pipeline = make_pipeline(program, trace, RenoConfig.reno_default(),
                             "python")
    pipeline.run(max_cycles=150)
    assert not pipeline.finished
    assert pipeline.stats.eliminated_moves + pipeline.stats.eliminated_folds
    snapshot = pipeline.snapshot()
    decoded = {id(op) for op in pipeline.tables.decoded}

    def refuse(self, protocol):
        raise AssertionError("a RenameResult was pickled")

    monkeypatch.setattr(RenameResult, "__reduce_ex__", refuse, raising=False)

    class Refusing(pickle.Pickler):
        def persistent_id(self, obj):
            if type(obj) is tuple and id(obj) in decoded:
                raise AssertionError(f"a decoded-op tuple was pickled: {obj}")
            return None

    Refusing(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(snapshot)


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
@pytest.mark.parametrize("route", ["fresh", "sliced"])
@pytest.mark.parametrize("code", ERROR_CODES)
def test_a_failing_kernel_raises_kernel_error(code, route, monkeypatch):
    """A kernel that returns any nonzero code on a cell the python loop
    finishes fails loudly after one kernel call, with no result."""
    program = random_program(SEEDS[0], length=60).assemble()
    functional = FunctionalSimulator(program, backend="compiled").run()
    pipeline = make_pipeline(program, functional.trace,
                             RenoConfig.reno_default(), "compiled")
    calls = failing_kernel(monkeypatch, code)
    name = next(name for name, value in vars(emit).items()
                if name.startswith("ERR_") and value == code)
    with pytest.raises(KernelError, match=name):
        if route == "fresh":
            simulate(program, reno=RenoConfig.reno_default(),
                     trace=functional, backend="compiled")
        else:
            pipeline.run(max_cycles=100)
    assert calls == [emit.ERR_OK]


@needs_compiled
@pytest.mark.parametrize("collect_timing", [False, True])
def test_a_sliced_overrun_raises_the_python_exception(collect_timing):
    """A real failure in a kernel slice raises exactly the exception the
    python backend raises at the same point."""
    program, trace = build_run(SEEDS[1])
    machine = dataclasses.replace(MachineConfig.default_4wide(),
                                  name="short", max_cycles=150)
    errors = []
    for backend in ("python", "compiled"):
        pipeline = make_pipeline(program, trace, RenoConfig.reno_default(),
                                 backend, machine=machine,
                                 collect_timing=collect_timing)
        assert not pipeline.run(max_cycles=60).finished
        with pytest.raises(Exception) as caught:
            pipeline.run()
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is RuntimeError


#: A machine whose memory round trip outlasts the kernel's wakeup ring.
SLOW_MEMORY = dataclasses.replace(MachineConfig.default_4wide(),
                                  name="slow-memory", memory_latency=20_000)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("machine", [MachineConfig.default_4wide(),
                                     SLOW_MEMORY, TINY],
                         ids=lambda machine: machine.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_cuts_and_hand_offs_never_fail_the_kernel(seed, machine):
    """Slices cut at random cycles, each on a backend drawn at random and
    handed over through a pickled snapshot, finish with no KernelError
    and the python run's result."""
    program, trace = build_run(seed)
    rng = random.Random(seed)
    for reno in (None, RenoConfig.reno_default()):
        reference = make_pipeline(program, trace, reno, "python",
                                  machine=machine, collect_timing=True).run()
        if machine is SLOW_MEMORY:
            assert reference.stats.l2_misses
        pipeline = make_pipeline(program, trace, reno, "compiled",
                                 machine=machine, collect_timing=True)
        longest = reference.cycles // 4         # at least four slices
        hops = 0
        while not (result := pipeline.run(
                max_cycles=rng.randint(1, longest))).finished:
            snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))
            pipeline = make_pipeline(program, trace, reno,
                                     rng.choice(("compiled", "python")),
                                     machine=machine, collect_timing=True)
            pipeline.restore(snapshot)
            hops += 1
        assert hops >= 3, (seed, machine.name)
        assert_results_identical(result, reference)
        assert result.timing_records == reference.timing_records


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
