"""Property tests: the compiled cycle-loop backend is bit-identical to python.

The backend contract (:mod:`repro.uarch.backend`) is that backends differ
in *speed only*: every simulation observable — final architectural state,
statistics, occupancy histograms, snapshots — must be identical whichever
backend ran the cycle loop.  Seeded random programs (reusing the scheduler
equivalence generator: ALU ops, moves, folds, loads, stores, loops) are
run through both backends under several machine and RENO configurations.

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
from dataclasses import fields

import pytest
from test_scheduler_equivalence import random_program

from repro.core import RenoConfig, RenoRenamer
from repro.functional.simulator import FunctionalSimulator
from repro.uarch.backend import backend_names, get_backend, resolve_backend
from repro.uarch.compiled import build
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
                  record_stats=False):
    machine = machine or MachineConfig.default_4wide()
    renamer = RenoRenamer(machine.num_physical_regs, reno) \
        if reno is not None else None
    return Pipeline(program, trace, machine, renamer=renamer,
                    record_stats=record_stats, backend=backend)


def stats_dict(result):
    return {f.name: getattr(result.stats, f.name) for f in fields(result.stats)}


def assert_results_identical(compiled, python):
    assert stats_dict(compiled) == stats_dict(python)
    assert compiled.final_registers == python.final_registers
    assert compiled.finished and python.finished


@pytest.fixture
def no_silent_replays(monkeypatch):
    """Fail the test when a compiled pipeline runs a slice on the python loop.

    The compiled backend replays any slice it cannot finish (unsupported
    pipeline, marshal error, nonzero kernel return) through
    ``Pipeline._run_cycles``, and the replay produces the reference's
    results — so without this guard an equivalence test would pass while
    the kernel never ran.
    """
    reference_loop = Pipeline._run_cycles

    def guarded(pipeline, stop_cycle=None):
        if pipeline.backend_name == "compiled":
            pytest.fail("a compiled slice fell back to Pipeline._run_cycles")
        return reference_loop(pipeline, stop_cycle)

    monkeypatch.setattr(Pipeline, "_run_cycles", guarded)


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
@pytest.mark.parametrize("seed", [SEEDS[0]])
def test_lockstep_snapshots_match_every_slice(seed):
    """Full mutable-state equality at every slice boundary, both backends.

    ``snapshot()`` captures everything the cycle loop mutates (and is
    itself lint-enforced complete — ``snapshot-coverage``), so equal
    pickled snapshots at cycle k mean the backends agree on *all*
    intermediate state, not just on the final result.  ``backend`` /
    ``backend_name`` are snapshot-exempt, which is exactly what makes this
    comparison well-defined.
    """
    program, trace = build_run(seed)
    reno = RenoConfig.reno_default()
    compiled_pipeline = make_pipeline(program, trace, reno, "compiled")
    python_pipeline = make_pipeline(program, trace, reno, "python")
    slice_cycles = 211          # a handful of mid-burst boundaries; the
    slices = 0                  # projection cost is per boundary, not per cycle
    while True:
        compiled = compiled_pipeline.run(max_cycles=slice_cycles)
        python = python_pipeline.run(max_cycles=slice_cycles)
        assert compiled.finished == python.finished
        if compiled.finished:
            break
        slices += 1
        assert (canonical_snapshot(compiled_pipeline)
                == canonical_snapshot(python_pipeline)), (
            f"state diverged by slice {slices} (seed={seed})")
    assert slices > 1
    assert_results_identical(compiled, python)


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_snapshot_handoff_across_backends(config_name):
    """python → compiled → python hand-offs finish bit-identically."""
    program, trace = build_run(SEEDS[1])
    reno = CONFIGS[config_name]
    reference = make_pipeline(program, trace, reno, "python").run()

    chain = ["python", "compiled", "python", "compiled"]
    pipeline = make_pipeline(program, trace, reno, chain[0])
    hops = 0
    result = pipeline.run(max_cycles=113)
    while not result.finished:
        hops += 1
        snapshot = pickle.loads(pickle.dumps(pipeline.snapshot()))
        pipeline = make_pipeline(program, trace, reno,
                                 chain[hops % len(chain)])
        pipeline.restore(snapshot)
        result = pipeline.run(max_cycles=113)
    assert hops >= 2, "program too short to exercise a backend hand-off"
    assert_results_identical(result, reference)


# ---------------------------------------------------------------------------
# Selection, fallback and degradation
# ---------------------------------------------------------------------------


def test_backend_registry_lists_both_backends():
    names = backend_names()
    assert "python" in names
    assert "compiled" in names


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


@needs_compiled
def test_timing_pipelines_run_on_the_python_reference():
    """``collect_timing`` is unsupported by the kernel: the compiled
    backend's ``supports()`` hands such pipelines to the reference loop."""
    program, trace = build_run(SEEDS[0], length=60)
    machine = MachineConfig.default_4wide()
    pipeline = Pipeline(program, trace, machine, collect_timing=True,
                        backend="compiled")
    timed = pipeline.run()
    reference = Pipeline(program, trace, machine, collect_timing=True,
                         backend="python").run()
    assert timed.timing_records == reference.timing_records
    assert_results_identical(timed, reference)
