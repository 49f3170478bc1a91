"""Fresh cells: a compiled cell runs whole in the kernel, with no pipeline.

:meth:`~repro.uarch.compiled.backend.CompiledBackend.run_fresh` starts the
kernel from a per-configuration image of a freshly constructed pipeline
(:mod:`repro.uarch.compiled.fresh`).  These tests hold it to the two other
routes:

* every configuration of the grid experiments that record no occupancy,
  on the ``micro`` suite and two ``specint`` kernels, gives the same
  statistics, final registers, cycles and ``finished`` on the fresh
  route, the compiled pipeline route and the python reference, with and
  without timing records and with and without occupancy; the timed
  routes give the python loop's records, and the observed routes its
  occupancy histograms;
* the critical-path walk over a fresh cell's timing columns gives the
  python loop's breakdown on every ``fig9`` ``specint`` cell, and the
  ``fig9`` report on the compiled backend is the committed golden table;
* a timed fresh outcome survives the result store's payload encoding;
* an image captured on one workload and applied to another equals, byte
  for byte, a fresh marshal-in on the second, read back through the
  arena's layout; an image keeps its single-valued arrays as fill runs,
  and a timed cell's timing columns lie outside its arena;
* a cell the kernel cannot finish raises the python backend's exception;
* ``simulate`` builds no pipeline for a compiled cell, with or without
  occupancy, and leaves the trace's decoded ops unbuilt: a ``bottleneck``
  grid runs no slice and no python loop, and reports as on the python
  backend;
* the image memo evicts its oldest entry, a cell keeps no reference to
  its trace, and a fork child gets an image lock of its own;
* a compiled pipeline, a fresh cell and a compiled functional run leave
  no cyclic garbage (no ctypes array type built per run).
"""

import gc
import os
import pickle
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import pytest
from test_backends import (  # noqa: F401  (no_silent_replays is a fixture)
    assert_timing_records_identical,
    needs_compiled,
    no_silent_replays,
)

from repro.analysis import analyze_critical_path
from repro.core import RenoConfig, RenoRenamer, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.harness import run_experiment
from repro.harness.executors import shared_program
from repro.harness.spec import get_experiment
from repro.store.base import decode_payload, encode_payload
from repro.uarch.backend import get_backend
from repro.uarch.compiled import fresh
from repro.uarch.compiled.backend import CompiledBackend
from repro.uarch.compiled.emit import PT
from repro.uarch.compiled.marshal import KernelState, KernelTables, address_of
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.inflight import TIMING_COLUMNS, TimingColumns
from repro.uarch.tables import TraceTables
from repro.workloads.base import get_workload
from repro.workloads.suites import suite_by_name

#: The grid experiments whose cells record no occupancy (``fig9``'s
#: collect timing records).
EXPERIMENTS = ("fig8", "fig9", "fig10", "fig11_regs", "fig11_width",
               "fig12", "fusion", "it_cost")

WORKLOADS = ([workload.name for workload in suite_by_name("micro")]
             + ["mcf_like", "vortex_like"])

#: ``fig9``'s golden table and the workloads it was regenerated from
#: (``CRITPATH_SPEC_SUBSET`` in ``benchmarks/conftest.py``).
FIG9_GOLDEN = (Path(__file__).resolve().parents[2] / "benchmarks"
               / "results" / "fig9_specint.txt")
FIG9_GOLDEN_WORKLOADS = ["gzip_like", "parser_like", "vortex_like"]


def grid_cells():
    """Every distinct (machine, RENO) pair of :data:`EXPERIMENTS`."""
    cells = {}
    for name in EXPERIMENTS:
        spec = get_experiment(name).build_spec("micro", None, 1)
        assert not spec.record_stats, name
        for _, machine in spec.machines:
            for _, reno in spec.renos:
                key = (machine.digest(), reno.digest() if reno else None)
                cells.setdefault(key, (machine, reno))
    return list(cells.values())


CELLS = grid_cells()


def block(name):
    """(program, functional run, tables) of one workload at scale 1."""
    program = shared_program(get_workload(name), 1)
    functional = FunctionalSimulator(program, backend="compiled").run()
    return program, functional, TraceTables(program, functional.trace)


def pipeline_result(program, functional, tables, machine, reno, backend,
                    collect_timing=False, record_stats=False):
    renamer = (RenoRenamer(machine.num_physical_regs, reno)
               if reno is not None else None)
    pipeline = Pipeline(program, functional.trace, machine, renamer=renamer,
                        collect_timing=collect_timing, backend=backend,
                        tables=tables, record_stats=record_stats)
    assert pipeline.backend_name == backend
    return pipeline.run()


def observables(result):
    """Everything a result reports except its occupancy histograms."""
    stats = asdict(result.stats)
    del stats["occupancy"]
    return stats, result.final_registers, result.cycles, result.finished


def occupancy(result):
    return result.stats.occupancy.to_dict()


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_cells_match_both_other_routes(workload):
    program, functional, tables = block(workload)
    backend = get_backend("compiled")
    assert len(CELLS) > 30
    for machine, reno in CELLS:
        fresh_result = backend.run_fresh(program, functional.trace, tables,
                                         machine, reno)
        assert fresh_result.config is machine
        assert fresh_result.timing_records is None
        assert fresh_result.stats.occupancy is None
        timed = backend.run_fresh(program, functional.trace, tables,
                                  machine, reno, collect_timing=True)
        assert isinstance(timed.timing_records, TimingColumns)
        assert timed.stats.occupancy is None
        observed = backend.run_fresh(program, functional.trace, tables,
                                     machine, reno, record_stats=True)
        assert observed.timing_records is None
        sliced = pipeline_result(program, functional, tables, machine, reno,
                                 "compiled", collect_timing=True,
                                 record_stats=True)
        python = pipeline_result(program, functional, tables, machine, reno,
                                 "python", collect_timing=True,
                                 record_stats=True)
        label = f"{workload} {machine.name} {reno.name if reno else 'BASE'}"
        assert observables(fresh_result) == observables(python), label
        assert observables(timed) == observables(python), label
        assert observables(observed) == observables(python), label
        assert observables(sliced) == observables(python), label
        assert occupancy(observed) == occupancy(python), label
        assert occupancy(sliced) == occupancy(python), label
        assert (fresh_result.final_registers
                == list(functional.state.snapshot()))
        assert len(python.timing_records) == len(functional.trace)
        assert timed.timing_records == python.timing_records, label
        assert sliced.timing_records == python.timing_records, label
        # Field types too (a 1 is not a True), on a prefix: every record
        # is built by the same code.
        assert_timing_records_identical(timed.timing_records[:64],
                                        python.timing_records[:64])


def test_every_fig9_config_is_a_cell():
    spec = get_experiment("fig9").build_spec("micro", None, 1)
    assert spec.collect_timing
    digests = {(machine.digest(), reno.digest() if reno else None)
               for machine, reno in CELLS}
    for _, machine in spec.machines:
        for _, reno in spec.renos:
            assert (machine.digest(), reno.digest() if reno else None) \
                in digests


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
@pytest.mark.parametrize("workload",
                         [workload.name for workload in suite_by_name("specint")])
def test_critical_path_over_kernel_columns_matches_the_python_loop(workload):
    """Every ``fig9`` ``specint`` cell: the walk over a fresh cell's
    columns and over the python loop's record list agree exactly."""
    program, functional, tables = block(workload)
    spec = get_experiment("fig9").build_spec("specint", [workload], 1)
    for _, machine in spec.machines:
        for label, reno in spec.renos:
            timed = get_backend("compiled").run_fresh(
                program, functional.trace, tables, machine, reno,
                collect_timing=True)
            python = pipeline_result(program, functional, tables, machine,
                                     reno, "python", collect_timing=True)
            assert isinstance(python.timing_records, TimingColumns)
            columns = analyze_critical_path(timed.timing_records)
            assert columns.path_length > 0, label
            assert columns == analyze_critical_path(python.timing_records), \
                f"{workload} {label}"
            # Neither walk built records out of the columns.
            assert timed.timing_records._records is None
            assert python.timing_records._records is None


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
def test_fig9_on_the_compiled_backend_gives_the_golden_table():
    report = run_experiment("fig9", suite="specint",
                            workloads=FIG9_GOLDEN_WORKLOADS, jobs=1,
                            cache=False, backend="compiled")
    assert str(report) + "\n" == FIG9_GOLDEN.read_text()


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
def test_a_timed_fresh_outcome_round_trips_through_a_store_payload():
    program = shared_program(get_workload("micro_pointer_chase"), 1)
    reno = RenoConfig.reno_default()
    outcome = simulate(program, reno=reno, collect_timing=True,
                       backend="compiled")
    assert isinstance(outcome.timing.timing_records, TimingColumns)
    functional = outcome.functional
    reference = pipeline_result(
        program, functional, TraceTables(program, functional.trace),
        MachineConfig.default_4wide(), reno, "compiled", collect_timing=True)
    assert isinstance(reference.timing_records, TimingColumns)
    decoded = decode_payload(encode_payload(outcome))
    assert isinstance(decoded.timing.timing_records, TimingColumns)
    assert decoded.timing == reference
    assert outcome.timing == reference
    # The other direction: a payload of the sliced pipeline route decodes
    # to an equal outcome.
    outcome.timing = reference
    assert decode_payload(encode_payload(outcome)).timing == \
        decode_payload(encode_payload(decoded)).timing
    assert (analyze_critical_path(decoded.timing.timing_records)
            == analyze_critical_path(reference.timing_records))
    # Neither the round trip nor the walk built a record.
    assert decoded.timing.timing_records._records is None


@needs_compiled
def test_kernel_timing_columns_compare_and_pickle_as_their_columns():
    program, functional, tables = block("micro_redundant_loads")
    timed = get_backend("compiled").run_fresh(
        program, functional.trace, tables, MachineConfig.default_4wide(),
        RenoConfig.reno_cf_me(), collect_timing=True)
    columns = timed.timing_records
    assert len(columns) == len(functional.trace)
    restored = pickle.loads(pickle.dumps(columns))
    assert type(restored) is TimingColumns and restored == columns
    assert columns._records is None                 # not built yet
    records = list(columns)
    assert columns[0] is records[0] and columns[-1] is records[-1]
    assert list(restored) == records
    assert columns != TimingColumns(columns._columns, len(columns) - 1)
    assert pickle.loads(pickle.dumps(timed)).timing_records == columns


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
def test_a_record_trace_runs_fresh_too():
    """A trace of records (the interpreter's) is flattened for the kernel."""
    program = shared_program(get_workload("micro_store_load"), 1)
    functional = FunctionalSimulator(program, backend="python").run()
    assert type(functional.trace) is list
    tables = TraceTables(program, functional.trace)
    for machine, reno in CELLS[:4]:
        python = pipeline_result(program, functional, tables, machine, reno,
                                 "python", collect_timing=True)
        for collect_timing in (False, True):
            result = get_backend("compiled").run_fresh(
                program, functional.trace, tables, machine, reno,
                collect_timing=collect_timing)
            assert observables(result) == observables(python)
        assert_timing_records_identical(result.timing_records,
                                        python.timing_records)


def test_image_slots_hold_every_grid_cell():
    timed = get_experiment("fig9").build_spec("micro", None, 1)
    observed = get_experiment("bottleneck").build_spec("micro", None, 1)
    assert observed.record_stats and not observed.collect_timing
    assert fresh.IMAGE_SLOTS >= (
        len(CELLS) + len(timed.machines) * len(timed.renos)
        + len(observed.machines) * len(observed.renos))


def fresh_marshal_in(program, functional, tables, machine, reno,
                     collect_timing=False):
    """The kernel state of a fresh pipeline over ``tables``, marshalled in."""
    renamer = (RenoRenamer(machine.num_physical_regs, reno)
               if reno is not None else None)
    pipeline = Pipeline(program, functional.trace, machine, renamer=renamer,
                        collect_timing=collect_timing, backend="python",
                        tables=tables)
    state = KernelState(pipeline)
    state.marshal_in(pipeline, None)
    return state


@needs_compiled
@pytest.mark.parametrize("timing", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("reno", [None, RenoConfig.reno_default()],
                         ids=["BASE", "RENO"])
def test_an_image_from_one_workload_fits_another(reno, timing):
    machine = MachineConfig.default_6wide()
    first = block("micro_call_spill")
    second = block("gzip_like")
    image = fresh.FreshImage(
        fresh_marshal_in(*first, machine, reno, timing), first[2])
    assert image.timing is timing
    sc, arena, arrays, pool, pointers = image.buffers(second[2])
    expected = fresh_marshal_in(*second, machine, reno, timing)
    assert sc.tobytes() == expected.sc.tobytes()
    # Every member lives in exactly one place: the arena, the trace's
    # shared columns or the cell's own arrays (the violation log, the page
    # pool and a timed cell's outputs).
    shared = second[2].kernel.arrays
    assert sorted([*image.layout, *shared, *arrays]) == sorted(expected.arr)
    for name, column in expected.arr.items():
        if name in image.layout:
            member = image.view(arena, name)
        else:
            member = arrays[name] if name in arrays else shared[name]
        assert bytes(member) == bytes(column), name
        assert pointers[PT[name]] == address_of(member), name
    assert len(arena) == image.size
    assert pool.buffer == expected.pool.buffer
    # A timed image leaves the trace-sized timing columns to the cell.
    outputs = set(TIMING_COLUMNS.values())
    kept = set(image.layout) & outputs
    assert kept == (set() if timing else outputs)
    assert len(image.scalars) == len(sc)


@needs_compiled
def test_images_are_compact():
    program, functional, tables = block("gzip_like")
    backend = get_backend("compiled")
    spec = get_experiment("fig8").build_spec("specint", None, 1)
    kept = single_valued = 0
    for _, machine in spec.machines:
        for _, reno in spec.renos:
            state = backend._marshal_fresh(program, functional.trace, tables,
                                           machine, reno, False, False)
            image = fresh.FreshImage(state, tables)
            copied = image.size - len(image.tail)
            for name, (_, offset, length) in image.layout.items():
                column = state.arr[name]
                uniform = column.count(column[0]) == len(column)
                # Arrays of one value come first; only the others are
                # copied, into the tail.
                assert uniform is (offset < copied), name
                single_valued += uniform
            # One run per value: the zeros need none, and no two runs
            # hold the same pattern.
            patterns = [pattern for _, _, pattern in image.fills]
            assert len(set(patterns)) == len(patterns)
            assert bytes(8) not in patterns
            assert sum(length for _, length, _ in image.fills) < copied
            kept += len(image.tail) + 8 * len(image.fills)
    # The wakeup ring, the waiter chains and most tables hold one value.
    assert {"WK_CYCLE", "WT_HEAD", "SSIT"}.isdisjoint(
        name for name, (_, offset, _) in image.layout.items()
        if offset >= copied)
    # Before the arena, the four fig8 images copied 27,648 bytes of arrays
    # and kept at least one 8-byte value per single-valued array.
    assert kept <= 27_648 + 8 * single_valued


@needs_compiled
def test_a_timed_cells_columns_lie_outside_its_arena(monkeypatch):
    program, functional, tables = block("micro_call_spill")
    arenas = []
    buffers = fresh.FreshImage.buffers

    def recorded(image, cell_tables):
        cell = buffers(image, cell_tables)
        arenas.append(cell[1])
        return cell

    monkeypatch.setattr(fresh.FreshImage, "buffers", recorded)
    result = get_backend("compiled").run_fresh(
        program, functional.trace, tables, MachineConfig.default_4wide(),
        RenoConfig.reno_default(), collect_timing=True)
    [arena] = arenas
    low = address_of(arena)
    high = low + len(arena)
    for name in TIMING_COLUMNS:
        start, length = result.timing_records.column(name).buffer_info()
        assert start + 8 * length <= low or start >= high, name
    # Nothing the result holds keeps the arena alive: only the list, this
    # name and the call's argument refer to it.
    assert sys.getrefcount(arena) == 3


def test_a_kernel_error_raises_the_python_exception():
    program = shared_program(get_workload("micro_addi_chain"), 1)
    machine = MachineConfig(name="short", max_cycles=50)
    errors = []
    for backend in ("python", "compiled"):
        with pytest.raises(Exception) as caught:
            simulate(program, machine, RenoConfig.reno_default(),
                     backend=backend)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is RuntimeError


@needs_compiled
def test_an_invalid_config_raises_as_a_pipeline_would():
    program = shared_program(get_workload("micro_addi_chain"), 1)
    machine = MachineConfig(rob_size=0)
    errors = []
    for backend in ("python", "compiled"):
        with pytest.raises(ValueError) as caught:
            simulate(program, machine, backend=backend)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


@needs_compiled
@pytest.mark.parametrize("experiment", ["fig8", "fig9", "bottleneck"])
def test_simulate_builds_no_pipeline_on_the_compiled_backend(experiment,
                                                            monkeypatch):
    """Plain, timed (fig9) and observed (bottleneck) cells all run fresh
    once their images are captured: no pipeline, no slice, no python
    loop, and the python backend's report."""
    def request(backend):
        return run_experiment(experiment, suite="micro",
                              workloads=["micro_sum", "micro_call_spill"],
                              jobs=1, cache=False, backend=backend)

    reference = request("python")
    request("compiled")                                     # warm the images
    built = []
    init = Pipeline.__init__

    def counted(pipeline, *args, **kwargs):
        init(pipeline, *args, **kwargs)
        built.append(pipeline)

    def no_slice(*args):
        pytest.fail("a fresh cell ran a pipeline slice")

    monkeypatch.setattr(Pipeline, "__init__", counted)
    monkeypatch.setattr(Pipeline, "_run_cycles", no_slice)
    monkeypatch.setattr(CompiledBackend, "run_cycles", no_slice)
    report = request("compiled")
    assert built == []
    assert report.to_json() == reference.to_json()


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
def test_fresh_cells_leave_the_trace_ops_unbuilt(monkeypatch):
    """Only a pipeline builds the decoded op of every trace record."""
    monkeypatch.setattr(fresh, "_images", {})   # captures build pipelines
    program, functional, tables = block("micro_call_spill")
    for collect_timing in (False, True):            # a fig8 and a fig9 cell
        outcome = simulate(program, reno=RenoConfig.reno_default(),
                           trace=functional, tables=tables,
                           collect_timing=collect_timing, backend="compiled")
        assert (outcome.timing.timing_records is not None) is collect_timing
    assert tables._trace_ops is None
    pipeline = Pipeline(program, functional.trace,
                        MachineConfig.default_4wide(), tables=tables,
                        backend="compiled")
    assert tables._trace_ops is None
    pipeline.run()
    assert tables._trace_ops is not None
    assert pipeline._trace_ops is tables.trace_ops


def count_captures(monkeypatch):
    """Record the (machine name, RENO config, switches) of every image
    capture."""
    captures = []
    marshal_fresh = CompiledBackend._marshal_fresh

    def counted(backend, *cell):
        _program, _trace, _tables, machine, reno, *switches = cell
        captures.append((machine.name, reno, *switches))
        return marshal_fresh(backend, *cell)

    monkeypatch.setattr(CompiledBackend, "_marshal_fresh", counted)
    return captures


@needs_compiled
def test_image_memo_evicts_its_oldest_slot(monkeypatch):
    monkeypatch.setattr(fresh, "_images", {})
    monkeypatch.setattr(fresh, "IMAGE_SLOTS", 2)
    captures = count_captures(monkeypatch)
    program, functional, tables = block("micro_addi_chain")
    backend = get_backend("compiled")
    machines = [MachineConfig.default_4wide(), MachineConfig.default_6wide(),
                MachineConfig.default_4wide().with_scheduler_latency(2)]
    for machine in (*machines, machines[2], machines[1]):
        assert backend.run_fresh(program, functional.trace, tables, machine,
                                 None) is not None
    assert captures == [(machine.name, None, False, False)
                        for machine in machines]
    backend.run_fresh(program, functional.trace, tables, machines[0], None)
    assert len(captures) == 4       # evicted when the third arrived
    assert len(fresh._images) == 2


@needs_compiled
def test_each_pair_of_switches_has_an_image_of_its_own(monkeypatch):
    monkeypatch.setattr(fresh, "_images", {})
    captures = count_captures(monkeypatch)
    program, functional, tables = block("micro_addi_chain")
    backend = get_backend("compiled")
    machine, reno = MachineConfig.default_4wide(), RenoConfig.reno_default()
    switches = [(timing, stats) for timing in (False, True)
                for stats in (False, True)]
    for timing, stats in switches * 2:
        result = backend.run_fresh(program, functional.trace, tables,
                                   machine, reno, collect_timing=timing,
                                   record_stats=stats)
        assert (result.timing_records is not None) is timing
        assert (result.stats.occupancy is not None) is stats
    assert captures == [(machine.name, reno, *pair) for pair in switches]


@needs_compiled
def test_one_image_serves_every_label_of_a_config(monkeypatch):
    monkeypatch.setattr(fresh, "_images", {})
    captures = count_captures(monkeypatch)
    program, functional, tables = block("micro_addi_chain")
    backend = get_backend("compiled")
    machine = MachineConfig.default_4wide()
    for name in ("first", "second"):
        relabelled = MachineConfig.from_dict({**machine.to_dict(),
                                              "name": name})
        result = backend.run_fresh(program, functional.trace, tables,
                                   relabelled, None)
        assert result.config is relabelled
    assert len(captures) == 1


@needs_compiled
def test_a_cell_keeps_no_reference_to_its_trace(monkeypatch):
    monkeypatch.setattr(fresh, "_images", {})
    program, functional, tables = block("micro_call_spill")
    columns = KernelTables.of(tables).arrays
    # Earlier tests' cyclic garbage may hold these shared columns; were it
    # collected during the run, the counts would drop for no fault of it.
    gc.collect()
    before = {name: sys.getrefcount(column)
              for name, column in columns.items()}
    trace_refs = sys.getrefcount(functional.trace)
    result = get_backend("compiled").run_fresh(
        program, functional.trace, tables, MachineConfig.default_4wide(),
        RenoConfig.reno_default())
    assert result.finished
    assert len(fresh._images) == 1          # captured on this very trace
    after = {name: sys.getrefcount(column)
             for name, column in columns.items()}
    after_trace = sys.getrefcount(functional.trace)
    assert after_trace == trace_refs
    assert after == before


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
def test_compiled_runs_leave_no_cyclic_garbage():
    program, functional, tables = block("micro_call_spill")
    machine, reno = MachineConfig.default_4wide(), RenoConfig.reno_default()
    backend = get_backend("compiled")

    def compiled_pipeline():
        pipeline = Pipeline(program, functional.trace, machine,
                            renamer=RenoRenamer(machine.num_physical_regs, reno),
                            backend="compiled", tables=tables)
        pipeline.run()

    runs = {
        "pipeline": compiled_pipeline,
        "fresh cell": lambda: backend.run_fresh(
            program, functional.trace, tables, machine, reno),
        "functional": lambda: FunctionalSimulator(
            program, backend="compiled").run(),
    }
    for run in runs.values():       # images, kernels and memos built here
        run()
    gc.collect()
    # With automatic collection off, garbage a run leaves stays for the
    # explicit collect to count.
    gc.disable()
    try:
        freed = {}
        for name, run in runs.items():
            run()
            freed[name] = gc.collect()
    finally:
        gc.enable()
    assert freed == {name: 0 for name in runs}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_fork_child_gets_its_own_image_lock():
    held = fresh._images_lock
    ready, done = threading.Event(), threading.Event()

    def hold():
        with held:
            ready.set()
            done.wait(timeout=30)

    holder = threading.Thread(target=hold)
    holder.start()
    ready.wait(timeout=30)
    try:
        pid = os.fork()
        if pid == 0:    # the child: the holding thread does not exist here
            code = 0 if fresh._images_lock.acquire(timeout=5) else 1
            os._exit(code)
        _, status = os.waitpid(pid, 0)
    finally:
        done.set()
        holder.join(timeout=30)
    assert os.waitstatus_to_exitcode(status) == 0
    assert fresh._images_lock is held
