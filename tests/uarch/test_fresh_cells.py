"""Fresh cells: an unobserved cell runs whole in the kernel, with no pipeline.

:meth:`~repro.uarch.compiled.backend.CompiledBackend.run_fresh` starts the
kernel from a per-configuration image of a freshly constructed pipeline
(:mod:`repro.uarch.compiled.fresh`).  These tests hold it to the two other
routes:

* every unobserved cell of the grid experiments, on the ``micro`` suite
  and two ``specint`` kernels, gives the same statistics, final registers,
  cycles and ``finished`` on the fresh route, the compiled pipeline route
  and the python reference;
* an image captured on one workload and applied to another equals, byte
  for byte, a fresh marshal-in on the second;
* a cell the kernel cannot finish raises the python backend's exception;
* ``simulate`` builds no pipeline for such a cell, but still does for a
  timed or observed one;
* the image memo evicts its oldest entry, a cell keeps no reference to
  its trace, and a fork child gets an image lock of its own.
"""

import os
import sys
import threading
from dataclasses import asdict

import pytest
from test_backends import (  # noqa: F401  (no_silent_replays is a fixture)
    needs_compiled,
    no_silent_replays,
)

from repro.core import RenoConfig, RenoRenamer, simulate
from repro.functional.simulator import FunctionalSimulator
from repro.harness import run_experiment
from repro.harness.executors import shared_program
from repro.harness.spec import get_experiment
from repro.uarch.backend import get_backend
from repro.uarch.compiled import fresh
from repro.uarch.compiled.backend import CompiledBackend
from repro.uarch.compiled.marshal import KernelState, KernelTables
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.tables import TraceTables
from repro.workloads.base import get_workload
from repro.workloads.suites import suite_by_name

#: The grid experiments whose cells record neither timing nor occupancy.
EXPERIMENTS = ("fig8", "fig10", "fig11_regs", "fig11_width", "fig12",
               "fusion", "it_cost")

WORKLOADS = ([workload.name for workload in suite_by_name("micro")]
             + ["mcf_like", "vortex_like"])


def unobserved_cells():
    """Every distinct (machine, RENO) pair of :data:`EXPERIMENTS`."""
    cells = {}
    for name in EXPERIMENTS:
        spec = get_experiment(name).build_spec("micro", None, 1)
        assert not (spec.collect_timing or spec.record_stats), name
        for _, machine in spec.machines:
            for _, reno in spec.renos:
                key = (machine.digest(), reno.digest() if reno else None)
                cells.setdefault(key, (machine, reno))
    return list(cells.values())


CELLS = unobserved_cells()


def block(name):
    """(program, functional run, tables) of one workload at scale 1."""
    program = shared_program(get_workload(name), 1)
    functional = FunctionalSimulator(program, backend="compiled").run()
    return program, functional, TraceTables(program, functional.trace)


def pipeline_result(program, functional, tables, machine, reno, backend):
    renamer = (RenoRenamer(machine.num_physical_regs, reno)
               if reno is not None else None)
    pipeline = Pipeline(program, functional.trace, machine, renamer=renamer,
                        backend=backend, tables=tables)
    assert pipeline.backend_name == backend
    return pipeline.run()


def observables(result):
    return (asdict(result.stats), result.final_registers, result.cycles,
            result.finished)


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
        sliced = pipeline_result(program, functional, tables, machine, reno,
                                 "compiled")
        python = pipeline_result(program, functional, tables, machine, reno,
                                 "python")
        label = f"{workload} {machine.name} {reno.name if reno else 'BASE'}"
        assert observables(fresh_result) == observables(python), label
        assert observables(sliced) == observables(python), label
        assert (fresh_result.final_registers
                == list(functional.state.snapshot()))


@pytest.mark.usefixtures("no_silent_replays")
@needs_compiled
def test_a_record_trace_runs_fresh_too():
    """A trace of records (the interpreter's) is flattened for the kernel."""
    program = shared_program(get_workload("micro_store_load"), 1)
    functional = FunctionalSimulator(program, backend="python").run()
    assert type(functional.trace) is list
    tables = TraceTables(program, functional.trace)
    for machine, reno in CELLS[:4]:
        result = get_backend("compiled").run_fresh(
            program, functional.trace, tables, machine, reno)
        python = pipeline_result(program, functional, tables, machine, reno,
                                 "python")
        assert observables(result) == observables(python)


def test_image_slots_hold_every_unobserved_cell():
    assert fresh.IMAGE_SLOTS >= len(CELLS)


def fresh_marshal_in(program, functional, tables, machine, reno):
    """The kernel state of a fresh pipeline over ``tables``, marshalled in."""
    renamer = (RenoRenamer(machine.num_physical_regs, reno)
               if reno is not None else None)
    pipeline = Pipeline(program, functional.trace, machine, renamer=renamer,
                        backend="python", tables=tables)
    state = KernelState(pipeline)
    state.marshal_in(pipeline, None)
    return state


@needs_compiled
@pytest.mark.parametrize("reno", [None, RenoConfig.reno_default()],
                         ids=["BASE", "RENO"])
def test_an_image_from_one_workload_fits_another(reno):
    machine = MachineConfig.default_6wide()
    first = block("micro_call_spill")
    second = block("gzip_like")
    image = fresh.FreshImage(fresh_marshal_in(*first, machine, reno),
                             first[2])
    sc, arrays, pool = image.buffers(second[2])
    expected = fresh_marshal_in(*second, machine, reno)
    assert sc.tobytes() == expected.sc.tobytes()
    assert sorted(arrays) == sorted(expected.arr)
    for name, column in expected.arr.items():
        assert bytes(arrays[name]) == bytes(column), name
    assert pool.buffer == expected.pool.buffer
    # The image keeps none of the trace's own values.
    owned = {name for name, _ in image.arrays} & {
        *second[2].kernel.arrays, *pool.arrays, "VIO_LOG"}
    assert not owned
    assert len(image.scalars) == len(sc)


@needs_compiled
def test_images_are_compact():
    program, functional, tables = block("micro_addi_chain")
    backend = get_backend("compiled")
    machine, reno = MachineConfig.default_4wide(), RenoConfig.reno_default()
    image = fresh.FreshImage(backend._marshal_fresh(
        program, functional.trace, tables, machine, reno), tables)
    copies = [name for name, column in image.arrays
              if not isinstance(column, tuple)]
    # The wakeup ring, the waiter chains and most tables hold one value.
    assert {"WK_CYCLE", "WT_HEAD", "SSIT"}.isdisjoint(copies)
    assert {"PRF_VAL", "NODE_NEXT"} <= set(copies)
    assert len(copies) < len(image.arrays) // 4


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
def test_simulate_builds_no_pipeline_for_an_unobserved_cell(monkeypatch):
    run_experiment("fig8", suite="micro", workloads=["micro_sum"], jobs=1,
                   cache=False, backend="compiled")         # warm the images
    built = []
    init = Pipeline.__init__

    def counted(pipeline, *args, **kwargs):
        init(pipeline, *args, **kwargs)
        built.append(pipeline.record_stats or pipeline.collect_timing)

    monkeypatch.setattr(Pipeline, "__init__", counted)
    report = run_experiment("fig8", suite="micro", workloads=["micro_sum"],
                            jobs=1, cache=False, backend="compiled")
    assert built == []
    reference = run_experiment("fig8", suite="micro", workloads=["micro_sum"],
                               jobs=1, cache=False, backend="python")
    assert report.rows == reference.rows
    built.clear()
    run_experiment("fig9", suite="micro", workloads=["micro_sum"], jobs=1,
                   cache=False, backend="compiled")
    assert built and all(built)     # timed cells keep their pipelines


def count_captures(monkeypatch):
    captures = []
    marshal_fresh = CompiledBackend._marshal_fresh

    def counted(backend, program, trace, tables, machine, reno):
        captures.append((machine.name, reno))
        return marshal_fresh(backend, program, trace, tables, machine, reno)

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
    assert len(captures) == 3
    backend.run_fresh(program, functional.trace, tables, machines[0], None)
    assert len(captures) == 4       # evicted when the third arrived
    assert len(fresh._images) == 2


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
