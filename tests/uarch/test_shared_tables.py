"""Cells of one workload share their trace tables, and sharing is safe.

:class:`~repro.uarch.tables.TraceTables` holds everything a pipeline derives
from the program and the functional trace alone — decoded ops, the initial
memory page image and the compiled kernel's static columns — and every cell
of a workload block reuses it.  These tests hold the sharing to its
promise: a cell run on shared tables equals one built from scratch, on
both backends and on a workload that stores into its initial memory; the
shared tables are byte-identical after every cell; and the block drops
them when it ends.

Marshal-in, which captures a fresh pipeline into a compiled cell's image,
must leave the pipeline exactly as it was, and refuses one that has run.
"""

import gc
import weakref

import pytest
from test_backends import (  # noqa: F401  (no_silent_replays is a fixture)
    CONFIGS,
    MACHINES,
    assert_results_identical,
    make_pipeline,
    needs_compiled,
    no_silent_replays,
)

from repro.core import RenoRenamer
from repro.functional.memory import Memory, page_image
from repro.functional.simulator import FunctionalSimulator
from repro.harness import executors
from repro.isa.instruction import DF_STORE
from repro.uarch.backend import get_backend
from repro.uarch.compiled.marshal import KernelState
from repro.uarch.core import Pipeline
from repro.uarch.tables import TraceTables
from repro.workloads.base import get_workload

#: A kernel whose stores all land on pages of its initial memory image.
STORING_WORKLOAD = "mcf_like"

#: (machine, RENO config) cells replayed on one trace.
CELLS = [("4wide", "BASE"), ("4wide", "RENO"), ("6wide", "CF+ME"),
         ("sched2", "RENO")]

BACKENDS = ["python", pytest.param("compiled", marks=needs_compiled)]


def storing_run():
    program = get_workload(STORING_WORKLOAD).build(1)
    trace = FunctionalSimulator(program).run().trace
    return program, trace


def cell_pipeline(program, trace, machine_name, config_name, backend,
                  tables=None):
    machine = MACHINES[machine_name]
    reno = CONFIGS[config_name]
    renamer = RenoRenamer(machine.num_physical_regs, reno) \
        if reno is not None else None
    return Pipeline(program, trace, machine, renamer=renamer,
                    backend=backend, tables=tables)


def column_bytes(tables):
    return {name: column.tobytes()
            for name, column in tables.kernel.arrays.items()}


@pytest.mark.usefixtures("no_silent_replays")
@pytest.mark.parametrize("backend", BACKENDS)
def test_cells_on_shared_tables_match_cells_built_from_scratch(backend):
    program, trace = storing_run()
    initial_memory = dict(program.initial_memory)
    tables = TraceTables(program, trace)
    store_pages = {dyn.eff_addr >> 12
                   for dyn, op in zip(trace, tables.trace_ops)
                   if op[0] & DF_STORE}
    assert store_pages and store_pages <= set(tables.memory_image), \
        "the workload must store into its initial memory image"
    image = dict(tables.memory_image)
    compiled = get_backend("compiled")
    kernel_tables = columns = pool = None
    for machine_name, config_name in CELLS:
        if backend == "python":
            shared = cell_pipeline(program, trace, machine_name, config_name,
                                   backend, tables=tables)
            assert shared.tables is tables
            assert shared._trace_ops is tables.trace_ops
            result = shared.run()
            assert shared.memory != Memory.from_image(image), \
                "the cell's stores must land in its own memory"
            scratch = cell_pipeline(program, trace, machine_name,
                                    config_name, backend)
            assert scratch.tables is not tables
            expected = scratch.run()
        else:
            cell = (program, trace, MACHINES[machine_name],
                    CONFIGS[config_name])
            result = compiled.run_fresh(cell[0], cell[1], tables, *cell[2:])
            if kernel_tables is None:
                kernel_tables, columns = tables.kernel, column_bytes(tables)
                pool = bytes(kernel_tables.pool.buffer)
            assert tables.kernel is kernel_tables    # built once per trace
            assert bytes(kernel_tables.pool.buffer) == pool, \
                "the cell's stores must land in its own page pool"
            expected = compiled.run_fresh(
                cell[0], cell[1], TraceTables(program, trace), *cell[2:])
        assert_results_identical(result, expected)
        assert tables.memory_image == image
    assert program.initial_memory == initial_memory
    assert page_image(program.initial_memory) == image
    if backend == "compiled":
        assert column_bytes(tables) == columns
    else:
        assert tables.kernel is None    # built only for compiled cells


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_block_builds_its_tables_once_and_drops_them(backend, monkeypatch):
    built = []

    class TrackedTables(TraceTables):
        __slots__ = ("__weakref__",)

        def __init__(self, program, trace):
            super().__init__(program, trace)
            built.append(weakref.ref(self))

    monkeypatch.setattr(executors, "TraceTables", TrackedTables)
    machines = {name: MACHINES[name] for name in ("4wide", "6wide")}
    renos = {name: CONFIGS[name] for name in ("BASE", "RENO")}
    task = executors.build_tasks([get_workload(STORING_WORKLOAD)], machines,
                                 renos, backend=backend)[0]
    block = executors.run_workload_block(task, slim=False)
    assert len(block) == 4
    assert all(outcome.functional is not None for _, outcome in block)
    assert len(built) == 1
    gc.collect()
    assert built[0]() is None, "an outcome kept the block's tables alive"


def test_tables_from_another_trace_are_refused():
    program, trace = storing_run()
    tables = TraceTables(program, list(trace))
    with pytest.raises(ValueError, match="another program or trace"):
        Pipeline(program, trace, tables=tables)


@pytest.mark.parametrize("config_name", ["BASE", "RENO"])
def test_marshal_in_reads_a_fresh_pipeline_and_changes_nothing(config_name):
    """Marshal-in only reads: a fresh pipeline marshalled in then runs
    whole to the result, timing records and occupancy of one never
    marshalled.  A pipeline that has run is refused, since a cell starts
    at cycle 0 with nothing in flight.  Needs no toolchain."""
    program, trace = storing_run()
    reno = CONFIGS[config_name]

    def pipeline():
        return make_pipeline(program, trace, reno, "python",
                             record_stats=True, collect_timing=True)

    marshalled = pipeline()
    KernelState(marshalled).marshal_in(marshalled)
    result, reference = marshalled.run(), pipeline().run()
    assert_results_identical(result, reference)
    assert result.timing_records == reference.timing_records
    assert (result.stats.occupancy.to_dict()
            == reference.stats.occupancy.to_dict())
    with pytest.raises(ValueError, match="fresh pipeline"):
        KernelState(marshalled).marshal_in(marshalled)
