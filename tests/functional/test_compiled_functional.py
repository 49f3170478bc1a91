"""The compiled functional run equals the python interpreter, field by field.

``FunctionalSimulator(..., backend="compiled")`` runs the program in the
generated C (``repro_functional``, driven by
:func:`repro.uarch.compiled.functional.run_compiled`) and returns its trace
as :class:`~repro.functional.trace.TraceColumns`.  The interpreter stays
the reference, so every C run here is compared with it:

* every :class:`~repro.functional.trace.DynamicInstruction` field, by value
  and by type (``None`` is not 0, a taken flag is a ``bool``);
* the trace columns byte for byte against the interpreter's records
  flattened, and the pages the stores wrote;
* the final registers and pc, every memory page, ``halted`` and
  ``dynamic_count``.

The programs: every registered workload at scale 1 and two at scale 2,
20 seeds of the scheduler-equivalence generator, and hand-written edge
cases (division, address wrap, page straddles, stores to pages absent from
the image, zero-register writes, calls and returns, and a run that grows
both the page pool and the columns).  A run the C entry cannot finish must
fall back to the interpreter and raise its exact exception.

C cases skip when no C toolchain is present; the python-only cases (the
column form of an interpreter trace, and the fallback raising the
reference's exceptions) run everywhere.
"""

import pickle
from dataclasses import asdict

import pytest

from repro.core import RenoConfig, RenoRenamer, simulate
from repro.functional.memory import page_image
from repro.functional.simulator import ExecutionLimitExceeded, FunctionalSimulator
from repro.harness import run_experiment
from repro.functional.trace import (
    DynamicInstruction,
    TraceColumns,
    mix_statistics,
)
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import CODE_BASE, DATA_BASE
from repro.isa.registers import RegisterNames as R
from repro.uarch.backend import get_backend
from repro.uarch.compiled import build
from repro.uarch.compiled import functional as compiled_functional
from repro.uarch.compiled import pages as pages_module
from repro.uarch.compiled.marshal import KernelTables
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.tables import TraceTables
from repro.workloads.base import get_workload, list_workloads
from tests.uarch.test_scheduler_equivalence import random_program

#: Skip marker for cases that need the real compiled entry.
needs_compiled = pytest.mark.skipif(
    not get_backend("compiled").available(),
    reason="no C toolchain on this runner")

M64 = (1 << 64) - 1

#: Workloads run at scale 2 as well.
SCALE_TWO = ["gzip_like", "mcf_like"]


def interpret(program, budget=2_000_000):
    """The reference run."""
    return FunctionalSimulator(program, budget, backend="python").run()


def run_in_c(program, budget=2_000_000):
    """The compiled run, which must not fall back to the interpreter."""
    result = compiled_functional.run_compiled(program, budget)
    assert result is not None, "the compiled run fell back to the interpreter"
    return result


def assert_same_records(mine, reference):
    """Every record field equal in value and type."""
    assert len(mine) == len(reference)
    for dyn, expected in zip(mine, reference):
        for name in DynamicInstruction.__slots__:
            value, wanted = getattr(dyn, name), getattr(expected, name)
            assert (type(value), value) == (type(wanted), wanted), (
                f"#{expected.seq} {name}: {value!r} != {wanted!r}")


def column_bytes(columns):
    return {name: column.tobytes() for name, column in columns.arrays.items()}


def assert_same_run(mine, reference):
    """A compiled run equals the interpreter's in everything it returns."""
    assert isinstance(mine.trace, TraceColumns)
    assert mine.dynamic_count == reference.dynamic_count == len(reference.trace)
    assert mine.halted is reference.halted is True
    assert mine.state.pc == reference.state.pc
    assert mine.state.regs == reference.state.regs
    assert mine.memory._pages == reference.memory._pages
    flattened = TraceColumns.from_records(reference.trace)
    assert column_bytes(mine.trace) == column_bytes(flattened)
    assert mine.trace.store_pages == flattened.store_pages
    assert_same_records(mine.trace, reference.trace)
    assert mix_statistics(mine.trace) == mix_statistics(reference.trace)


def assert_same_failure(program, budget=2_000_000):
    """Both backends raise the same exception class and message."""
    with pytest.raises(Exception) as reference:
        interpret(program, budget)
    with pytest.raises(reference.type) as compiled:
        FunctionalSimulator(program, budget, backend="compiled").run()
    assert str(compiled.value) == str(reference.value)
    return reference.value


# ---------------------------------------------------------------------------
# Hand-written programs
# ---------------------------------------------------------------------------

#: (dividend, divisor) pairs as unsigned 64-bit words: signs, a zero
#: divisor, the one overflowing quotient, and quotients python rounds to
#: the nearest double before truncating.
DIVISIONS = [
    (7, 2), (-7, 2), (7, -2), (-7, -2), (5, 0), (0, 9), (-1, 1 << 63),
    (-(1 << 63), -1), (-(1 << 63), 1), ((1 << 63) - 1, 1),
    ((1 << 62) + 1, 3), ((1 << 63) - 1, 7), (-((1 << 63) - 25), 3),
    (0x123456789ABCDEF, 0x1234), ((1 << 60) + 12345, 1 << 10),
    ((1 << 53) + 1, 1), (-((1 << 55) + 3), 2), ((1 << 53) + 3, 1),
    (-((1 << 54) + 6), 2), ((1 << 62) + (1 << 9) + 1, 1),
]


def division_program():
    asm = Assembler("div_edges")
    asm.word_array("operands", [value & M64 for pair in DIVISIONS
                                for value in pair])
    asm.zeros("quotients", len(DIVISIONS))
    asm.la(R.A0, "operands")
    asm.la(R.A1, "quotients")
    for index in range(len(DIVISIONS)):
        asm.ld(R.T0, 16 * index, R.A0)
        asm.ld(R.T1, 16 * index + 8, R.A0)
        asm.div(R.T2, R.T0, R.T1)
        asm.st(R.T2, 8 * index, R.A1)
    asm.halt()
    return asm.assemble()


def wrap_program():
    """Effective addresses that wrap past 2**64 back to low memory."""
    asm = Assembler("mask64_wrap")
    asm.word_array("bases", [M64 - 7, M64 - 15])
    asm.la(R.A0, "bases")
    asm.ld(R.S0, 0, R.A0)            # 2**64 - 8
    asm.ld(R.S1, 8, R.A0)            # 2**64 - 16
    asm.li(R.T0, 0x5A5A)
    asm.st(R.T0, 24, R.S0)           # wraps to address 16: page 0, absent
    asm.ld(R.T1, 24, R.S0)
    asm.ldbu(R.T2, 32, R.S1)         # wraps to address 16 as well
    asm.ld(R.T3, 8, R.S0)            # wraps to address 0 exactly
    asm.addi(R.T4, R.S0, 100)        # register arithmetic wraps too
    asm.halt()
    return asm.assemble()


def straddle_program():
    """Loads and stores across page boundaries, inside and outside the
    initial memory image."""
    asm = Assembler("straddles")
    asm.zeros("buffer", 1100)        # 8800 bytes: crosses one boundary
    asm.word_array("constants", [0x0123456789ABCDEF, 0x80000001])
    boundary = (DATA_BASE + 4096) - asm.symbol("buffer")
    asm.la(R.A0, "buffer")
    asm.la(R.A1, "constants")
    asm.ld(R.T0, 0, R.A1)
    asm.ld(R.T1, 8, R.A1)
    asm.st(R.T0, boundary - 4, R.A0)         # 8 bytes over the boundary
    asm.ld(R.T2, boundary - 4, R.A0)
    asm.stw(R.T1, boundary - 2, R.A0)        # 4 bytes over it
    asm.ldw(R.T3, boundary - 2, R.A0)        # sign-extends 0x80000001
    asm.ldbu(R.T4, boundary - 1, R.A0)
    # Beyond the image: the first page of this window holds no data.
    asm.li(R.A2, DATA_BASE + 0x40000)
    asm.st(R.T0, 0, R.A2)                    # a page absent from the image
    asm.st(R.T0, 4092, R.A2)                 # second page absent too
    asm.ld(R.T5, 4092, R.A2)
    asm.li(R.A3, DATA_BASE + 0x80000 - 4)
    asm.ld(R.T6, 0, R.A3)                    # reads two absent pages: 0
    asm.st(R.T1, 0, R.A3)                    # writes both
    # The last image page's end, into a page the image lacks.
    end = asm.symbol("constants") + 16
    last = ((end + 4095) & ~4095) - 3
    asm.li(R.A4, last)
    asm.st(R.T0, 0, R.A4)
    asm.ld(R.T7, 0, R.A4)
    asm.halt()
    return asm.assemble()


def zero_register_program():
    asm = Assembler("zero_writes")
    asm.word_array("words", [0xDEADBEEF])
    asm.la(R.A0, "words")
    asm.addi(R.ZERO, R.A0, 5)
    asm.ld(R.ZERO, 0, R.A0)
    asm.mov(R.ZERO, R.A0)
    asm.ldah(R.ZERO, R.A0, 3)
    asm.add(R.T0, R.ZERO, R.ZERO)
    asm.st(R.ZERO, 0, R.A0)
    asm.ld(R.T1, 0, R.A0)
    asm.jsr("next", link_register=R.ZERO)
    asm.label("next")
    asm.mov(R.T2, R.ZERO)
    asm.halt()
    return asm.assemble()


def call_program():
    """Nested calls that save the return address on the stack."""
    asm = Assembler("calls")
    asm.li(R.A0, 6)
    asm.jsr("outer")
    asm.mov(R.S0, R.V0)
    asm.li(R.A0, 3)
    asm.jsr("leaf", link_register=R.T12)
    asm.halt()
    asm.label("outer")
    asm.prologue(16, (R.RA,))
    asm.li(R.V0, 0)
    asm.label("again")
    asm.jsr("leaf_ra")
    asm.subi(R.A0, R.A0, 1)
    asm.bgt(R.A0, "again")
    asm.epilogue(16, (R.RA,))
    asm.ret()
    asm.label("leaf_ra")
    asm.add(R.V0, R.V0, R.A0)
    asm.ret()
    asm.label("leaf")
    asm.muli(R.V0, R.A0, 7)
    asm.ret(R.T12)
    return asm.assemble()


def growth_program(pages=40, laps=300):
    """Stores to more new pages than a fresh pool holds, over more records
    than the columns start with."""
    asm = Assembler("growth")
    asm.li(R.A0, DATA_BASE + 0x100000)
    asm.li(R.T0, pages)
    asm.label("touch")
    asm.st(R.T0, 4094, R.A0)          # straddles into the next page
    asm.ldah(R.A0, R.A0, 0)
    asm.addi(R.A0, R.A0, 2048)
    asm.addi(R.A0, R.A0, 2048)
    asm.subi(R.T0, R.T0, 1)
    asm.bgt(R.T0, "touch")
    asm.li(R.T1, laps)
    asm.label("spin")
    for step in range(30):
        asm.addi(R.T2, R.T2, step)
    asm.subi(R.T1, R.T1, 1)
    asm.bgt(R.T1, "spin")
    asm.halt()
    return asm.assemble()


HAND_WRITTEN = {
    "div": division_program,
    "mask64_wrap": wrap_program,
    "straddles": straddle_program,
    "zero_register": zero_register_program,
    "call_ret": call_program,
}


# ---------------------------------------------------------------------------
# C vs python
# ---------------------------------------------------------------------------


@needs_compiled
@pytest.mark.parametrize("name", [workload.name for workload in list_workloads()])
def test_every_workload_matches_the_interpreter(name):
    program = get_workload(name).build(1)
    assert_same_run(run_in_c(program), interpret(program))


@needs_compiled
@pytest.mark.parametrize("name", SCALE_TWO)
def test_scale_two_workloads_match_the_interpreter(name):
    program = get_workload(name).build(2)
    assert_same_run(run_in_c(program), interpret(program))


@needs_compiled
@pytest.mark.parametrize("seed", range(20))
def test_random_programs_match_the_interpreter(seed):
    program = random_program(seed).assemble()
    assert_same_run(run_in_c(program), interpret(program))


@needs_compiled
@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_edge_cases_match_the_interpreter(name):
    program = HAND_WRITTEN[name]()
    assert_same_run(run_in_c(program), interpret(program))


@needs_compiled
def test_division_program_covers_its_edges():
    reference = interpret(division_program())
    divisions = [dyn.result for dyn in reference.trace
                 if dyn.instruction.opcode is Opcode.DIV]
    assert len(divisions) == len(DIVISIONS)
    assert divisions[4] == 0                          # zero divisor
    assert divisions[7] == 1 << 63                    # -2**63 / -1
    # Rounded through a double: not the exact integer quotient.
    assert divisions[10] != ((1 << 62) + 1) // 3


@needs_compiled
def test_growing_the_pool_and_the_columns_matches(monkeypatch):
    allocations = []
    allocate = pages_module.PagePool._allocate

    def counted(pool, capacity):
        allocations.append(capacity)
        allocate(pool, capacity)

    monkeypatch.setattr(pages_module.PagePool, "_allocate", counted)
    # Columns that start small make the run grow them twice.
    monkeypatch.setattr(compiled_functional, "START_RECORDS", 4096)
    program = growth_program()
    mine = run_in_c(program)
    assert len(allocations) >= 3, "the page pool never grew"
    assert mine.dynamic_count > 2 * compiled_functional.START_RECORDS
    assert_same_run(mine, interpret(program))


@needs_compiled
def test_compiled_backend_returns_columns():
    program = call_program()
    result = FunctionalSimulator(program, backend="compiled").run()
    assert isinstance(result.trace, TraceColumns)
    tables = TraceTables(program, result.trace)
    assert tables.memory_image == page_image(program.initial_memory)
    assert tables.trace_ops == [tables.decoded[dyn.index]
                                for dyn in interpret(program).trace]
    clone = pickle.loads(pickle.dumps(result.trace))
    assert column_bytes(clone) == column_bytes(result.trace)
    assert_same_records(clone, result.trace)


@needs_compiled
def test_mix_experiment_runs_on_the_requested_backend(monkeypatch):
    """``mix`` routes its backend into the functional runs."""
    reference = run_experiment("mix", suite="micro", backend="python",
                               jobs=1, cache=False)
    backends = []
    original = FunctionalSimulator.run

    def recorded(simulator, *args, **kwargs):
        backends.append(simulator.backend)
        return original(simulator, *args, **kwargs)

    monkeypatch.setattr(FunctionalSimulator, "run", recorded)
    compiled = run_experiment("mix", suite="micro", backend="compiled",
                              jobs=1, cache=False)
    assert backends and set(backends) == {"compiled"}
    assert compiled.to_dict() == reference.to_dict()


# ---------------------------------------------------------------------------
# Runs the C entry hands back
# ---------------------------------------------------------------------------


def runaway_program():
    asm = Assembler("runaway")
    asm.label("spin")
    asm.addi(R.T0, R.T0, 1)
    asm.br("spin")
    return asm.assemble()


def wild_return_program():
    asm = Assembler("wild_return")
    asm.li(R.T0, 40)
    asm.ret(R.T0)                      # pc 40: below the code segment
    return asm.assemble()


def fall_through_program():
    asm = Assembler("no_halt")
    asm.addi(R.T0, R.T0, 1)
    return asm.assemble()


def far_target_program():
    asm = Assembler("far_target")
    asm.emit(Instruction(Opcode.BR, target=1 << 70))
    return asm.assemble()


FAILURES = {
    "budget": (runaway_program, 500),
    "wild_return": (wild_return_program, 100),
    "fall_through": (fall_through_program, 100),
    "far_target": (far_target_program, 100),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failures_raise_the_interpreters_exception(name):
    build, budget = FAILURES[name]
    error = assert_same_failure(build(), budget)
    if name != "far_target":
        assert isinstance(error, ExecutionLimitExceeded)


@needs_compiled
@pytest.mark.parametrize("name", sorted(FAILURES))
def test_the_c_entry_hands_failures_back(name):
    build, budget = FAILURES[name]
    assert compiled_functional.run_compiled(build(), budget) is None


def straddle_past_the_top_program():
    """An 8-byte access at 2**64 - 4: python's memory continues past 2**64
    (page 2**52) where C would wrap to page 0, so the C entry hands the
    run back."""
    asm = Assembler("top_straddle")
    asm.word_array("base", [M64 - 3])
    asm.la(R.A0, "base")
    asm.ld(R.S0, 0, R.A0)
    asm.li(R.T0, 77)
    asm.st(R.T0, 0, R.S0)
    asm.ld(R.T1, 0, R.S0)
    asm.halt()
    return asm.assemble()


def wide_immediate_program():
    """An immediate no int64 column holds (the assembler never emits one)."""
    asm = Assembler("wide_imm")
    asm.li(R.T0, 5)
    asm.emit(Instruction(Opcode.ADDI, rd=R.T1, rs1=R.T0, imm=1 << 70))
    asm.halt()
    return asm.assemble()


@pytest.mark.parametrize("build", [straddle_past_the_top_program,
                                   wide_immediate_program])
def test_fallbacks_match_the_interpreter(build):
    program = build()
    reference = interpret(program)
    result = FunctionalSimulator(program, backend="compiled").run()
    assert_same_records(result.trace, reference.trace)
    assert result.state.regs == reference.state.regs
    assert result.memory._pages == reference.memory._pages
    if get_backend("compiled").available():
        assert compiled_functional.run_compiled(program, 1000) is None


@pytest.mark.parametrize("reno", [None, RenoConfig.reno_default()],
                         ids=["BASE", "RENO"])
def test_wide_immediate_cells_run_on_the_python_loop(reno, monkeypatch):
    """An immediate no kernel column holds is declined before the kernel
    starts, on both compiled routes, by the one check over the trace's
    tables (``KernelTables.fits``, which ``supports()`` makes too); the
    cell then runs on the python loop, with the python result."""
    program = wide_immediate_program()
    machine = MachineConfig.default_4wide()
    reference = simulate(program, machine, reno, backend="python").timing
    functional = FunctionalSimulator(program, backend="compiled").run()
    tables = TraceTables(program, functional.trace)
    renamer = (RenoRenamer(machine.num_physical_regs, reno)
               if reno is not None else None)
    pipeline = Pipeline(program, functional.trace, machine, renamer=renamer,
                        backend="compiled", tables=tables)
    compiled = get_backend("compiled")
    assert pipeline.backend_name == compiled.name or not compiled.available()
    calls = []
    if compiled.available():
        assert not KernelTables.of(tables).fits
        assert not compiled.supports(pipeline)
        kernel = build.load_kernel()
        monkeypatch.setattr(build, "load_kernel", lambda: (
            lambda *args: calls.append(args) or kernel(*args)))
    fresh = simulate(program, machine, reno, trace=functional, tables=tables,
                     backend="compiled").timing
    sliced = pipeline.run()
    assert calls == []
    for result in (fresh, sliced):
        assert asdict(result.stats) == asdict(reference.stats)
        assert result.final_registers == reference.final_registers
        assert result.finished and result.cycles == reference.cycles


# ---------------------------------------------------------------------------
# The column form of a trace (python only)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
def test_columns_rebuild_the_interpreters_records(seed):
    program = random_program(seed).assemble()
    reference = interpret(program).trace
    flattened = TraceColumns.from_records(reference)
    columns = TraceColumns(program.instructions, flattened.arrays)
    assert len(columns) == len(reference)
    assert_same_records(columns, reference)
    assert columns[3] is columns.records[3]       # built once, then kept
    assert mix_statistics(columns) == mix_statistics(reference)
    tables = TraceTables(program, columns)
    assert tables.trace_ops == TraceTables(program, reference).trace_ops


def test_interpreter_store_pages_cover_straddles():
    program = straddle_program()
    trace = interpret(program).trace
    pages = TraceColumns.from_records(trace).store_pages
    assert (DATA_BASE + 0x80000 - 4) >> 12 in pages
    assert (DATA_BASE + 0x80000) >> 12 in pages
    assert CODE_BASE >> 12 not in pages
