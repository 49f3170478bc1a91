"""The compiled functional run: ``repro_functional`` behind
:meth:`repro.functional.simulator.FunctionalSimulator.run`.

:func:`run_compiled` takes the program's per-static-instruction columns
(the ``F_*`` kind/register/target columns beside the ``S_*`` decoded-op
columns the cycle loop reads too) and page image from its
:class:`~repro.uarch.tables.ProgramTables`, loads the image into a
:class:`~repro.uarch.compiled.pages.PagePool`, and calls the entry until
the program halts.  The trace columns start at
:data:`START_RECORDS` records and double when the entry reports them full;
the pool gains a page whenever a store needs one it lacks.  Neither is
ever sized from the instruction budget.

The columns lie end to end in one anonymous memory map (fifteen maps
cost about 0.1 ms per run to map and unmap), each ``F_CAP`` records long,
and the trace keeps a ``memoryview`` of each column's used prefix.  Grown
by doubling as heap ``array`` objects, the columns left about 8 MiB of
free heap behind after each request, which a long-running ``repro serve``
kept resident (serve-mixed peak RSS rose 13%); the map is returned to the
system whole when the trace is dropped, and the unwritten tail of each
column is never resident.

The result is the interpreter's :class:`~repro.functional.simulator.ExecutionResult`
with a :class:`~repro.functional.trace.TraceColumns` trace: no
:class:`~repro.functional.trace.DynamicInstruction` is built unless
something indexes it.  Anything the entry cannot finish — the budget
spent, a pc outside the code segment, an instruction outside what it
runs — returns None, and the caller reruns the program on the
interpreter, which raises the reference's exception.
"""

from __future__ import annotations

import ctypes
import mmap
from array import array
from itertools import compress

from repro.functional.memory import Memory
from repro.functional.simulator import ExecutionResult
from repro.functional.state import ArchState
from repro.functional.trace import TRACE_COLUMNS, TraceColumns
from repro.isa.opcodes import OpClass
from repro.isa.program import DATA_BASE, STACK_BASE, Program
from repro.isa.registers import NUM_LOGICAL_REGS, ZERO_REG
from repro.isa.registers import RegisterNames as R
from repro.uarch.compiled import build, emit
from repro.uarch.compiled.emit import PT, SC, SCALARS
from repro.uarch.compiled.marshal import (
    PointerBlock,
    address_of,
    opcode_columns,
)
from repro.uarch.compiled.pages import PagePool
from repro.uarch.tables import program_tables

#: Records the trace columns hold before their first growth: more than
#: any registered workload runs at scale 1 (the map is address space
#: until written).
START_RECORDS = 1 << 15

#: Bytes one trace record takes across the trace columns.
_WIDTH = 8 * len(TRACE_COLUMNS)

#: Op class -> ``F_KIND`` code.
_KINDS = {
    OpClass.ALU: emit.FK_ALU, OpClass.SHIFT: emit.FK_ALU,
    OpClass.MUL: emit.FK_ALU, OpClass.DIV: emit.FK_ALU,
    OpClass.LOAD: emit.FK_LOAD, OpClass.STORE: emit.FK_STORE,
    OpClass.BRANCH: emit.FK_BRANCH, OpClass.JUMP: emit.FK_JUMP,
    OpClass.CALL: emit.FK_CALL, OpClass.RET: emit.FK_RET,
    OpClass.NOP: emit.FK_NONE, OpClass.HALT: emit.FK_HALT,
}

#: Kinds that always write ``rd`` (the interpreter fails without one).
_LINKS = (emit.FK_LOAD, emit.FK_CALL)

#: Kinds whose ``target`` names an instruction.
_DIRECT = (emit.FK_BRANCH, emit.FK_JUMP, emit.FK_CALL)

#: Values an ``int64`` column holds.
_INT64 = range(-(1 << 63), 1 << 63)

#: Static columns ``repro_functional`` reads besides the ``F_*`` ones.
_STATIC = ("S_OPC", "S_IMM", "S_MEMB", "S_FLAGS")


def program_columns(tables) -> dict[str, array]:
    """Every static column ``repro_functional`` reads for the program of
    ``tables`` (a :class:`~repro.uarch.tables.ProgramTables` that fits the
    ``S_*`` columns): four ``S_*`` ones, ``O_BRANCH`` and the
    ``F_KIND``/``F_RS1``/``F_RS2``/``F_RD``/``F_TGT`` columns.

    An instruction the entry must not run as the interpreter would (an
    operand that is no register, a missing link register, an unresolved
    or out-of-range target, an immediate wider than 64 bits) gets
    :data:`~repro.uarch.compiled.emit.FK_UNSUPPORTED`, so executing it
    hands the run to the interpreter.
    """
    program = tables.program
    registers = range(NUM_LOGICAL_REGS)
    kinds, firsts, seconds, dests, targets = [], [], [], [], []
    for instruction in program.instructions:
        spec = instruction.spec
        kind = _KINDS[spec.op_class]
        first = instruction.rs1 if spec.reads_rs1 else -1
        second = instruction.rs2 if spec.reads_rs2 else -1
        rd = instruction.rd
        writes = kind in _LINKS or (kind == emit.FK_ALU and rd is not None)
        target = 0
        if kind in _DIRECT:
            target = (program.pc_of(instruction.target)
                      if isinstance(instruction.target, int) else -1)
        if ((first != -1 and first not in registers)
                or (second != -1 and second not in registers)
                or (writes and rd not in registers)
                or instruction.imm not in _INT64
                or target not in _INT64 or target < 0):
            kind, first, second, writes, target = (
                emit.FK_UNSUPPORTED, -1, -1, False, 0)
        kinds.append(kind)
        firsts.append(first)
        seconds.append(second)
        dests.append(rd if writes and rd != ZERO_REG else -1)
        targets.append(target)
    return {**{name: tables.static[name] for name in _STATIC},
            "O_BRANCH": opcode_columns()["O_BRANCH"],
            "F_KIND": array("q", kinds), "F_RS1": array("q", firsts),
            "F_RS2": array("q", seconds), "F_RD": array("q", dests),
            "F_TGT": array("q", targets)}


def run_compiled(program: Program,
                 max_instructions: int) -> ExecutionResult | None:
    """Run ``program`` in ``repro_functional``.

    Returns:
        The run's :class:`~repro.functional.simulator.ExecutionResult`, or
        None when the kernel is unavailable or cannot finish the run (the
        caller then reruns it on the interpreter).
    """
    kernel = build.load_functional()
    if kernel is None:
        return None
    tables = program_tables(program)
    if tables.functional is None:   # an immediate no int64 column holds
        return None
    registers = array("Q", bytes(8 * NUM_LOGICAL_REGS))
    registers[R.SP] = STACK_BASE
    registers[R.GP] = DATA_BASE
    fixed = {**tables.functional, "F_REGS": registers}

    pool = PagePool()
    pool.load(tables.pages, tables.memory_image)
    capacity = START_RECORDS
    columns = mmap.mmap(-1, _WIDTH * capacity)

    sc = array("q", bytes(8 * len(SCALARS)))
    sc[SC["F_PC"]] = program.pc_of(program.entry)
    sc[SC["F_BUDGET"]] = min(max_instructions, _INT64[-1])
    sc[SC["F_NCODE"]] = len(program.instructions)
    sc_ptr = ctypes.cast(sc.buffer_info()[0], ctypes.POINTER(ctypes.c_int64))
    pt = PointerBlock()
    for name, column in fixed.items():
        pt[PT[name]] = address_of(column)
    while True:
        sc[SC["F_CAP"]] = capacity
        sc[SC["NPOOL"]] = pool.count
        sc[SC["PH_MASK"]] = pool.mask
        base = address_of(columns)
        for index, name in enumerate(TRACE_COLUMNS):
            pt[PT[name]] = base + 8 * capacity * index
        for name, column in pool.arrays.items():
            pt[PT[name]] = address_of(column)
        code = kernel(sc_ptr, pt, pool.view)
        if code == emit.FN_OK:
            break
        if code == emit.FN_NEED_PAGE:
            pool.add(sc[SC["F_PAGE"]])
        elif code == emit.FN_FULL:
            grown = mmap.mmap(-1, 2 * _WIDTH * capacity)
            for start in range(0, _WIDTH * capacity, 8 * capacity):
                grown[2 * start:2 * start + 8 * capacity] = (
                    columns[start:start + 8 * capacity])
            columns.close()
            columns = grown
            capacity *= 2
        else:
            return None

    count = sc[SC["F_SEQ"]]
    view = memoryview(columns)
    columns = {name: view[start:start + 8 * count].cast(typecode)
               for start, (name, typecode) in zip(
                   range(0, _WIDTH * capacity, 8 * capacity),
                   TRACE_COLUMNS.items())}
    numbers = pool.arrays["PAGE_NUM"][:pool.count]
    stored = frozenset(compress(numbers, pool.arrays["PAGE_DIRTY"]))
    state = ArchState(pc=sc[SC["F_PC"]])
    state.regs = registers.tolist()
    memory = Memory.from_image(
        {number: pool.page(slot) for slot, number in enumerate(numbers)})
    return ExecutionResult(
        program=program,
        trace=TraceColumns(program.instructions, columns, stored),
        state=state, memory=memory, halted=True, dynamic_count=count)
