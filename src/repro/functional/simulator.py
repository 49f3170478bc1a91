"""The functional (architectural) simulator.

:meth:`FunctionalSimulator.run` runs a program on one of two backends,
named as for the timing pipeline (:mod:`repro.uarch.backend`):

* ``python`` — the interpreter below, the reference: it builds one
  :class:`~repro.functional.trace.DynamicInstruction` per executed
  instruction;
* ``compiled`` — ``repro_functional`` in the generated C
  (:mod:`repro.uarch.compiled.functional`), which writes the trace as
  :class:`~repro.functional.trace.TraceColumns` and builds no
  per-instruction object.  A run it cannot finish (budget spent, pc
  outside the code segment) is rerun here on the interpreter, which
  raises the reference's exception.

Both produce the same trace, final registers, memory, ``halted`` and
``dynamic_count``; ``tests/functional/test_compiled_functional.py``
compares them field by field.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.functional.memory import Memory
from repro.functional.state import ArchState
from repro.functional.trace import DynamicInstruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import DATA_BASE, INSTRUCTION_BYTES, STACK_BASE, Program
from repro.isa.registers import RegisterNames as R
from repro.isa.semantics import alu_eval, branch_taken, mask64, sign_extend


class ExecutionLimitExceeded(Exception):
    """Raised when a program does not halt within the instruction budget."""


@dataclass
class ExecutionResult:
    """Outcome of a functional simulation run.

    Attributes:
        program: The program that was executed.
        trace: The dynamic instruction trace in program (retirement) order,
            read-only: a list of records from the interpreter, columns
            (:class:`~repro.functional.trace.TraceColumns`) from the
            compiled run.  The trailing ``halt`` instruction is included.
        state: Final architectural register state.
        memory: Final memory contents.
        halted: True if the program executed a ``halt`` instruction.
        dynamic_count: Number of dynamic instructions executed.
    """

    program: Program
    trace: Sequence[DynamicInstruction]
    state: ArchState
    memory: Memory
    halted: bool
    dynamic_count: int = 0
    extra: dict = field(default_factory=dict)


class FunctionalSimulator:
    """Executes AXP-lite programs architecturally and records their traces."""

    def __init__(self, program: Program, max_instructions: int = 2_000_000,
                 backend=None):
        """Create a simulator for ``program``.

        Args:
            program: The assembled program to run.
            max_instructions: Hard bound on dynamic instructions; exceeding it
                raises :class:`ExecutionLimitExceeded` (guards against
                workload bugs that would otherwise hang the test suite).
            backend: ``"python"``, ``"compiled"``, a backend object, or
                None for ``$REPRO_BACKEND`` (default ``python``), resolved
                as the pipeline resolves it
                (:func:`repro.uarch.backend.resolve_backend`): an
                unavailable ``compiled`` runs the interpreter.
        """
        from repro.uarch.backend import resolve_backend
        from repro.uarch.tables import program_tables

        self.program = program
        self.max_instructions = max_instructions
        #: The resolved backend name, ``"python"`` or ``"compiled"``.
        self.backend = resolve_backend(backend).name
        self.state = ArchState(pc=program.pc_of(program.entry))
        self.state.write(R.SP, STACK_BASE)
        self.state.write(R.GP, DATA_BASE)
        #: The interpreter's memory; a compiled run starts from the
        #: program's page image instead, and builds this only to rerun.
        self.memory = (None if self.backend == "compiled" else
                       Memory.from_image(program_tables(program).memory_image))

    def run(self, record_trace: bool = True) -> ExecutionResult:
        """Run the program to completion (or to the instruction budget).

        Args:
            record_trace: If False, the trace is left empty; useful when
                only the final state or the dynamic count is needed.

        Returns:
            An :class:`ExecutionResult`.
        """
        if self.backend == "compiled":
            from repro.uarch.compiled.functional import run_compiled

            result = run_compiled(self.program, self.max_instructions)
            if result is not None:
                self.state, self.memory = result.state, result.memory
                if not record_trace:
                    result.trace = []
                return result
            self.memory = Memory(self.program.initial_memory)
        return self._interpret(record_trace)

    def _interpret(self, record_trace: bool) -> ExecutionResult:
        """The reference interpreter loop (see :meth:`run`)."""
        program = self.program
        state = self.state
        trace: list[DynamicInstruction] = []
        # Hot-loop aliases (this loop runs once per dynamic instruction).
        instructions = program.instructions
        index_of = program.index_of
        execute_one = self._execute_one
        append = trace.append
        code_length = len(instructions)
        seq = 0
        halted = False

        while seq < self.max_instructions:
            index = index_of(state.pc)
            if index < 0 or index >= code_length:
                raise ExecutionLimitExceeded(
                    f"{program.name}: control transferred outside the code segment "
                    f"(pc={state.pc:#x})"
                )
            instruction = instructions[index]
            dyn = execute_one(seq, index, instruction)
            if record_trace:
                append(dyn)
            seq += 1
            if instruction.opcode is Opcode.HALT:
                halted = True
                break
            state.pc = dyn.next_pc
        else:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded the budget of "
                f"{self.max_instructions} dynamic instructions"
            )

        return ExecutionResult(
            program=program,
            trace=trace,
            state=state,
            memory=self.memory,
            halted=halted,
            dynamic_count=seq,
        )

    # ------------------------------------------------------------------

    def _execute_one(self, seq: int, index: int, instruction) -> DynamicInstruction:
        """Execute a single instruction and build its trace record."""
        program = self.program
        state = self.state
        memory = self.memory
        spec = instruction.spec
        pc = state.pc
        fallthrough = pc + INSTRUCTION_BYTES

        rs1_value = state.read(instruction.rs1) if spec.reads_rs1 else 0
        rs2_value = state.read(instruction.rs2) if spec.reads_rs2 else 0

        result: int | None = None
        eff_addr: int | None = None
        store_value: int | None = None
        taken: bool | None = None
        target_pc: int | None = None
        next_pc = fallthrough

        op_class = spec.op_class
        if op_class in (OpClass.ALU, OpClass.SHIFT, OpClass.MUL, OpClass.DIV):
            result = alu_eval(instruction.opcode, rs1_value, rs2_value, instruction.imm)
            if instruction.rd is not None:
                state.write(instruction.rd, result)
        elif op_class is OpClass.LOAD:
            eff_addr = mask64(rs1_value + instruction.imm)
            raw = memory.read(eff_addr, spec.mem_bytes)
            result = sign_extend(raw, 8 * spec.mem_bytes) if spec.mem_signed else raw
            state.write(instruction.rd, result)
        elif op_class is OpClass.STORE:
            eff_addr = mask64(rs1_value + instruction.imm)
            store_value = rs2_value
            memory.write(eff_addr, spec.mem_bytes, store_value)
        elif op_class is OpClass.BRANCH:
            taken = branch_taken(instruction.opcode, rs1_value)
            target_pc = program.pc_of(instruction.target)
            next_pc = target_pc if taken else fallthrough
        elif op_class is OpClass.JUMP:
            taken = True
            target_pc = program.pc_of(instruction.target)
            next_pc = target_pc
        elif op_class is OpClass.CALL:
            taken = True
            result = fallthrough
            state.write(instruction.rd, result)
            target_pc = program.pc_of(instruction.target)
            next_pc = target_pc
        elif op_class is OpClass.RET:
            taken = True
            target_pc = rs1_value
            next_pc = target_pc
        elif op_class in (OpClass.NOP, OpClass.HALT):
            pass
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled op class {op_class}")

        return DynamicInstruction(
            seq, index, pc, instruction, rs1_value, rs2_value, result,
            eff_addr, store_value, taken, next_pc, target_pc,
        )
