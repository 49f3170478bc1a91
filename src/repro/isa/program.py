"""Assembled program container and address-space layout constants."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction

#: Base virtual address of the code segment.  Instructions are 4 bytes.
CODE_BASE = 0x0000_1000

#: Base virtual address of the static data segment.
DATA_BASE = 0x1000_0000

#: Initial stack pointer value.  The stack grows toward lower addresses.
STACK_BASE = 0x7FFF_F000

#: Instruction size in bytes.
INSTRUCTION_BYTES = 4


@dataclass
class Program:
    """An assembled AXP-lite program.

    Attributes:
        name: Human-readable program name (used in reports).
        instructions: The code, with branch targets resolved to instruction
            indices.
        labels: Code label → instruction index.
        symbols: Data symbol → byte address in the data segment.
        initial_memory: Byte address → byte value for statically initialised
            data.
        entry: Index of the first instruction to execute.
    """

    name: str
    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    initial_memory: dict[int, int] = field(default_factory=dict)
    entry: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    def pc_of(self, index: int) -> int:
        """Virtual address of the instruction at ``index``."""
        return CODE_BASE + index * INSTRUCTION_BYTES

    def index_of(self, pc: int) -> int:
        """Instruction index of virtual address ``pc``."""
        return (pc - CODE_BASE) // INSTRUCTION_BYTES

    def static_mix(self) -> dict[str, int]:
        """Count static instructions by coarse category (for reporting)."""
        counts: dict[str, int] = {}
        for instruction in self.instructions:
            key = instruction.spec.op_class.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def disassemble(self) -> str:
        """Return a human-readable listing of the program."""
        index_to_label = {index: name for name, index in self.labels.items()}
        lines = []
        for index, instruction in enumerate(self.instructions):
            if index in index_to_label:
                lines.append(f"{index_to_label[index]}:")
            lines.append(f"  {self.pc_of(index):#010x}  {instruction}")
        return "\n".join(lines)
