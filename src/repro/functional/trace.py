"""Dynamic instruction trace records and trace-level statistics.

The dynamic trace is the contract between the functional simulator and the
timing simulator: each record carries the architecturally correct operand
values, result, effective address and branch outcome, so the timing model can
(a) drive its branch predictor / caches with real addresses and outcomes and
(b) cross-check the values its own execute stage produces on the physical
register file — which is how RENO transformations are validated.

A trace comes in one of two forms, both a ``Sequence[DynamicInstruction]``:
the python interpreter's list of records, and the compiled functional
run's :class:`TraceColumns` — one flat ``array`` per record field (the
``T_*`` columns the compiled cycle loop reads), whose records are built
only when something indexes the trace.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.isa.instruction import Instruction


class DynamicInstruction:
    """One dynamic (executed) instruction.

    Attributes:
        seq: Dynamic sequence number (0-based, retirement order).
        index: Static instruction index within the program.
        pc: Virtual address of the instruction.
        instruction: The static instruction.
        rs1_value: Architectural value of ``rs1`` at execution (or 0).
        rs2_value: Architectural value of ``rs2`` at execution (or 0).
        result: Value written to the destination register (or None).
        eff_addr: Effective address for loads/stores (or None).
        store_value: Value written to memory for stores (or None).
        taken: Branch direction for control instructions (or None).
        next_pc: Address of the next dynamic instruction.
        target_pc: Taken-path target for control instructions (or None).
    """

    __slots__ = (
        "seq",
        "index",
        "pc",
        "instruction",
        "rs1_value",
        "rs2_value",
        "result",
        "eff_addr",
        "store_value",
        "taken",
        "next_pc",
        "target_pc",
    )

    def __init__(
        self,
        seq: int,
        index: int,
        pc: int,
        instruction: Instruction,
        rs1_value: int = 0,
        rs2_value: int = 0,
        result: int | None = None,
        eff_addr: int | None = None,
        store_value: int | None = None,
        taken: bool | None = None,
        next_pc: int = 0,
        target_pc: int | None = None,
    ):
        self.seq = seq
        self.index = index
        self.pc = pc
        self.instruction = instruction
        self.rs1_value = rs1_value
        self.rs2_value = rs2_value
        self.result = result
        self.eff_addr = eff_addr
        self.store_value = store_value
        self.taken = taken
        self.next_pc = next_pc
        self.target_pc = target_pc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<#{self.seq} pc={self.pc:#x} {self.instruction}>"


@dataclass
class InstructionMix:
    """Dynamic instruction mix of a trace, as fractions of all instructions.

    The paper highlights the move fraction (~4 %) and the register-immediate
    addition fraction (12 % SPECint / 16-17 % MediaBench) as the raw material
    for RENO_ME and RENO_CF.
    """

    total: int = 0
    moves: int = 0
    reg_imm_adds: int = 0
    other_alu: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    calls_returns: int = 0
    other: int = 0

    def fraction(self, count: int) -> float:
        return count / self.total if self.total else 0.0

    @property
    def move_fraction(self) -> float:
        return self.fraction(self.moves)

    @property
    def reg_imm_add_fraction(self) -> float:
        return self.fraction(self.reg_imm_adds)

    @property
    def load_fraction(self) -> float:
        return self.fraction(self.loads)

    @property
    def store_fraction(self) -> float:
        return self.fraction(self.stores)

    @property
    def branch_fraction(self) -> float:
        return self.fraction(self.branches)


#: The trace columns, one entry per dynamic instruction: name -> array
#: typecode.  ``*HAS`` columns say whether the optional field beside them
#: is present (its value column then holds 0 when it is not); ``T_TAKEN``
#: is -1 (None), 0 (False) or 1 (True).  ``rs1_value`` is always present,
#: so ``T_RS1HAS`` is constant 1 (the cycle kernel reads it).
TRACE_COLUMNS: dict[str, str] = {
    "T_PC": "Q", "T_SIDX": "q", "T_RS1": "Q", "T_RS1HAS": "q", "T_RS2": "Q",
    "T_RES": "Q", "T_RHAS": "q", "T_EFF": "Q", "T_EHAS": "q",
    "T_SV": "Q", "T_SVHAS": "q", "T_TAKEN": "q", "T_NPC": "Q",
    "T_TGT": "Q", "T_THAS": "q",
}

#: (value column, presence column, DynamicInstruction field) per optional field.
_OPTIONAL = (("T_RES", "T_RHAS", "result"), ("T_EFF", "T_EHAS", "eff_addr"),
             ("T_SV", "T_SVHAS", "store_value"),
             ("T_TGT", "T_THAS", "target_pc"))

#: ``T_TAKEN`` code + 1 -> ``DynamicInstruction.taken``.
_TAKEN = (None, False, True)


class TraceColumns(Sequence):
    """A dynamic trace held as flat columns (see :data:`TRACE_COLUMNS`).

    Indexing or iterating builds every :class:`DynamicInstruction` once and
    keeps them; ``len`` and the columns themselves never do.  Nothing
    writes the columns after construction.

    Attributes:
        instructions: The program's static instructions (``T_SIDX`` indexes
            them), or None when the records were given.
        arrays: Column name -> column, all of the trace's length: an
            ``array``, or a ``memoryview`` over the compiled run's buffers
            (both index, iterate, ``tolist`` and ``tobytes`` alike).
        store_pages: Every page a store in the trace wrote (both pages of a
            store that straddles two).
    """

    __slots__ = ("instructions", "arrays", "store_pages", "_records")

    def __init__(self, instructions, arrays: dict,
                 store_pages: frozenset[int] = frozenset(),
                 records: list[DynamicInstruction] | None = None):
        """Wrap finished columns (``records`` when they are already built)."""
        self.instructions = instructions
        self.arrays = arrays
        self.store_pages = store_pages
        self._records = records

    @classmethod
    def from_records(cls, records: list[DynamicInstruction]) -> "TraceColumns":
        """Flatten the python interpreter's records into columns."""
        def column(attr):
            return list(map(attrgetter(attr), records))

        arrays = {
            "T_PC": array("Q", column("pc")),
            "T_SIDX": array("q", column("index")),
            "T_RS1": array("Q", column("rs1_value")),
            "T_RS1HAS": array("q", (1,)) * len(records),
            "T_RS2": array("Q", column("rs2_value")),
            "T_TAKEN": array("q", [-1 if taken is None else int(taken)
                                   for taken in column("taken")]),
            "T_NPC": array("Q", column("next_pc")),
        }
        for name, has, attr in _OPTIONAL:
            values = column(attr)
            arrays[name] = array("Q", [0 if value is None else value
                                       for value in values])
            arrays[has] = array("q", [value is not None for value in values])
        pages = set()
        for dyn in records:
            spec = dyn.instruction.spec
            if spec.is_store:
                pages.add(dyn.eff_addr >> 12)
                pages.add((dyn.eff_addr + spec.mem_bytes - 1) >> 12)
        return cls(None, arrays, store_pages=frozenset(pages), records=records)

    @property
    def records(self) -> list[DynamicInstruction]:
        """The trace as records, built from the columns on first use."""
        if self._records is None:
            arrays = self.arrays
            indices = arrays["T_SIDX"].tolist()
            optional = {
                attr: [value if present else None for value, present
                       in zip(arrays[name].tolist(), arrays[has])]
                for name, has, attr in _OPTIONAL}
            self._records = list(map(
                DynamicInstruction, range(len(indices)), indices,
                arrays["T_PC"].tolist(),
                map(self.instructions.__getitem__, indices),
                arrays["T_RS1"].tolist(), arrays["T_RS2"].tolist(),
                optional["result"], optional["eff_addr"],
                optional["store_value"],
                [_TAKEN[code + 1] for code in arrays["T_TAKEN"]],
                arrays["T_NPC"].tolist(), optional["target_pc"]))
        return self._records

    def __len__(self) -> int:
        return len(self.arrays["T_SIDX"])

    def __reduce__(self):
        """Pickle the columns as arrays (a ``memoryview`` does not pickle)."""
        arrays = {name: array(TRACE_COLUMNS[name], column.tobytes())
                  for name, column in self.arrays.items()}
        return (TraceColumns, (self.instructions, arrays, self.store_pages,
                               self._records))

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self):
        return iter(self.records)


def trace_records(trace: Sequence[DynamicInstruction]) -> list[DynamicInstruction]:
    """``trace`` as a list of records (a column trace builds them once)."""
    return trace.records if isinstance(trace, TraceColumns) else trace


def trace_columns(trace: Sequence[DynamicInstruction]) -> TraceColumns:
    """``trace`` as columns (a list of records is flattened)."""
    if isinstance(trace, TraceColumns):
        return trace
    return TraceColumns.from_records(trace)


def _mix_category(spec) -> str:
    """The :class:`InstructionMix` counter one static instruction feeds."""
    if spec.is_move:
        return "moves"
    if spec.is_reg_imm_add:
        return "reg_imm_adds"
    if spec.is_load:
        return "loads"
    if spec.is_store:
        return "stores"
    if spec.is_cond_branch:
        return "branches"
    if spec.is_call or spec.is_return:
        return "calls_returns"
    if spec.op_class.value in ("alu", "shift", "mul", "div"):
        return "other_alu"
    return "other"


def mix_statistics(trace: Sequence[DynamicInstruction]) -> InstructionMix:
    """Compute the dynamic instruction mix of ``trace``.

    Moves and non-move register-immediate additions are counted separately
    (``mov`` is technically a register-immediate addition of zero, but the
    paper reports them as distinct categories).  Each static instruction
    is classified once and weighted by how often it executed.
    """
    mix = InstructionMix(total=len(trace))
    if isinstance(trace, TraceColumns) and trace.instructions is not None:
        instructions, indices = trace.instructions, trace.arrays["T_SIDX"]
    else:
        instructions = {dyn.index: dyn.instruction for dyn in trace}
        indices = map(attrgetter("index"), trace)
    for index, count in Counter(indices).items():
        category = _mix_category(instructions[index].spec)
        setattr(mix, category, getattr(mix, category) + count)
    return mix
