"""Register renaming: shared data structures and the conventional renamer.

The conventional (RENO-less) renamer is a MIPS R10000-style map table plus an
explicit free list.  :class:`repro.core.renamer.RenoRenamer` implements the
same :class:`Renamer` interface, adding physical-register sharing, extended
``[p:d]`` mappings, and the integration table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.functional.trace import DynamicInstruction
from repro.isa.instruction import decode_op
from repro.isa.registers import NUM_LOGICAL_REGS


@dataclass(slots=True)
class SourceOperand:
    """A renamed source operand: a physical register plus a displacement.

    In the conventional pipeline the displacement is always zero.  Under
    RENO_CF the map table attaches a displacement, and the consumer's
    functional unit adds it (operation fusion).

    Source operands are immutable in practice and freely shared between
    rename results (the RENO renamer reuses its map-table ``Mapping``
    objects directly — anything with ``preg``/``disp`` attributes
    qualifies); never mutate one in place.
    """

    preg: int
    disp: int = 0


@dataclass(slots=True)
class RenameResult:
    """Everything the pipeline needs to know about one renamed instruction.

    Attributes:
        sources: Renamed source operands (order follows the instruction's
            ``rs1``/``rs2`` fields).
        dest_preg: Physical register the destination maps to (None when the
            instruction has no destination).  For eliminated instructions this
            is a *shared* register, not a new allocation.
        dest_disp: Displacement attached to the destination mapping (RENO_CF).
        prev_dest_preg: The physical register previously mapped to the
            destination logical register; released when this instruction
            commits.
        allocated: True if a fresh physical register was allocated.
        eliminated: True if RENO collapsed this instruction out of the
            execution stream (no issue-queue entry, no execution).
        elim_kind: Which optimization collapsed it: ``"move"``, ``"cf"``,
            ``"cse"`` or ``"ra"``.
        needs_reexecution: True for integration-eliminated loads which must
            re-execute through the cache retirement port before retiring.
        fusion_extra_latency: Extra execute cycles charged because a fused
            operand (non-zero displacement) feeds a unit that cannot absorb
            the extra addition for free.
    """

    sources: list[SourceOperand] = field(default_factory=list)
    dest_preg: int | None = None
    dest_disp: int = 0
    prev_dest_preg: int | None = None
    allocated: bool = False
    eliminated: bool = False
    elim_kind: str | None = None
    needs_reexecution: bool = False
    fusion_extra_latency: int = 0


class Renamer:
    """Interface shared by the conventional renamer and the RENO renamer.

    The pipeline renames one group per cycle by calling :meth:`begin_group`,
    then :meth:`rename_next` once per instruction (stopping early on
    stalls).  Grouping matters because RENO restricts which *dependent*
    instructions may be eliminated in the same cycle.
    """

    def free_register_count(self) -> int:
        """Number of destination registers that can still be allocated."""
        raise NotImplementedError

    def begin_group(self) -> None:
        """Start renaming a new same-cycle group."""

    def rename_next(self, dyn: DynamicInstruction, op: tuple | None = None) -> RenameResult | None:
        """Rename the next instruction of the current group.

        ``op`` is the instruction's decoded-op tuple
        (:func:`repro.isa.instruction.decode_op`; ``op[4]`` is the
        destination register, ``op[9]`` the source registers); the pipeline
        passes it, and implementations derive it themselves when omitted.

        Returns None (with no side effects) when no physical register is
        available for the instruction's destination; the pipeline then stalls
        and retries next cycle.
        """
        raise NotImplementedError

    def rename_group(self, group: list[DynamicInstruction]) -> list[RenameResult]:
        """Convenience wrapper: rename a whole group at once (used in tests)."""
        self.begin_group()
        results = []
        for dyn in group:
            result = self.rename_next(dyn)
            if result is None:
                raise RuntimeError("out of physical registers while renaming a group")
            results.append(result)
        return results

    def commit(self, prev_preg: int) -> None:
        """Release ``prev_preg``, the register a committed instruction's
        destination was mapped to before it (its rename result's
        ``prev_dest_preg``; the pipeline calls this only when there is one)."""
        raise NotImplementedError

    def mapping_snapshot(self) -> list[tuple[int, int]]:
        """Current logical → (physical, displacement) map (for tests/debug)."""
        raise NotImplementedError


class BaselineRenamer(Renamer):
    """Conventional R10000-style renaming: map table + free list, no sharing."""

    def __init__(self, num_physical_regs: int):
        if num_physical_regs <= NUM_LOGICAL_REGS:
            raise ValueError("need more physical than logical registers")
        self.num_physical_regs = num_physical_regs
        self.map_table: list[int] = list(range(NUM_LOGICAL_REGS))
        self.free_list: deque[int] = deque(range(NUM_LOGICAL_REGS, num_physical_regs))
        # Zero-displacement operands are immutable, so one shared instance
        # per physical register serves every rename (no per-instruction
        # allocation).
        self._operand_cache = [SourceOperand(preg) for preg in range(num_physical_regs)]

    # ------------------------------------------------------------------

    def free_register_count(self) -> int:
        """Registers left on the free list."""
        return len(self.free_list)

    def rename_next(self, dyn: DynamicInstruction, op: tuple | None = None) -> RenameResult | None:
        """Map sources, allocate a fresh destination register (None = stall).

        This is the one Python definition of conventional renaming: the
        pipeline's cycle loop calls it for every instruction (the compiled
        backend's generated C is tested against it).
        """
        if op is None:
            op = decode_op(dyn.instruction)
        dest = op[4]
        free_list = self.free_list
        if dest >= 0 and not free_list:
            return None
        operand_cache = self._operand_cache
        map_table = self.map_table
        # Built through __new__ + direct slot stores, as RenoRenamer does:
        # the same fields as RenameResult(sources, ...), minus the generated
        # __init__ frame (this runs once per renamed instruction).
        result = RenameResult.__new__(RenameResult)
        sources = op[9]                   # at most two, unrolled
        if len(sources) > 1:
            result.sources = [operand_cache[map_table[sources[0]]],
                              operand_cache[map_table[sources[1]]]]
        elif sources:
            result.sources = [operand_cache[map_table[sources[0]]]]
        else:
            result.sources = []
        result.dest_disp = 0
        result.eliminated = False
        result.elim_kind = None
        result.needs_reexecution = False
        result.fusion_extra_latency = 0
        if dest >= 0:
            new_preg = free_list.popleft()
            result.dest_preg = new_preg
            result.prev_dest_preg = map_table[dest]
            result.allocated = True
            map_table[dest] = new_preg
        else:
            result.dest_preg = None
            result.prev_dest_preg = None
            result.allocated = False
        return result

    def commit(self, prev_preg: int) -> None:
        """Return ``prev_preg`` to the free list."""
        self.free_list.append(prev_preg)

    def mapping_snapshot(self) -> list[tuple[int, int]]:
        """Current logical -> (physical, 0) map (displacements are always 0)."""
        return [(preg, 0) for preg in self.map_table]
