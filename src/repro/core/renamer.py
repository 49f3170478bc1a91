"""The RENO renamer.

This is the paper's mechanism: a register renamer that, in addition to the
conventional map-table update, recognises instructions whose output value
already exists (or can be described as an existing value plus an immediate)
and collapses them out of the execution stream by *sharing* physical
registers:

* moves (RENO_ME) and register-immediate additions (RENO_CF) short-circuit
  the map table, the latter by accumulating displacements in the extended
  ``[p : d]`` map-table format;
* loads (and, in the full-integration policy, ALU operations) whose dataflow
  signature hits in the integration table share the physical register that
  already holds their value (RENO_CSE and RENO_RA).

The renamer operates purely on physical register *names* and immediates: it
never reads the physical register file.  The only value information it keeps
is carried inside integration-table entries, where it stands in for the
pre-retirement re-execution check of the original register-integration
proposal (see DESIGN.md, "Validation strategy").
"""

from __future__ import annotations

from repro.core.config import IT_POLICY_FULL, RenoConfig
from repro.core.fusion import fusion_extra_latency
from repro.core.integration import IntegrationEntry, IntegrationTable
from repro.core.maptable import ExtendedMapTable, Mapping
from repro.core.refcount import ReferenceCountManager
from repro.functional.trace import DynamicInstruction
from repro.isa.instruction import (
    DF_IT_ALU,
    DF_LOAD,
    DF_MOVE,
    DF_REG_IMM_ADD,
    DF_STORE,
    decode_op,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_LOGICAL_REGS
from repro.isa.semantics import fits_signed
from repro.uarch.rename import RenameResult, Renamer

#: Store opcode → the load opcode a reverse (memory bypassing) entry targets.
_STORE_TO_LOAD = {
    Opcode.ST: Opcode.LD,
    Opcode.STW: Opcode.LDW,
    Opcode.STB: Opcode.LDBU,
}

#: Canonical key opcode for all register-immediate additions, so that
#: ``addi r, 16`` matches a reverse entry created by ``subi r, 16``.
_CANONICAL_ADD = "addi"

#: Memory-instruction mask (loads and stores always maintain IT entries).
_DF_MEM = DF_LOAD | DF_STORE

#: Elimination kind → stats counter key (module-level: built once).
_ELIM_STATS_KEYS = {
    "move": "eliminated_moves",
    "cf": "eliminated_folds",
    "cse": "eliminated_cse",
    "ra": "eliminated_ra",
}


class RenoRenamer(Renamer):
    """Renamer implementing RENO_ME, RENO_CF and RENO_CSE+RA."""

    def __init__(self, num_physical_regs: int, config: RenoConfig | None = None):
        self.config = config or RenoConfig()
        self.config.validate()
        if num_physical_regs <= NUM_LOGICAL_REGS:
            raise ValueError("need more physical than logical registers")
        self.num_physical_regs = num_physical_regs
        self.map_table = ExtendedMapTable()
        self.integration_table: IntegrationTable | None = (
            IntegrationTable(self.config.it_entries, self.config.it_associativity)
            if self.config.enable_integration else None
        )
        # A freed register invalidates the integration-table entries naming
        # it.  The callback is the table's own method, not one of this
        # renamer's, so the renamer and its refcounts form no reference
        # cycle and a finished pipeline frees without the cyclic collector.
        self.refcounts = ReferenceCountManager(
            num_physical_regs, NUM_LOGICAL_REGS,
            on_free=(None if self.integration_table is None
                     else self.integration_table.invalidate_preg),
        )
        self._group_eliminated_logicals: set[int] = set()
        # Hot-path precomputation: config knobs as plain attributes, the
        # refcount free list for O(1) "can allocate" checks, and one shared
        # zero-displacement Mapping per physical register (mappings are
        # frozen, so the common ``[p : 0]`` case never allocates).
        config = self.config
        self._policy_full = config.integration_policy == IT_POLICY_FULL
        self._fold_moves = config.enable_move_elimination or config.enable_constant_folding
        self._fold_adds = config.enable_constant_folding
        self._allow_dependent = config.allow_dependent_eliminations
        self._disp_bits = config.displacement_bits
        self._free_list = self.refcounts._free
        self._zero_maps = [Mapping(preg) for preg in range(num_physical_regs)]
        # Decoded-flag mask of instructions that could possibly be
        # eliminated under this configuration; anything else skips the
        # _try_eliminate call entirely (no stats are counted on those
        # paths, so the gate is exact).
        elig = 0
        if self._fold_moves or self._fold_adds:
            elig |= DF_REG_IMM_ADD
        if self.integration_table is not None:
            elig |= DF_LOAD
            if self._policy_full:
                elig |= DF_IT_ALU
        self._elig_mask = elig
        self.stats: dict[str, int] = {
            "eliminated_moves": 0,
            "eliminated_folds": 0,
            "eliminated_cse": 0,
            "eliminated_ra": 0,
            "overflow_cancellations": 0,
            "dependent_elimination_blocks": 0,
            "it_lookups": 0,
            "it_hits": 0,
            "it_insertions": 0,
            "it_value_mismatches": 0,
        }

    # ------------------------------------------------------------------
    # Renamer interface
    # ------------------------------------------------------------------

    def free_register_count(self) -> int:
        return self.refcounts.free_count()

    def begin_group(self) -> None:
        # Reuse one set for the life of the renamer (this runs every cycle).
        eliminated = self._group_eliminated_logicals
        if eliminated:
            eliminated.clear()

    def rename_next(self, dyn: DynamicInstruction, op: tuple | None = None) -> RenameResult | None:
        if op is None:
            op = decode_op(dyn.instruction)
        source_logicals = op[9]                   # decoded source registers
        map_entries = self.map_table._entries     # inlined ExtendedMapTable.get
        if len(source_logicals) > 1:              # at most two, unrolled
            source_mappings = [map_entries[source_logicals[0]],
                               map_entries[source_logicals[1]]]
        elif source_logicals:
            source_mappings = [map_entries[source_logicals[0]]]
        else:
            source_mappings = []
        dest = op[4]                              # decoded dest register (-1 = none)

        elimination = None
        if dest >= 0:
            if op[0] & self._elig_mask:
                elimination = self._try_eliminate(dyn, op, source_mappings, dest)
            if elimination is None and not self._free_list:
                return None  # must allocate, but no physical register is free

        # Map-table Mapping entries are frozen and expose preg/disp, so they
        # serve directly as source operands — no per-instruction copies.
        # The result record is built through __new__ + direct slot stores:
        # same fields as RenameResult(source_mappings), minus the generated
        # __init__ frame (this runs once per renamed instruction).
        result = RenameResult.__new__(RenameResult)
        result.sources = source_mappings
        result.dest_preg = None
        result.dest_disp = 0
        result.prev_dest_preg = None
        result.allocated = False
        result.eliminated = False
        result.elim_kind = None
        result.needs_reexecution = False
        result.fusion_extra_latency = 0

        if elimination is not None:
            kind, shared_preg, out_disp, needs_reexec = elimination
            # Inlined ReferenceCountManager.share (once per elimination).
            refcounts = self.refcounts
            counts = refcounts.counts
            count = counts[shared_preg]
            if count <= 0:
                refcounts.share(shared_preg)      # raises the underflow error
            else:
                count += 1
                counts[shared_preg] = count
                refcounts.total_shares += 1
                if count > refcounts.max_observed_count:
                    refcounts.max_observed_count = count
            # Inlined ExtendedMapTable.set (zero displacements reuse the
            # shared per-register mapping).
            previous = map_entries[dest]
            map_entries[dest] = (self._zero_maps[shared_preg] if out_disp == 0
                                 else Mapping(shared_preg, out_disp))
            result.dest_preg = shared_preg
            result.dest_disp = out_disp
            result.prev_dest_preg = previous.preg
            result.eliminated = True
            result.elim_kind = kind
            result.needs_reexecution = needs_reexec
            self._group_eliminated_logicals.add(dest)
            self.stats[_ELIM_STATS_KEYS[kind]] += 1
            return result

        if dest >= 0:
            # Inlined ReferenceCountManager.allocate (the earlier free-list
            # check guarantees a register is available).
            refcounts = self.refcounts
            new_preg = self._free_list.popleft()
            if refcounts.counts[new_preg] != 0:
                self._free_list.appendleft(new_preg)
                refcounts.allocate()              # raises the invariant error
            refcounts.counts[new_preg] = 1
            refcounts.total_allocations += 1
            previous = map_entries[dest]
            map_entries[dest] = self._zero_maps[new_preg]  # inlined set(dest, p, 0)
            result.dest_preg = new_preg
            result.prev_dest_preg = previous.preg
            result.allocated = True
        for mapping in source_mappings:
            if mapping.disp:
                # Only displaced operands can cost fusion latency; the common
                # zero-displacement case skips the model call entirely.
                result.fusion_extra_latency = fusion_extra_latency(
                    op[6],
                    [m.disp for m in source_mappings],
                    self.config,
                )
                break
        if self.integration_table is not None and (
                op[0] & _DF_MEM or self._policy_full):
            # Loads/stores always create entries; plain ALU work only does
            # under the full policy — hoisting the test here skips the call
            # for the (majority) plain-ALU case of the loads-only policy.
            self._insert_it_entries(dyn, op, source_mappings, result)
        return result

    def commit(self, prev: int) -> None:
        # Inlined ReferenceCountManager.release (this runs for every
        # committed instruction that replaced a mapping): drop one
        # reference, free the register and invalidate the IT entries naming
        # it when the count reaches zero.
        counts = self.refcounts.counts
        count = counts[prev]
        if count <= 0:
            self.refcounts.release(prev)      # raises the underflow error
        elif count == 1:
            counts[prev] = 0
            self._free_list.append(prev)
            table = self.integration_table
            if table is not None and prev in table._preg_index:
                table.invalidate_preg(prev)
        else:
            counts[prev] = count - 1

    def mapping_snapshot(self) -> list[tuple[int, int]]:
        return self.map_table.snapshot()

    # ------------------------------------------------------------------
    # Elimination decisions
    # ------------------------------------------------------------------

    def _try_eliminate(
        self,
        dyn: DynamicInstruction,
        op: tuple,
        source_mappings: list[Mapping],
        dest: int,
    ) -> tuple[str, int, int, bool] | None:
        """Decide whether the instruction can be collapsed.

        Returns ``(kind, shared_preg, out_disp, needs_reexecution)`` or None.
        """
        flags = op[0]
        if flags & DF_REG_IMM_ADD:
            # Only register-immediate additions can fold (RENO_ME / RENO_CF).
            if flags & DF_MOVE:
                fold_ok = self._fold_moves
                kind = "move"
            else:
                fold_ok = self._fold_adds
                kind = "cf"
            if fold_ok:
                if (op[9][0] in self._group_eliminated_logicals
                        and not self._allow_dependent):
                    # Two dependent eliminations in one rename group are
                    # disallowed to bound the output-selection mux
                    # complexity (§3.2).
                    self.stats["dependent_elimination_blocks"] += 1
                else:
                    source = source_mappings[0]
                    new_disp = source.disp + op[7]    # folded displacement
                    if fits_signed(new_disp, self._disp_bits):
                        return (kind, source.preg, new_disp, False)
                    self.stats["overflow_cancellations"] += 1

        # Loads always probe the IT; ALU work only under the full policy.
        if self.integration_table is not None and (
                flags & DF_LOAD
                or (self._policy_full and flags & DF_IT_ALU)):
            return self._try_integrate(dyn, op, source_mappings)
        return None

    def _try_integrate(
        self, dyn: DynamicInstruction, op: tuple, source_mappings: list[Mapping]
    ) -> tuple[str, int, int, bool] | None:
        """RENO_CSE+RA: probe the integration table for an existing value."""
        key = self._it_key(op, source_mappings)
        stats = self.stats
        stats["it_lookups"] += 1
        entry = self.integration_table.lookup(key)
        if entry is None:
            return None
        if self.refcounts.counts[entry.out_preg] <= 0:   # inlined is_live
            return None
        # Stand-in for the pre-retirement re-execution check: integrate only
        # when the shared register will hold the architecturally correct
        # value.  A mismatch corresponds to a squashed integration.
        if entry.value is None or dyn.result is None or entry.value != dyn.result:
            stats["it_value_mismatches"] += 1
            return None
        stats["it_hits"] += 1
        kind = "ra" if entry.origin == "store" else "cse"
        return (kind, entry.out_preg, entry.out_disp, bool(op[0] & DF_LOAD))

    # ------------------------------------------------------------------
    # Integration-table maintenance
    # ------------------------------------------------------------------

    def _it_key(self, op: tuple, source_mappings: list[Mapping]) -> tuple:
        # Inlined IntegrationTable.make_key: the signature is the plain
        # (opcode, imm, inputs) triple; the 0/1/2-source cases are unrolled.
        count = len(source_mappings)
        if count == 1:
            mapping = source_mappings[0]
            inputs = ((mapping.preg, mapping.disp),)
        elif count == 2:
            first, second = source_mappings
            inputs = ((first.preg, first.disp), (second.preg, second.disp))
        else:
            inputs = tuple((m.preg, m.disp) for m in source_mappings)
        if op[0] & DF_REG_IMM_ADD:
            return (_CANONICAL_ADD, op[7], inputs)
        return (op[6].value, op[5], inputs)

    def _insert_it_entries(
        self,
        dyn: DynamicInstruction,
        op: tuple,
        source_mappings: list[Mapping],
        result: RenameResult,
    ) -> None:
        """Create IT entries for a non-eliminated instruction.

        The caller has already checked that the integration table exists.
        """
        flags = op[0]
        if flags & DF_STORE:
            self._insert_reverse_store_entry(dyn, op, source_mappings)
            return
        if flags & DF_LOAD and result.dest_preg is not None:
            key = self._it_key(op, source_mappings)
            # Inlined _insert (one insertion per executed load).
            self.integration_table.insert(IntegrationEntry(
                key=key, out_preg=result.dest_preg, out_disp=0,
                origin="load", value=dyn.result,
            ))
            self.stats["it_insertions"] += 1
            return
        if not self._policy_full or result.dest_preg is None:
            return
        if not flags & DF_IT_ALU:
            return
        key = self._it_key(op, source_mappings)
        self._insert(IntegrationEntry(
            key=key, out_preg=result.dest_preg, out_disp=0,
            origin="alu", value=dyn.result,
        ))
        if flags & DF_REG_IMM_ADD:
            # Reverse entry: lets the matching future increment share the
            # pre-decrement register (bootstraps memory bypassing across
            # calls when constant folding is disabled).
            source = source_mappings[0]
            reverse_key = IntegrationTable.make_key(
                _CANONICAL_ADD,
                -op[7],
                ((result.dest_preg, 0),),
            )
            self._insert(IntegrationEntry(
                key=reverse_key, out_preg=source.preg, out_disp=source.disp,
                origin="alu", value=dyn.rs1_value,
            ))

    def _insert_reverse_store_entry(
        self, dyn: DynamicInstruction, op: tuple, source_mappings: list[Mapping]
    ) -> None:
        """Stores create entries shaped like the load that will read the value."""
        load_opcode = _STORE_TO_LOAD[op[6]]
        base_mapping = source_mappings[0]            # rs1 is the base register
        data_mapping = source_mappings[1]            # rs2 is the data register
        key = (load_opcode.value, op[5], ((base_mapping.preg, base_mapping.disp),))
        # Sharing the data register is only correct if the future load reads
        # back exactly the data register's value.  Recording that value here
        # lets the hit-time check reject truncating/size-mismatched cases.
        # (_insert inlined: one insertion per executed store.)
        self.integration_table.insert(IntegrationEntry(
            key=key, out_preg=data_mapping.preg, out_disp=data_mapping.disp,
            origin="store", value=dyn.store_value,
        ))
        self.stats["it_insertions"] += 1

    def _insert(self, entry: IntegrationEntry) -> None:
        self.integration_table.insert(entry)
        self.stats["it_insertions"] += 1
