"""Unit tests for the RENO renamer's elimination logic.

These drive the renamer directly with small hand-built traces (one
instruction per rename group unless stated otherwise) and inspect which
instructions it collapses and how the extended map table evolves.
"""

from repro.core import RenoConfig, RenoRenamer
from repro.functional import FunctionalSimulator
from repro.isa.assembler import Assembler
from repro.isa.registers import RegisterNames as R


def trace_of(asm: Assembler):
    return FunctionalSimulator(asm.assemble()).run().trace


def commit(renamer, result) -> None:
    """Commit a renamed instruction: hand back its previous mapping, if any
    (as the pipeline does from the window's ``prev_dest``)."""
    if result.prev_dest_preg is not None:
        renamer.commit(result.prev_dest_preg)


def rename_trace(renamer: RenoRenamer, trace, group_size: int = 1, commit_lag: int = 16):
    """Rename a whole trace, committing each instruction ``commit_lag``
    instructions later (a stand-in for the re-order buffer window)."""
    results = []
    uncommitted = []
    pending = list(trace)
    while pending:
        group, pending = pending[:group_size], pending[group_size:]
        renamer.begin_group()
        for dyn in group:
            result = renamer.rename_next(dyn)
            assert result is not None
            results.append((dyn, result))
            uncommitted.append(result)
        while len(uncommitted) > commit_lag:
            commit(renamer, uncommitted.pop(0))
    for result in uncommitted:
        commit(renamer, result)
    return results


def eliminations(results):
    return [(dyn.instruction.opcode.value, result.elim_kind)
            for dyn, result in results if result.eliminated]


# ---------------------------------------------------------------------------
# RENO_ME
# ---------------------------------------------------------------------------


def test_move_is_eliminated_and_shares_the_source_register():
    asm = Assembler("me")
    asm.li(R.T0, 7)
    asm.mov(R.T1, R.T0)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_me())
    results = rename_trace(renamer, trace_of(asm))
    li_result = results[0][1]
    mov_result = results[1][1]
    assert not li_result.eliminated              # li allocates a register
    assert mov_result.eliminated
    assert mov_result.elim_kind == "move"
    assert mov_result.dest_preg == li_result.dest_preg
    assert not mov_result.allocated
    assert renamer.stats["eliminated_moves"] == 1


def test_me_only_configuration_does_not_fold_additions():
    asm = Assembler("me_only")
    asm.li(R.T0, 7)
    asm.addi(R.T1, R.T0, 4)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_me())
    results = rename_trace(renamer, trace_of(asm))
    assert eliminations(results) == []            # the li/addi both execute


# ---------------------------------------------------------------------------
# RENO_CF
# ---------------------------------------------------------------------------


def test_addi_is_folded_into_the_map_table_displacement():
    asm = Assembler("cf")
    asm.li(R.T0, 100)      # executes (source is the zero register... also foldable!)
    asm.addi(R.T1, R.T0, 4)
    asm.addi(R.T2, R.T1, 6)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_cf_me())
    results = rename_trace(renamer, trace_of(asm))
    # li t0, 100 is addi t0, zero, 100: foldable onto the zero register.
    li_result = results[0][1]
    assert li_result.eliminated and li_result.dest_disp == 100
    first_addi = results[1][1]
    second_addi = results[2][1]
    assert first_addi.eliminated and first_addi.elim_kind == "cf"
    assert first_addi.dest_disp == 104
    assert second_addi.eliminated and second_addi.dest_disp == 110
    # All three share the zero register's physical register.
    assert li_result.dest_preg == first_addi.dest_preg == second_addi.dest_preg


def test_subi_folds_a_negative_displacement():
    asm = Assembler("cf_neg")
    asm.li(R.T0, 100)
    asm.subi(R.T1, R.T0, 30)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_cf_me())
    results = rename_trace(renamer, trace_of(asm))
    assert results[1][1].dest_disp == 70


def test_consumer_of_folded_addition_gets_the_displacement():
    asm = Assembler("cf_consumer")
    asm.zeros("buf", 4)
    asm.la(R.A0, "buf")
    asm.addi(R.T0, R.A0, 8)
    asm.ld(R.T1, 0, R.T0)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_cf_me())
    results = rename_trace(renamer, trace_of(asm))
    load_dyn, load_result = next((d, r) for d, r in results if d.instruction.is_load)
    assert not load_result.eliminated
    assert load_result.sources[0].disp == 8      # fused address computation


def test_displacement_overflow_cancels_folding():
    asm = Assembler("cf_overflow")
    asm.li(R.T0, 5)
    asm.addi(R.T1, R.T0, 30000)
    asm.addi(R.T2, R.T1, 30000)   # 60000 does not fit in 16 signed bits
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_cf_me())
    results = rename_trace(renamer, trace_of(asm))
    assert results[1][1].eliminated
    assert not results[2][1].eliminated
    assert renamer.stats["overflow_cancellations"] == 1


def test_narrow_displacement_field_cancels_more_often():
    asm = Assembler("cf_narrow")
    asm.li(R.T0, 5)
    asm.addi(R.T1, R.T0, 100)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_cf_me().with_displacement_bits(6))
    results = rename_trace(renamer, trace_of(asm))
    assert not results[1][1].eliminated
    assert renamer.stats["overflow_cancellations"] >= 1


def test_dependent_eliminations_blocked_within_a_group():
    asm = Assembler("cf_group")
    asm.li(R.T0, 5)
    asm.addi(R.T1, R.T0, 4)
    asm.addi(R.T2, R.T1, 6)       # depends on the addi renamed in the same group
    asm.halt()
    trace = trace_of(asm)
    renamer = RenoRenamer(64, RenoConfig.reno_cf_me())
    results = rename_trace(renamer, trace[1:3], group_size=2)   # both addis together
    assert results[0][1].eliminated
    assert not results[1][1].eliminated
    assert renamer.stats["dependent_elimination_blocks"] == 1


def test_dependent_eliminations_allowed_when_ablation_enabled():
    asm = Assembler("cf_group_ablation")
    asm.li(R.T0, 5)
    asm.addi(R.T1, R.T0, 4)
    asm.addi(R.T2, R.T1, 6)
    asm.halt()
    trace = trace_of(asm)
    config = RenoConfig(allow_dependent_eliminations=True, enable_integration=False)
    renamer = RenoRenamer(64, config)
    results = rename_trace(renamer, trace[1:3], group_size=2)
    assert results[0][1].eliminated and results[1][1].eliminated


def test_fusion_latency_reported_for_non_additive_consumer():
    asm = Assembler("cf_fusion")
    asm.li(R.T0, 5)
    asm.addi(R.T1, R.T0, 4)
    asm.sll(R.T2, R.T1, R.T0)     # shifter consumes a displaced operand
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_cf_me())
    results = rename_trace(renamer, trace_of(asm))
    shift_result = results[2][1]
    assert not shift_result.eliminated
    assert shift_result.fusion_extra_latency == 1


# ---------------------------------------------------------------------------
# RENO_CSE / RENO_RA (integration)
# ---------------------------------------------------------------------------


def test_redundant_load_is_eliminated_as_cse():
    asm = Assembler("cse")
    asm.word_array("buf", [42])
    asm.la(R.A0, "buf")
    asm.ld(R.T0, 0, R.A0)
    asm.ld(R.T1, 0, R.A0)         # same address, register unchanged
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_default())
    results = rename_trace(renamer, trace_of(asm))
    loads = [(d, r) for d, r in results if d.instruction.is_load]
    assert not loads[0][1].eliminated
    assert loads[1][1].eliminated
    assert loads[1][1].elim_kind == "cse"
    assert loads[1][1].needs_reexecution
    assert loads[1][1].dest_preg == loads[0][1].dest_preg


def test_store_load_pair_is_bypassed_as_ra():
    asm = Assembler("ra")
    asm.zeros("slot", 1)
    asm.la(R.A0, "slot")
    asm.li(R.T0, 77)
    asm.st(R.T0, 0, R.A0)
    asm.ld(R.T1, 0, R.A0)          # reads back what was just stored
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_default())
    results = rename_trace(renamer, trace_of(asm))
    load_result = next(r for d, r in results if d.instruction.is_load)
    assert load_result.eliminated
    assert load_result.elim_kind == "ra"


def test_intervening_store_to_same_address_blocks_integration():
    asm = Assembler("cse_blocked")
    asm.word_array("buf", [42])
    asm.la(R.A0, "buf")
    asm.li(R.T2, 5)
    asm.ld(R.T0, 0, R.A0)
    asm.st(R.T2, 0, R.A0)          # changes the memory value
    asm.ld(R.T1, 0, R.A0)          # must NOT share the first load's register
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_default())
    results = rename_trace(renamer, trace_of(asm))
    loads = [r for d, r in results if d.instruction.is_load]
    # The second load may be bypassed from the intervening *store* (correct),
    # but must not be integrated with the stale first load.
    if loads[1].eliminated:
        assert loads[1].elim_kind == "ra"


def test_overwritten_base_register_blocks_integration():
    asm = Assembler("cse_base_changed")
    asm.word_array("buf", [42, 43])
    asm.la(R.A0, "buf")
    asm.ld(R.T0, 0, R.A0)
    asm.add(R.A0, R.A0, R.A0)      # r_a0 now names a different physical register
    asm.ld(R.T1, 0, R.A0)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.integration_only_loads())
    results = rename_trace(renamer, trace_of(asm))
    loads = [r for d, r in results if d.instruction.is_load]
    assert not loads[1].eliminated


def test_loads_only_policy_does_not_touch_alu_ops():
    asm = Assembler("loads_only")
    asm.li(R.T0, 3)
    asm.li(R.T1, 4)
    asm.add(R.T2, R.T0, R.T1)
    asm.add(R.T3, R.T0, R.T1)      # redundant ALU op
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.integration_only_loads())
    results = rename_trace(renamer, trace_of(asm))
    adds = [r for d, r in results if d.instruction.opcode.value == "add"]
    assert not any(r.eliminated for r in adds)
    assert renamer.stats["it_lookups"] == 0


def test_full_policy_eliminates_redundant_alu_ops():
    asm = Assembler("full_integ")
    asm.li(R.T0, 3)
    asm.li(R.T1, 4)
    asm.add(R.T2, R.T0, R.T1)
    asm.add(R.T3, R.T0, R.T1)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.integration_only_full())
    results = rename_trace(renamer, trace_of(asm))
    adds = [r for d, r in results if d.instruction.opcode.value == "add"]
    assert not adds[0].eliminated
    assert adds[1].eliminated and adds[1].elim_kind == "cse"
    assert not adds[1].needs_reexecution


def test_reverse_addi_entry_restores_previous_mapping():
    """addi sp,-16 then addi sp,+16 shares the original register (full policy)."""
    asm = Assembler("reverse_addi")
    asm.mov(R.T0, R.SP)
    asm.subi(R.SP, R.SP, 16)
    asm.addi(R.SP, R.SP, 16)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.integration_only_full())
    results = rename_trace(renamer, trace_of(asm))
    decrement = results[1][1]
    increment = results[2][1]
    assert not decrement.eliminated
    assert increment.eliminated
    # The increment's output maps back to the pre-decrement register.
    assert increment.dest_preg == decrement.sources[0].preg


def test_it_statistics_are_tracked():
    asm = Assembler("stats")
    asm.word_array("buf", [1, 2])
    asm.la(R.A0, "buf")
    asm.ld(R.T0, 0, R.A0)
    asm.ld(R.T1, 0, R.A0)
    asm.halt()
    renamer = RenoRenamer(64, RenoConfig.reno_default())
    rename_trace(renamer, trace_of(asm))
    assert renamer.stats["it_insertions"] >= 1
    assert renamer.stats["it_lookups"] >= 2
    assert renamer.stats["it_hits"] == 1


def test_commit_releases_shared_registers_without_underflow():
    asm = Assembler("release")
    asm.li(R.T0, 1)
    for _ in range(20):
        asm.mov(R.T1, R.T0)
        asm.mov(R.T0, R.T1)
    asm.halt()
    renamer = RenoRenamer(40, RenoConfig.reno_default())
    rename_trace(renamer, trace_of(asm))
    renamer.refcounts.check_conservation()


def test_a_finished_reno_pipeline_frees_without_the_cyclic_collector():
    """The renamer and its reference counts form no reference cycle (the
    free callback is the integration table's method), so a run RENO
    pipeline is freed by reference counting alone, as a baseline one is."""
    import gc
    import weakref

    from repro.uarch import MachineConfig, Pipeline
    from repro.workloads import get_workload

    program = get_workload("micro_call_spill").build(1)
    trace = FunctionalSimulator(program).run().trace
    machine = MachineConfig.default_4wide()
    renamer = RenoRenamer(machine.num_physical_regs,
                          RenoConfig.reno_default())
    assert renamer.integration_table is not None
    pipeline = Pipeline(program, trace, machine, renamer=renamer,
                        collect_timing=True, backend="python")
    pipeline.run()
    alive = weakref.ref(renamer)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del pipeline, renamer
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()
