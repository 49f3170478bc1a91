"""Unit tests for store-sets, LSQ, ROB, issue queue, register file and renamer."""

import pytest

from repro.functional.trace import DynamicInstruction
from repro.isa.instruction import (
    CLASS_INT,
    CLASS_LOAD,
    CLASS_STORE,
    Instruction,
    decode_op,
)
from repro.isa.opcodes import Opcode
from repro.uarch.config import MachineConfig
from repro.uarch.lsq import LoadQueue, StoreQueue, StoreQueueEntry, ranges_overlap
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.rename import BaselineRenamer, SourceOperand
from repro.uarch.scheduler import IssueQueue
from repro.uarch.storesets import StoreSets


def dyn(opcode=Opcode.ADD, seq=0, rd=1, rs1=2, rs2=3, imm=0, pc=0x1000):
    instr = Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
    return DynamicInstruction(seq=seq, index=0, pc=pc, instruction=instr)


def class_of(opcode) -> int:
    """Issue-port class id of an opcode, via the decoded-op cache."""
    return decode_op(Instruction(opcode, rd=1, rs1=2, rs2=3))[1]


def add_inst(queue, seq, class_id=CLASS_INT, dispatch=0, sources=()):
    """Insert one instruction into a standalone issue queue's window."""
    queue.window.dispatch_cycle[seq & queue.window.mask] = dispatch
    queue.add(seq, dispatch, sources, class_id)


# ---------------------------------------------------------------------------
# Store sets
# ---------------------------------------------------------------------------


def test_store_sets_assigns_and_merges_sets():
    sets = StoreSets(64)
    assert sets.set_for(0x1000) is None
    sets.train_violation(0x1000, 0x2000)
    assert sets.set_for(0x1000) is not None
    assert sets.set_for(0x1000) == sets.set_for(0x2000)
    sets.train_violation(0x3000, 0x2000)
    assert sets.set_for(0x3000) == sets.set_for(0x1000)


def test_store_sets_requires_power_of_two():
    with pytest.raises(ValueError):
        StoreSets(60)


def test_store_sets_predicts_dependence_after_training():
    sets = StoreSets(64)
    assert not sets.load_predicted_dependent(0x4000)
    sets.train_violation(0x4000, 0x4100)
    assert sets.load_predicted_dependent(0x4000)


# ---------------------------------------------------------------------------
# Load/store queues
# ---------------------------------------------------------------------------


def test_ranges_overlap():
    assert ranges_overlap(0, 8, 4, 8)
    assert not ranges_overlap(0, 8, 8, 8)
    assert ranges_overlap(16, 4, 14, 4)


def test_store_queue_forwarding_full_cover():
    queue = StoreQueue(8)
    entry = StoreQueueEntry(seq=1, pc=0x100, size=8, trace_addr=0x2000,
                            addr=0x2000, value=0xAABBCCDD, executed=True)
    queue.add(entry)
    check = queue.check_load(seq=5, addr=0x2000, size=8)
    assert check.action == "forward"
    assert check.value == 0xAABBCCDD
    # A sub-word load inside the store is also forwardable.
    sub = queue.check_load(seq=5, addr=0x2001, size=1)
    assert sub.action == "forward"
    assert sub.value == 0xCC


def test_store_queue_violation_when_older_store_unexecuted():
    queue = StoreQueue(8)
    queue.add(StoreQueueEntry(seq=1, pc=0x100, size=8, trace_addr=0x2000))
    check = queue.check_load(seq=5, addr=0x2000, size=8)
    assert check.action == "violation"
    assert check.store.seq == 1
    # Non-overlapping unexecuted store is harmless.
    assert queue.check_load(seq=5, addr=0x3000, size=8).action == "memory"


def test_store_queue_wait_on_partial_overlap():
    queue = StoreQueue(8)
    queue.add(StoreQueueEntry(seq=1, pc=0x100, size=4, trace_addr=0x2000,
                              addr=0x2000, value=0x1234, executed=True))
    check = queue.check_load(seq=5, addr=0x2000, size=8)
    assert check.action == "wait_store"


def test_store_queue_only_considers_older_stores():
    queue = StoreQueue(8)
    queue.add(StoreQueueEntry(seq=9, pc=0x100, size=8, trace_addr=0x2000))
    assert queue.check_load(seq=5, addr=0x2000, size=8).action == "memory"


def test_store_queue_capacity_and_commit():
    queue = StoreQueue(2)
    queue.add(StoreQueueEntry(seq=1, pc=0, size=8, trace_addr=0))
    queue.add(StoreQueueEntry(seq=2, pc=0, size=8, trace_addr=8))
    assert queue.full
    with pytest.raises(RuntimeError):
        queue.add(StoreQueueEntry(seq=3, pc=0, size=8, trace_addr=16))
    queue.pop_committed(1)
    assert not queue.full
    with pytest.raises(KeyError):
        queue.pop_committed(99)


def test_load_queue_capacity():
    queue = LoadQueue(2)
    queue.add(1)
    queue.add(2)
    with pytest.raises(RuntimeError):
        queue.add(3)
    queue.remove(1)
    queue.add(3)
    queue.remove(42)   # removing an unknown load is a no-op


# ---------------------------------------------------------------------------
# Issue queue
# ---------------------------------------------------------------------------


def test_issue_class_mapping():
    assert class_of(Opcode.ADD) == CLASS_INT
    assert class_of(Opcode.LD) == CLASS_LOAD
    assert class_of(Opcode.ST) == CLASS_STORE
    assert class_of(Opcode.BNE) == CLASS_INT


def test_issue_queue_respects_class_and_total_limits():
    config = MachineConfig.default_4wide()       # 3 int, 1 load, total 4
    queue = IssueQueue(config)
    for seq in range(6):
        add_inst(queue, seq, CLASS_INT)
    for seq in range(6, 9):
        add_inst(queue, seq, CLASS_LOAD)
    selected = queue.select(cycle=5, ready_fn=lambda seq, cycle: True)
    assert len(selected) == 4
    int_selected = [s for s in selected if s < 6]
    load_selected = [s for s in selected if s >= 6]
    assert len(int_selected) == 3
    assert len(load_selected) == 1
    # Oldest-first selection.
    assert int_selected == [0, 1, 2]


def test_issue_queue_skips_instructions_dispatched_this_cycle():
    queue = IssueQueue(MachineConfig.default_4wide())
    add_inst(queue, 0, CLASS_INT, dispatch=5)
    assert queue.select(cycle=5, ready_fn=lambda seq, cycle: True) == []
    assert len(queue.select(cycle=6, ready_fn=lambda seq, cycle: True)) == 1


def test_issue_queue_ready_fn_gates_loads_only():
    # The ready_fn veto models load memory-ordering conditions, so it only
    # applies to load-class instructions; other classes issue once their
    # operands are available.
    queue = IssueQueue(MachineConfig.default_4wide())
    add_inst(queue, 0, CLASS_INT)
    add_inst(queue, 1, CLASS_LOAD)
    selected = queue.select(cycle=3, ready_fn=lambda seq, cycle: False)
    assert selected == [0]
    assert len(queue) == 1
    # The rejected load stays in its ready list and issues once the veto lifts.
    selected = queue.select(cycle=4, ready_fn=lambda seq, cycle: True)
    assert selected == [1]
    assert len(queue) == 0


def test_issue_queue_event_driven_wakeup():
    # An instruction with a pending operand becomes selectable only at the
    # producer's announced ready cycle (via the cycle-indexed wakeup queue).
    prf = PhysicalRegisterFile(64, [0] * 32)
    queue = IssueQueue(MachineConfig.default_4wide(), ready_cycles=prf.ready_cycle)
    prf.mark_pending(40)
    add_inst(queue, 0, CLASS_INT, sources=[SourceOperand(40)])
    assert queue.window.waiting_ops[0] == 1
    assert queue.select(cycle=1) == []
    # Producer writes p40, visible at cycle 5.
    prf.write(40, 123, 5)
    queue.wakeup(40, 5)
    assert queue.select(cycle=4) == []
    assert queue.select(cycle=5) == [0]
    assert queue.window.waiting_ops[0] == 0


# ---------------------------------------------------------------------------
# Physical register file
# ---------------------------------------------------------------------------


def test_prf_initial_state_and_readiness():
    prf = PhysicalRegisterFile(8, [10, 20, 30])
    assert prf.read(1) == 20
    assert prf.is_ready(2, 0)
    assert not prf.is_ready(5, 0)
    prf.write(5, 99, ready_cycle=7)
    assert prf.read(5) == 99
    assert not prf.is_ready(5, 6)
    assert prf.is_ready(5, 7)
    prf.mark_pending(5)
    assert not prf.is_ready(5, 1000)


def test_prf_rejects_too_few_registers():
    with pytest.raises(ValueError):
        PhysicalRegisterFile(2, [1, 2, 3])


# ---------------------------------------------------------------------------
# Baseline renamer
# ---------------------------------------------------------------------------


def test_baseline_renamer_allocates_and_frees():
    renamer = BaselineRenamer(40)
    assert renamer.free_register_count() == 8
    result = renamer.rename_group([dyn(Opcode.ADD, rd=1, rs1=2, rs2=3)])[0]
    assert result.allocated
    assert result.dest_preg == 32
    assert result.prev_dest_preg == 1
    assert renamer.free_register_count() == 7
    renamer.commit(result.prev_dest_preg)
    assert renamer.free_register_count() == 8


def test_baseline_renamer_intra_group_dependence():
    renamer = BaselineRenamer(64)
    group = [
        dyn(Opcode.ADD, seq=0, rd=1, rs1=2, rs2=3),
        dyn(Opcode.ADD, seq=1, rd=4, rs1=1, rs2=1),     # reads the new r1
    ]
    first, second = renamer.rename_group(group)
    assert second.sources[0].preg == first.dest_preg
    assert second.sources[1].preg == first.dest_preg


def test_baseline_renamer_stalls_when_out_of_registers():
    renamer = BaselineRenamer(33)
    assert renamer.rename_next(dyn(Opcode.ADD, rd=1)) is not None
    assert renamer.rename_next(dyn(Opcode.ADD, rd=2)) is None


def test_baseline_renamer_zero_register_destination_not_renamed():
    renamer = BaselineRenamer(64)
    result = renamer.rename_next(dyn(Opcode.ADD, rd=31))
    assert result.dest_preg is None
    assert not result.allocated
