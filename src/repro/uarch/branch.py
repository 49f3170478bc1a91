"""Branch prediction: hybrid direction predictor, BTB and return address stack.

The paper's front end uses a 16 Kbit hybrid predictor, a 2K-entry 4-way BTB
and a 32-entry RAS, and can fetch past one taken branch per cycle.  The
predictor here follows the classic bimodal + gshare + chooser organisation
with the storage budget split three ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.functional.trace import DynamicInstruction
from repro.isa.opcodes import OpClass
from repro.uarch.config import MachineConfig


class SaturatingCounterTable:
    """A table of 2-bit saturating counters indexed by a hashed key."""

    def __init__(self, entries: int, initial: int = 1):
        if entries & (entries - 1):
            raise ValueError("counter table size must be a power of two")
        self._mask = entries - 1
        self._counters = [initial] * entries

    def predict(self, index: int) -> bool:
        """Predicted direction for ``index`` (counter in the taken half)."""
        return self._counters[index & self._mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        """Saturate the counter toward the actual ``taken`` outcome."""
        slot = index & self._mask
        value = self._counters[slot]
        if taken:
            self._counters[slot] = min(3, value + 1)
        else:
            self._counters[slot] = max(0, value - 1)


class HybridPredictor:
    """Bimodal + gshare with a chooser, McFarling style."""

    def __init__(self, budget_bits: int):
        # Three equal tables of 2-bit counters.
        entries = max(256, (budget_bits // 2) // 3)
        entries = 1 << (entries.bit_length() - 1)
        self.bimodal = SaturatingCounterTable(entries)
        self.gshare = SaturatingCounterTable(entries)
        self.chooser = SaturatingCounterTable(entries, initial=2)
        self.history = 0
        self._history_mask = entries - 1

    def _indices(self, pc: int) -> tuple[int, int]:
        base = (pc >> 2) & self._history_mask
        return base, base ^ (self.history & self._history_mask)

    def predict(self, pc: int) -> bool:
        """Chooser-selected direction prediction for the branch at ``pc``."""
        bimodal_index, gshare_index = self._indices(pc)
        use_gshare = self.chooser.predict(bimodal_index)
        if use_gshare:
            return self.gshare.predict(gshare_index)
        return self.bimodal.predict(bimodal_index)

    def update(self, pc: int, taken: bool) -> None:
        """Train both components, the chooser, and the global history."""
        bimodal_index, gshare_index = self._indices(pc)
        bimodal_correct = self.bimodal.predict(bimodal_index) == taken
        gshare_correct = self.gshare.predict(gshare_index) == taken
        if bimodal_correct != gshare_correct:
            self.chooser.update(bimodal_index, gshare_correct)
        self.bimodal.update(bimodal_index, taken)
        self.gshare.update(gshare_index, taken)
        self.history = ((self.history << 1) | int(taken)) & 0xFFFF

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """One-pass predict + train (same state changes as predict();
        update() back to back, with the shared index/counter work done once
        and the saturating-counter updates applied in place).
        """
        history = self.history
        base = (pc >> 2) & self._history_mask
        gshare_index = base ^ (history & self._history_mask)
        bimodal_counters = self.bimodal._counters
        bimodal_slot = base & self.bimodal._mask
        gshare_counters = self.gshare._counters
        gshare_slot = gshare_index & self.gshare._mask
        chooser_counters = self.chooser._counters
        chooser_slot = base & self.chooser._mask
        bimodal_value = bimodal_counters[bimodal_slot]
        gshare_value = gshare_counters[gshare_slot]
        bimodal_taken = bimodal_value >= 2
        gshare_taken = gshare_value >= 2
        predicted = (gshare_taken if chooser_counters[chooser_slot] >= 2
                     else bimodal_taken)
        gshare_correct = gshare_taken == taken
        if (bimodal_taken == taken) != gshare_correct:
            chooser_value = chooser_counters[chooser_slot]
            if gshare_correct:
                if chooser_value < 3:
                    chooser_counters[chooser_slot] = chooser_value + 1
            elif chooser_value > 0:
                chooser_counters[chooser_slot] = chooser_value - 1
        if taken:
            if bimodal_value < 3:
                bimodal_counters[bimodal_slot] = bimodal_value + 1
            if gshare_value < 3:
                gshare_counters[gshare_slot] = gshare_value + 1
            self.history = ((history << 1) | 1) & 0xFFFF
        else:
            if bimodal_value > 0:
                bimodal_counters[bimodal_slot] = bimodal_value - 1
            if gshare_value > 0:
                gshare_counters[gshare_slot] = gshare_value - 1
            self.history = (history << 1) & 0xFFFF
        return predicted


class BranchTargetBuffer:
    """Set-associative BTB mapping branch PCs to predicted targets."""

    def __init__(self, entries: int, associativity: int):
        self.num_sets = max(1, entries // associativity)
        self.associativity = associativity
        self._sets: list[list[tuple[int, int]]] = [[] for _ in range(self.num_sets)]

    def _set_for(self, pc: int) -> list[tuple[int, int]]:
        return self._sets[(pc >> 2) % self.num_sets]

    def predict(self, pc: int) -> int | None:
        """Predicted target for ``pc`` (None on a BTB miss); updates LRU."""
        ways = self._set_for(pc)
        for tag, target in ways:
            if tag == pc:
                ways.remove((tag, target))
                ways.insert(0, (tag, target))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the mapping ``pc -> target`` (LRU replacement)."""
        ways = self._set_for(pc)
        for entry in ways:
            if entry[0] == pc:
                ways.remove(entry)
                break
        ways.insert(0, (pc, target))
        if len(ways) > self.associativity:
            ways.pop()


class ReturnAddressStack:
    """Bounded return address stack."""

    def __init__(self, entries: int):
        self.entries = entries
        self._stack: list[int] = []

    def push(self, address: int) -> None:
        """Push a return address (oldest entry falls off when full)."""
        self._stack.append(address)
        if len(self._stack) > self.entries:
            self._stack.pop(0)

    def pop(self) -> int | None:
        """Pop the predicted return address (None when empty)."""
        if self._stack:
            return self._stack.pop()
        return None


@dataclass(slots=True)
class BranchOutcome:
    """Result of processing one control instruction at fetch."""

    mispredicted: bool
    reason: str = ""


#: Shared outcome instances — ``process`` runs once per fetched control
#: instruction and its result is read-only, so the four possible outcomes
#: are preallocated instead of constructed per call.
_OK = BranchOutcome(False)
_DIRECTION = BranchOutcome(True, "direction")
_BTB = BranchOutcome(True, "btb")
_RAS = BranchOutcome(True, "ras")


class BranchUnit:
    """Front-end branch handling for the trace-driven pipeline.

    ``process`` is called for every fetched control-flow instruction with its
    actual outcome (from the trace); it returns whether the front end would
    have mispredicted, and trains all predictor state.
    """

    def __init__(self, config: MachineConfig):
        self.direction = HybridPredictor(config.branch_predictor_bits)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_associativity)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.conditional_branches = 0
        self.mispredictions = 0
        self.btb_misses = 0
        self.ras_mispredictions = 0

    def process(self, dyn: DynamicInstruction) -> BranchOutcome:
        """Predict + train on one fetched control instruction's outcome.

        Returns one of four shared, read-only :class:`BranchOutcome`
        instances (never mutate the result).
        """
        op_class = dyn.instruction.spec.op_class
        taken = dyn.taken is True
        outcome = _OK

        if op_class is OpClass.BRANCH:
            self.conditional_branches += 1
            predicted_taken = self.direction.predict_and_update(dyn.pc, taken)
            if predicted_taken != taken:
                self.mispredictions += 1
                outcome = _DIRECTION
            elif taken:
                outcome = self._check_target(dyn)
        elif op_class is OpClass.JUMP:
            outcome = self._check_target(dyn)
        elif op_class is OpClass.CALL:
            outcome = self._check_target(dyn)
            self.ras.push(dyn.pc + 4)
        elif op_class is OpClass.RET:
            predicted = self.ras.pop()
            if predicted != dyn.target_pc:
                self.ras_mispredictions += 1
                outcome = _RAS
        return outcome

    def _check_target(self, dyn: DynamicInstruction) -> BranchOutcome:
        predicted_target = self.btb.predict(dyn.pc)
        self.btb.update(dyn.pc, dyn.target_pc)
        if predicted_target != dyn.target_pc:
            self.btb_misses += 1
            return _BTB
        return _OK
