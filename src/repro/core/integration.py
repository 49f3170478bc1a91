"""The integration table (IT) implementing RENO_CSE+RA.

The IT treats the physical register file as a value cache.  Each entry
describes one physical register in terms of the *register dataflow* of the
instruction that created the value:

    <opcode/imm, [p_in1 : d_in1], [p_in2 : d_in2]  →  [p_out : d_out]>

When a new instruction renames, the IT is probed with the instruction's
opcode, immediate and (extended) input mappings; a hit means an instruction
with identical dataflow already produced the value, so the new instruction's
output can simply share the existing physical register.

Stores create *reverse* entries shaped like the load that will read the
stored value (speculative memory bypassing, the dynamic analogue of register
allocation); register-immediate additions can create reverse entries for the
matching subtraction, which lets memory bypassing bootstrap across call
frames when constant folding is disabled.

Entries are invalidated when any physical register they name is reclaimed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

#: Opcode-string → CRC32, memoised so set indexing never re-encodes.
_OPCODE_HASHES: dict[str, int] = {}


@dataclass
class IntegrationEntry:
    """One IT tuple.

    Attributes:
        key: Hashable signature ``(opcode, imm, inputs)`` where inputs are
            (preg, disp) pairs.
        out_preg / out_disp: The output mapping a hit will short-circuit to.
        origin: ``"load"``, ``"store"`` (reverse entry), or ``"alu"`` —
            distinguishes RENO_CSE hits from RENO_RA hits in statistics.
        value: Architectural value the output mapping evaluates to; used as
            the stand-in for pre-retirement re-execution (see DESIGN.md).
    """

    key: tuple
    out_preg: int
    out_disp: int
    origin: str
    value: int | None = None


class IntegrationTable:
    """A set-associative integration table with LRU replacement."""

    def __init__(self, entries: int = 512, associativity: int = 2):
        if entries % associativity:
            raise ValueError("entries must be a multiple of associativity")
        self.num_sets = entries // associativity
        self.associativity = associativity
        self._sets: list[list[IntegrationEntry]] = [[] for _ in range(self.num_sets)]
        # preg -> set indices that contain entries naming it (for invalidation).
        self._preg_index: dict[int, set[int]] = {}
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------

    def _set_index(self, key: tuple) -> int:
        # Deliberately NOT built on ``hash()``: Python randomises string
        # hashes per process (PYTHONHASHSEED), which made IT set placement —
        # and therefore conflict evictions, hit counts and eliminations —
        # differ between otherwise identical runs.  Simulation results must
        # be reproducible across processes (parallel workers, cached reruns,
        # CI), so the set index is derived from a stable CRC32 mix instead.
        opcode, imm, inputs = key
        mixed = _OPCODE_HASHES.get(opcode)
        if mixed is None:
            mixed = _OPCODE_HASHES[opcode] = zlib.crc32(opcode.encode())
        mixed = mixed * 1000003 + imm
        for preg, disp in inputs:
            mixed = mixed * 1000003 + preg * 8191 + disp
        return mixed % self.num_sets

    def _register_pregs(self, entry: IntegrationEntry, set_index: int) -> None:
        index = self._preg_index
        out_preg = entry.out_preg
        bucket = index.get(out_preg)
        if bucket is None:
            index[out_preg] = {set_index}
        else:
            bucket.add(set_index)
        for operand in entry.key[2]:
            preg = operand[0]
            if preg != out_preg:
                bucket = index.get(preg)
                if bucket is None:
                    index[preg] = {set_index}
                else:
                    bucket.add(set_index)

    @staticmethod
    def make_key(opcode: str, imm: int, inputs: tuple[tuple[int, int], ...]) -> tuple:
        """Build an IT signature from opcode name, immediate and input mappings."""
        return (opcode, imm, inputs)

    # ------------------------------------------------------------------

    def lookup(self, key: tuple) -> IntegrationEntry | None:
        """Probe the table; a hit refreshes LRU order."""
        self.lookups += 1
        ways = self._sets[self._set_index(key)]
        for entry in ways:
            if entry.key == key:
                ways.remove(entry)
                ways.insert(0, entry)
                self.hits += 1
                return entry
        return None

    def insert(self, entry: IntegrationEntry) -> None:
        """Insert an entry, evicting the LRU way of its set if necessary."""
        self.insertions += 1
        set_index = self._set_index(entry.key)
        ways = self._sets[set_index]
        for existing in ways:
            if existing.key == entry.key:
                ways.remove(existing)
                break
        ways.insert(0, entry)
        if len(ways) > self.associativity:
            ways.pop()
        self._register_pregs(entry, set_index)

    def invalidate_preg(self, preg: int) -> int:
        """Drop every entry naming ``preg`` (called when the register is freed)."""
        set_indices = self._preg_index.pop(preg, None)
        if not set_indices:
            return 0
        removed = 0
        for set_index in set_indices:
            ways = self._sets[set_index]
            keep = []
            for entry in ways:
                names = {entry.out_preg} | {operand[0] for operand in entry.key[2]}
                if preg in names:
                    removed += 1
                else:
                    keep.append(entry)
            self._sets[set_index] = keep
        self.invalidations += removed
        return removed

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets)
