"""Load and store queues with store-to-load forwarding."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class StoreQueueEntry:
    """One in-flight store.

    The address/value become known when the store issues (executes its
    address generation); the entry leaves the queue when the store commits
    and writes the data cache.
    """

    seq: int
    pc: int
    size: int
    trace_addr: int                 # architecturally correct address (from the trace)
    addr: int | None = None         # known after the store executes
    value: int | None = None
    executed: bool = False
    complete_cycle: int = -1


def ranges_overlap(addr_a: int, size_a: int, addr_b: int, size_b: int) -> bool:
    """True if the byte ranges [a, a+size_a) and [b, b+size_b) intersect."""
    return addr_a < addr_b + size_b and addr_b < addr_a + size_a


@dataclass(slots=True)
class LoadCheck:
    """Outcome of disambiguating a load against the store queue."""

    action: str                      # "forward" | "wait_store" | "violation" | "memory"
    store: StoreQueueEntry | None = None
    value: int | None = None


#: Shared read-only result for the common "no conflicting store" case, so
#: the per-load disambiguation path allocates nothing when the queue has no
#: overlap (never mutate it).
_MEMORY_CHECK = LoadCheck("memory")


class StoreQueue:
    """In-order store queue (program order) with forwarding search.

    ``entries`` stays in program order for the youngest-first disambiguation
    walk; a seq-keyed index makes the execute-time :meth:`find` O(1).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: list[StoreQueueEntry] = []
        self._by_seq: dict[int, StoreQueueEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def occupancy(self) -> int:
        """Entries currently held (the observability layer's SQ probe)."""
        return len(self.entries)

    @property
    def full(self) -> bool:
        """True when no store-queue entry is free."""
        return len(self.entries) >= self.capacity

    def add(self, entry: StoreQueueEntry) -> None:
        """Append an in-flight store (dispatch order == program order)."""
        if len(self.entries) >= self.capacity:
            raise RuntimeError("store queue overflow (dispatch should have stalled)")
        self.entries.append(entry)
        self._by_seq[entry.seq] = entry

    def find(self, seq: int) -> StoreQueueEntry | None:
        """The entry for store ``seq`` (None if absent)."""
        return self._by_seq.get(seq)

    def pop_committed(self, seq: int) -> StoreQueueEntry:
        """Remove the (oldest) entry for ``seq`` at commit."""
        entry = self._by_seq.pop(seq, None)
        if entry is None:
            raise KeyError(f"store {seq} not in the store queue")
        self.entries.remove(entry)
        return entry

    def check_load(self, seq: int, addr: int, size: int) -> LoadCheck:
        """Disambiguate a load at address ``addr`` against older stores.

        Scans older stores from youngest to oldest:

        * an older not-yet-executed store whose (architectural) address
          overlaps the load → the load would consume stale data: this is a
          memory-ordering **violation** if the load goes ahead now;
        * an executed, overlapping store that fully covers the load →
          **forward** its value;
        * an executed, partially overlapping store → the load must
          **wait_store** until that store commits;
        * otherwise the load reads the **memory** image.
        """
        # The queue is kept in program order (appends happen at dispatch),
        # so a reverse walk visits older stores youngest-first without the
        # sort the previous implementation paid on every load.
        end = addr + size
        for entry in reversed(self.entries):
            if entry.seq >= seq:
                continue
            if not entry.executed:
                trace_addr = entry.trace_addr
                if trace_addr < end and addr < trace_addr + entry.size:
                    return LoadCheck("violation", store=entry)
                continue
            entry_addr = entry.addr
            if entry_addr is None or not (entry_addr < end
                                          and addr < entry_addr + entry.size):
                continue
            if entry_addr <= addr and entry_addr + entry.size >= end:
                offset = addr - entry_addr
                mask = (1 << (8 * size)) - 1
                value = (entry.value >> (8 * offset)) & mask
                return LoadCheck("forward", store=entry, value=value)
            return LoadCheck("wait_store", store=entry)
        return _MEMORY_CHECK


class LoadQueue:
    """Bookkeeping-only load queue (capacity limit on in-flight loads)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: set[int] = set()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def occupancy(self) -> int:
        """Entries currently held (the observability layer's LQ probe)."""
        return len(self.entries)

    @property
    def full(self) -> bool:
        """True when no load-queue entry is free."""
        return len(self.entries) >= self.capacity

    def add(self, seq: int) -> None:
        """Track an in-flight load (capacity limit only)."""
        if len(self.entries) >= self.capacity:
            raise RuntimeError("load queue overflow (dispatch should have stalled)")
        self.entries.add(seq)

    def remove(self, seq: int) -> None:
        """Stop tracking a retired load (no-op for unknown loads)."""
        self.entries.discard(seq)
