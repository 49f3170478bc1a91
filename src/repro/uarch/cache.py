"""Set-associative caches and the two-level hierarchy of §4.1."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uarch.config import CacheConfig, MachineConfig


class Cache:
    """A single set-associative, LRU, write-allocate cache.

    Timing-only: the cache tracks which blocks are resident, not their data
    (data correctness is handled by the pipeline's own memory image).
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.block_shift = config.block_bytes.bit_length() - 1
        self.latency = config.latency
        # Per set: list of tags in LRU order (index 0 = most recently used).
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int) -> tuple[int, int]:
        block = address >> self.block_shift
        return block % self.num_sets, block // self.num_sets

    def lookup(self, address: int) -> bool:
        """Access the cache; returns True on hit and updates LRU/contents."""
        block = address >> self.block_shift       # inlined _locate
        ways = self._sets[block % self.num_sets]
        tag = block // self.num_sets
        if ways and ways[0] == tag:
            # MRU fast path: repeated accesses to the hottest block need no
            # LRU reshuffle at all.
            self.hits += 1
            return True
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.config.associativity:
            ways.pop()
        return False

    def contains(self, address: int) -> bool:
        """Non-updating presence check (used by tests)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0.0 with no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(slots=True)
class MemoryAccessResult:
    """Outcome of a hierarchy access."""

    latency: int
    l1_hit: bool
    l2_hit: bool = False
    mshr_stall: int = 0


@dataclass
class _Mshr:
    """Tracks outstanding misses to bound memory-level parallelism."""

    capacity: int
    completion_times: list[int] = field(default_factory=list)

    def acquire(self, now: int, duration: int) -> int:
        """Reserve a miss slot; returns extra stall cycles if all are busy."""
        self.completion_times = [t for t in self.completion_times if t > now]
        stall = 0
        if len(self.completion_times) >= self.capacity:
            earliest = min(self.completion_times)
            stall = max(0, earliest - now)
            self.completion_times.remove(earliest)
        self.completion_times.append(now + stall + duration)
        return stall


class CacheHierarchy:
    """L1I + L1D + shared L2 + main memory, with a bounded miss window."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.l1i = Cache(config.l1i, "L1I")
        self.l1d = Cache(config.l1d, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self._mshr = _Mshr(config.max_outstanding_misses)
        # L1/L2 hit latencies are run constants, so the (read-only) result
        # objects for the hit paths are preallocated per L1 cache; only real
        # misses (which consult the MSHR) construct a fresh result.
        self._hit_results = {
            cache: (MemoryAccessResult(cache.latency, True, False),
                    MemoryAccessResult(cache.latency + self.l2.latency, False, True))
            for cache in (self.l1i, self.l1d)
        }

    # ------------------------------------------------------------------

    def _access(self, l1: Cache, address: int, now: int, is_write: bool) -> MemoryAccessResult:
        # Inlined Cache.lookup with the MRU fast path first: L1 hits are the
        # overwhelming majority of accesses and touch nothing but a counter.
        block = address >> l1.block_shift
        ways = l1._sets[block % l1.num_sets]
        tag = block // l1.num_sets
        if ways and ways[0] == tag:
            l1.hits += 1
            return self._hit_results[l1][0]
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            l1.hits += 1
            return self._hit_results[l1][0]
        l1.misses += 1
        ways.insert(0, tag)
        if len(ways) > l1.config.associativity:
            ways.pop()
        if self.l2.lookup(address):
            return self._hit_results[l1][1]
        miss_latency = self.l2.latency + self.config.memory_latency
        stall = self._mshr.acquire(now, miss_latency)
        latency = l1.latency + miss_latency + stall
        return MemoryAccessResult(latency, False, False, stall)

    def access_instruction(self, address: int, now: int) -> MemoryAccessResult:
        """Instruction fetch access."""
        return self._access(self.l1i, address, now, is_write=False)

    def access_data_read(self, address: int, now: int) -> MemoryAccessResult:
        """Data load access."""
        return self._access(self.l1d, address, now, is_write=False)
