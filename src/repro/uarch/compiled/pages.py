"""The kernel's memory page pool, shared by both compiled entries.

Both ``repro_run`` and ``repro_functional`` address memory through the
same pool: ``NPOOL`` 4 KiB pages laid end to end in one byte buffer, their
page numbers in ``PAGE_NUM``, a store-written flag per page in
``PAGE_DIRTY``, and an open-addressing table (``PH_KEY``/``PH_VAL``, size
``PH_MASK + 1``) from page number to pool slot that the C side probes with
``pool_find``.  :class:`PagePool` owns those buffers: the cycle loop's
marshal-in refills it before every slice, a fresh cell copies one, and
the functional run grows it a page at a time as stores reach pages it
lacks.
"""

from __future__ import annotations

import ctypes
from array import array

from repro.functional.memory import PAGE_SIZE

#: Unsigned-64 mask (python ints are unbounded; the ABI is 64-bit).
M64 = (1 << 64) - 1

#: Pages a fresh pool holds before its first growth.
_MIN_CAPACITY = 16


def _pool_hash(page: int, mask: int) -> int:
    """The kernel's page-pool hash (must match ``pool_find`` exactly)."""
    return (((page * 0x9E3779B97F4A7C15) & M64) >> 40) & mask


def fill_neg1(arr: array) -> None:
    """Set every element of an int64 array to -1 (byte pattern 0xFF)."""
    address, length = arr.buffer_info()
    ctypes.memset(address, 0xFF, length * arr.itemsize)


def fill_zero(arr: array) -> None:
    """Zero an array in one memset."""
    address, length = arr.buffer_info()
    ctypes.memset(address, 0, length * arr.itemsize)


class PagePool:
    """The page pool buffers of the kernel ABI.

    Attributes:
        arrays: ``PAGE_NUM``/``PAGE_DIRTY``/``PH_KEY``/``PH_VAL`` -> array
            (replaced when the pool grows; re-register after a growth).
        buffer: The page bytes, slot ``i`` at ``i * PAGE_SIZE``.
        view: A pointer to ``buffer``'s first byte, to pass as the pages
            argument (``byref`` of a ``c_ubyte``: no array type per buffer).
        count: Pages in use (``NPOOL``).
    """

    def __init__(self):
        """An empty pool with no capacity (the first load sizes it)."""
        self.arrays: dict[str, array] = {}
        self.buffer = bytearray()
        self.view = None
        self.count = 0
        self._capacity = 0

    @property
    def mask(self) -> int:
        """``PH_MASK``: the lookup table's size minus one."""
        return len(self.arrays["PH_KEY"]) - 1

    def load(self, numbers, pages) -> None:
        """Refill the pool with ``numbers`` (in slot order), each page's
        bytes taken from ``pages`` (a zero page where it has none)."""
        numbers = list(numbers)
        if not self._capacity or len(numbers) > self._capacity:
            self._allocate(max(_MIN_CAPACITY, 2 * len(numbers)))
        fill_neg1(self.arrays["PH_KEY"])
        fill_zero(self.arrays["PAGE_DIRTY"])
        self.count = 0
        for number in numbers:
            self._place(number, pages.get(number))

    def copy(self) -> "PagePool":
        """A pool with its own copy of these buffers."""
        pool = PagePool()
        pool.arrays = {name: column[:] for name, column in self.arrays.items()}
        pool.buffer = self.buffer[:]
        pool.view = ctypes.byref(ctypes.c_ubyte.from_buffer(pool.buffer))
        pool.count = self.count
        pool._capacity = self._capacity
        return pool

    def add(self, number: int) -> None:
        """Append a zero page, doubling the pool (contents and dirty flags
        kept) when it is full."""
        if self.count == self._capacity:
            buffer, numbers = self.buffer, self.arrays["PAGE_NUM"]
            dirty = self.arrays["PAGE_DIRTY"]
            count = self.count
            self._allocate(2 * max(self._capacity, _MIN_CAPACITY // 2))
            self.buffer[:count * PAGE_SIZE] = buffer[:count * PAGE_SIZE]
            self.arrays["PAGE_DIRTY"][:count] = dirty[:count]
            fill_neg1(self.arrays["PH_KEY"])
            self.count = 0
            for slot in range(count):
                self._index(numbers[slot])
        self._place(number, None)

    def page(self, slot: int) -> memoryview:
        """The bytes of pool slot ``slot`` (a view; copy before keeping)."""
        return memoryview(self.buffer)[slot * PAGE_SIZE:(slot + 1) * PAGE_SIZE]

    def _allocate(self, capacity: int) -> None:
        """Fresh, empty buffers for ``capacity`` pages."""
        self._capacity = capacity
        table = 1
        while table < 2 * capacity + 2:
            table <<= 1
        self.arrays = {
            "PAGE_NUM": array("q", bytes(8 * capacity)),
            "PAGE_DIRTY": array("q", bytes(8 * capacity)),
            "PH_KEY": array("q", bytes(8 * table)),
            "PH_VAL": array("q", bytes(8 * table)),
        }
        self.buffer = bytearray(capacity * PAGE_SIZE)
        self.view = ctypes.byref(ctypes.c_ubyte.from_buffer(self.buffer))

    def _place(self, number: int, data) -> None:
        """Put page ``number`` in the next slot (zeroed when ``data`` is
        None) and index it."""
        offset = self.count * PAGE_SIZE
        self.buffer[offset:offset + PAGE_SIZE] = (
            bytes(PAGE_SIZE) if data is None else data)
        self._index(number)

    def _index(self, number: int) -> None:
        """Record page ``number`` in slot ``count`` and the lookup table."""
        slot = self.count
        self.arrays["PAGE_NUM"][slot] = number
        keys, values = self.arrays["PH_KEY"], self.arrays["PH_VAL"]
        mask = len(keys) - 1
        h = _pool_hash(number, mask)
        while keys[h] != -1:
            h = (h + 1) & mask
        keys[h] = number
        values[h] = slot
        self.count = slot + 1
