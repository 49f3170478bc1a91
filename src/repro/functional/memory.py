"""Sparse, page-based byte-addressable memory."""

from __future__ import annotations

#: Page size in bytes.  Pages are allocated lazily on first touch.
PAGE_SIZE = 4096
_PAGE_MASK = PAGE_SIZE - 1


def _pages_of(initial: dict[int, int]) -> dict[int, bytearray]:
    """Byte address -> value pairs laid out as pages, in first-touch order."""
    pages: dict[int, bytearray] = {}
    number, page = None, None
    for address, value in initial.items():
        # Data is laid out in runs, so most bytes land on the page of the
        # byte before them: look a page up only when the run leaves it.
        if address >> 12 != number:
            number = address >> 12
            page = pages.get(number)
            if page is None:
                page = pages[number] = bytearray(PAGE_SIZE)
        page[address & _PAGE_MASK] = value & 0xFF
    return pages


def page_image(initial: dict[int, int]) -> dict[int, bytes]:
    """The read-only page image of a program's initial memory.

    Built once per program and handed to :meth:`Memory.from_image` by every
    memory that starts from it; the pages are ``bytes``, so no memory's
    stores can reach the shared image.
    """
    return {number: bytes(page) for number, page in _pages_of(initial).items()}


class Memory:
    """A sparse 64-bit byte-addressable memory.

    Reads of untouched memory return zero, which lets workloads use large
    zero-initialised arrays without materialising them.  All multi-byte
    accesses are little-endian and may straddle page boundaries.
    """

    def __init__(self, initial: dict[int, int] | None = None):
        self._pages: dict[int, bytearray] = _pages_of(initial) if initial else {}

    @classmethod
    def from_image(cls, image: dict[int, bytes]) -> "Memory":
        """A memory holding its own writable copy of a :func:`page_image`."""
        memory = cls()
        memory._pages = {number: bytearray(page) for number, page in image.items()}
        return memory

    # -- internal page helpers -------------------------------------------

    def _page_for(self, address: int) -> bytearray:
        page_number = address >> 12
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    # -- byte-granularity primitives ---------------------------------------

    def read_byte(self, address: int) -> int:
        page = self._pages.get(address >> 12)
        if page is None:
            return 0
        return page[address & _PAGE_MASK]

    def write_byte(self, address: int, value: int) -> None:
        self._page_for(address)[address & _PAGE_MASK] = value & 0xFF

    # -- multi-byte accessors ----------------------------------------------

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned little-endian int."""
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            # Fast path: the access stays within one page, so it is a single
            # slice instead of a Python call per byte.
            page = self._pages.get(address >> 12)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + size], "little")
        value = 0
        for index in range(size):
            value |= self.read_byte(address + index) << (8 * index)
        return value

    def write(self, address: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value`` at ``address`` (little-endian)."""
        offset = address & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._page_for(address)
            page[offset:offset + size] = (
                value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            return
        for index in range(size):
            self.write_byte(address + index, (value >> (8 * index)) & 0xFF)

    # -- conveniences used by tests and workload setup ----------------------

    def read_word(self, address: int) -> int:
        """Read a 64-bit word."""
        return self.read(address, 8)

    def write_word(self, address: int, value: int) -> None:
        """Write a 64-bit word."""
        self.write(address, 8, value)

    def copy(self) -> "Memory":
        """Return an independent deep copy of this memory."""
        clone = Memory()
        clone._pages = {number: bytearray(page) for number, page in self._pages.items()}
        return clone

    def touched_pages(self) -> int:
        """Number of pages that have been materialised (for tests/statistics)."""
        return len(self._pages)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        zero = bytearray(PAGE_SIZE)
        pages = set(self._pages) | set(other._pages)
        for number in pages:
            if self._pages.get(number, zero) != other._pages.get(number, zero):
                return False
        return True
