"""Re-order buffer: an array-backed, in-order slot-range window.

The ROB no longer stores objects at all.  Every in-flight instruction's
state lives in the shared :class:`~repro.uarch.inflight.InFlightWindow`
arrays, and because entries are allocated and retired strictly in program
order, the ROB reduces to two counters: ``head_seq`` (next sequence number
to retire) and ``tail_seq`` (next sequence number to dispatch).  Occupancy
is their difference; the head's window slot is ``head_seq & window.mask``.

The pipeline keeps these counters implicitly (its fetch index is the tail,
its committed-instruction count is the head) and mirrors them onto this
object once per phase call, so ``len(pipeline.rob)`` and the capacity
properties stay accurate between phases without per-instruction overhead.
"""

from __future__ import annotations

from repro.uarch.inflight import NO_COMPLETE, InFlightWindow


class ReorderBuffer:
    """A bounded, in-order window of in-flight instructions (counters only).

    Every renamed instruction (including RENO-eliminated ones) occupies an
    entry until it retires; retirement is in program order from the head.
    """

    __slots__ = ("capacity", "window", "head_seq", "tail_seq")

    def __init__(self, capacity: int, window: InFlightWindow | None = None):
        """Create an empty ROB of ``capacity`` entries.

        Args:
            capacity: Maximum number of in-flight instructions.
            window: The shared in-flight window; a private one is allocated
                when omitted (unit tests).
        """
        self.capacity = capacity
        self.window = window if window is not None else InFlightWindow(capacity)
        self.head_seq = 0
        self.tail_seq = 0

    def __len__(self) -> int:
        return self.tail_seq - self.head_seq

    @property
    def full(self) -> bool:
        """True when no ROB entry is free."""
        return self.tail_seq - self.head_seq >= self.capacity

    @property
    def free_entries(self) -> int:
        """Remaining ROB capacity."""
        return self.capacity - (self.tail_seq - self.head_seq)

    def add(self, seq: int) -> None:
        """Append sequence number ``seq`` at the tail (must be in order)."""
        if self.tail_seq - self.head_seq >= self.capacity:
            raise RuntimeError("ROB overflow (dispatch should have stalled)")
        if seq != self.tail_seq:
            raise ValueError(
                f"out-of-order ROB append: expected seq {self.tail_seq}, got {seq}"
            )
        self.tail_seq = seq + 1

    def head(self) -> int | None:
        """The oldest in-flight sequence number (None when empty)."""
        return self.head_seq if self.tail_seq > self.head_seq else None

    def pop_head(self) -> int:
        """Remove and return the (retiring) head sequence number.

        Also resets the slot's ``complete_cycle`` to :data:`NO_COMPLETE` —
        the slot-reuse contract retirement must uphold (see the inflight
        module docstring).
        """
        if self.tail_seq <= self.head_seq:
            raise IndexError("pop from an empty ROB")
        seq = self.head_seq
        self.window.complete_cycle[seq & self.window.mask] = NO_COMPLETE
        self.head_seq = seq + 1
        return seq
