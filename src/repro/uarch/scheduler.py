"""Issue queue: event-driven wakeup/select over the structure-of-arrays window.

The scheduling *model* is unchanged from the event-driven rewrite —
outstanding-operand counts, a cycle-indexed wakeup queue, per-class
oldest-first ready lists — but the *representation* is now flat: the queue
tracks instructions purely by **sequence number** (a plain int), and all
per-instruction state lives in the shared
:class:`~repro.uarch.inflight.InFlightWindow` arrays indexed by
``seq & mask``.  Wakeup decrements an int in an array; select merges sorted
int lists; nothing in the wakeup/select path touches a Python object graph.

* **Outstanding-operand counts.**  :meth:`IssueQueue.add` counts how many of
  the instruction's renamed source operands are not yet available
  (``window.waiting_ops[slot]``).  A zero count sends the sequence number
  straight to its class's ready list.
* **Cycle-indexed wakeup queue.**  A producer whose value becomes visible at
  cycle *R* schedules its consumers' sequence numbers in ``_wakeups[R]``; a
  min-heap of pending cycles lets :meth:`IssueQueue.select` drain exactly
  the buckets that are due.  Each drained entry decrements one operand
  count; the count hitting zero moves the sequence number to a ready list.
* **Per-class ready lists.**  Ready sequence numbers are kept ascending
  (oldest first — ``seq`` *is* dispatch order) in one list per issue-port
  class, so selection merges a handful of int-list heads.

Invariants (relied on by the pipeline and checked against the object-model
full-scan reference in ``tests/uarch/test_scheduler_equivalence.py``):

* A sequence number appears in a ready list **iff** every renamed source
  operand has a readiness timestamp ``<=`` the current cycle, i.e. its
  ``waiting_ops`` count has reached zero.  Loads additionally consult the
  pipeline's memory-ordering predicate (the ``ready_fn`` callback) at select
  time; a load that fails it simply stays in its ready list.
* Operand counts are decremented only by the wakeup queue: once per
  registered (instruction, source) pair, at that source's ready cycle.  The
  pipeline is the only producer — it calls :meth:`IssueQueue.wakeup` after
  every physical-register write, which moves the register's registered
  waiters into the wakeup bucket for the write's ready cycle.
* A source operand that is unwritten at dispatch time (readiness sentinel
  ``NOT_READY``) registers the sequence number under the source register in
  ``_waiters``; the register is guaranteed to be written before it can be
  freed/reallocated, so waiter lists never leak across register reuse.
* Selection visits ready instructions in global ``seq`` order (oldest
  first), skipping classes whose per-cycle port limit is exhausted, until
  the total issue width is consumed — byte-for-byte the order the original
  full scan produced.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Sequence

from repro.isa.instruction import CLASS_FP, CLASS_INT, CLASS_LOAD, CLASS_STORE
from repro.uarch.config import MachineConfig
from repro.uarch.inflight import InFlightWindow
from repro.uarch.regfile import NOT_READY

#: Issue-port class display names, indexed by class id.
INT_CLASS = "int"
LOAD_CLASS = "load"
STORE_CLASS = "store"
FP_CLASS = "fp"

#: All port-class names in class-id order (the order selection considers).
PORT_CLASSES = (INT_CLASS, LOAD_CLASS, STORE_CLASS, FP_CLASS)


class IssueQueue:
    """The unified out-of-order issue window (event-driven wakeup/select).

    Entries are sequence numbers; per-instruction state lives in the shared
    :class:`~repro.uarch.inflight.InFlightWindow`.  Selection is oldest-first
    among ready instructions, subject to per-class and total issue-width
    limits.  The wakeup/select loop latency is modelled by the producer's
    readiness timestamp (see the pipeline), not here.

    See the module docstring for the wakeup-queue/ready-list invariants.
    """

    def __init__(
        self,
        config: MachineConfig,
        window: InFlightWindow | None = None,
        ready_cycles: Sequence[int] | None = None,
    ):
        """Create the queue.

        Args:
            config: Machine parameters (capacity and issue widths).
            window: The shared in-flight window; a private one sized to the
                ROB is created when omitted (unit tests).
            ready_cycles: The physical register file's readiness timestamps
                (``PhysicalRegisterFile.ready_cycle``).  None treats every
                operand as available, which is what unit tests that drive
                the queue without a register file want.
        """
        self.capacity = config.issue_queue_size
        self.config = config
        self.window = window if window is not None else InFlightWindow(config.rob_size)
        self._ready_cycles = ready_cycles
        #: Hot aliases into the window (list identities are stable).
        self._mask = self.window.mask
        self._waiting = self.window.waiting_ops
        self._class_ids = self.window.class_id
        self._dispatch_cycles = self.window.dispatch_cycle
        #: Resident-instruction count (window occupancy).
        self._count = 0
        #: Ready instructions across all classes (for the O(1) idle check).
        self._ready_total = 0
        #: Per-class-id ready lists of sequence numbers, each ascending.
        self._ready: list[list[int]] = [[], [], [], []]
        #: Source preg -> sequence numbers waiting for it to be produced.
        self._waiters: dict[int, list[int]] = {}
        #: Ready cycle -> sequence numbers receiving one operand wakeup then.
        self._wakeups: dict[int, list[int]] = {}
        #: Min-heap of the cycles present in ``_wakeups``.
        self._wakeup_heap: list[int] = []
        #: Total issue width, fixed for the run.
        self._total_issue = config.total_issue
        #: (class id, per-cycle port width) pairs, fixed for the run.
        self._port_limits = (
            (CLASS_INT, config.int_issue),
            (CLASS_LOAD, config.load_issue),
            (CLASS_STORE, config.store_issue),
            (CLASS_FP, config.fp_issue),
        )

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        """True when the window has no free entry."""
        return self._count >= self.capacity

    @property
    def free_entries(self) -> int:
        """Remaining window capacity."""
        return self.capacity - self._count

    def add(
        self,
        seq: int,
        cycle: int = 0,
        sources: Sequence | None = None,
        class_id: int = CLASS_INT,
    ) -> None:
        """Insert a dispatched instruction and classify its operand state.

        Args:
            seq: The instruction's sequence number (its window slot is
                ``seq & mask``).
            cycle: The dispatch cycle (used to decide which operands are
                already available).
            sources: The renamed source operands (anything with
                ``preg``/``disp`` attributes); None means no sources.
            class_id: The issue-port class id from the decoded-op tuple.
        """
        if self._count >= self.capacity:
            raise RuntimeError("issue queue overflow (dispatch should have stalled)")
        slot = seq & self._mask
        self._class_ids[slot] = class_id
        pending = 0
        ready_cycles = self._ready_cycles
        if ready_cycles is not None and sources:
            for source in sources:
                preg = source.preg
                ready_at = ready_cycles[preg]
                if ready_at <= cycle:
                    continue
                pending += 1
                if ready_at == NOT_READY:
                    bucket = self._waiters.get(preg)
                    if bucket is None:
                        self._waiters[preg] = [seq]
                    else:
                        bucket.append(seq)
                else:
                    self._schedule(seq, ready_at)
        self._waiting[slot] = pending
        self._count += 1
        if not pending:
            # Inlined _push_ready (all operands already available — the
            # common case at dispatch).  Appends are in seq order already.
            self._ready_total += 1
            ready = self._ready[class_id]
            if ready and seq < ready[-1]:
                insort(ready, seq)
            else:
                ready.append(seq)

    def wakeup(self, preg: int, ready_cycle: int) -> None:
        """A producer wrote ``preg``; its value is visible at ``ready_cycle``.

        Moves every sequence number registered as waiting on ``preg`` into
        the wakeup bucket for ``ready_cycle``.  Called by the pipeline after
        each physical-register write; a write nobody waits on is a no-op.
        """
        waiters = self._waiters.pop(preg, None)
        if waiters is None:
            return
        bucket = self._wakeups.get(ready_cycle)
        if bucket is None:
            self._wakeups[ready_cycle] = waiters
            heappush(self._wakeup_heap, ready_cycle)
        else:
            bucket.extend(waiters)

    def _schedule(self, seq: int, ready_cycle: int) -> None:
        """Register one operand wakeup for ``seq`` at ``ready_cycle``."""
        bucket = self._wakeups.get(ready_cycle)
        if bucket is None:
            self._wakeups[ready_cycle] = [seq]
            heappush(self._wakeup_heap, ready_cycle)
        else:
            bucket.append(seq)

    def select(
        self,
        cycle: int,
        ready_fn: Callable[[int, int], bool] | None = None,
    ) -> list[int]:
        """Pick the sequence numbers to issue this cycle and remove them.

        Args:
            cycle: Current cycle.
            ready_fn: Optional last-moment veto ``(seq, cycle) -> bool``,
                called (oldest-first) only for **load-class** instructions
                whose operands are already available.  The pipeline uses it
                for load memory-ordering conditions — the one readiness
                aspect the wakeup queue cannot index by cycle.  Other
                classes issue unconditionally once their operand count
                reaches zero.

        Returns:
            Selected sequence numbers, oldest first.
        """
        heap = self._wakeup_heap
        ready = self._ready
        dispatch_cycles = self._dispatch_cycles
        mask = self._mask
        if heap and heap[0] <= cycle:
            # Apply every wakeup due by now.
            wakeups = self._wakeups
            waiting = self._waiting
            class_ids = self._class_ids
            while heap and heap[0] <= cycle:
                for seq in wakeups.pop(heappop(heap)):
                    slot = seq & mask
                    pending = waiting[slot] - 1
                    waiting[slot] = pending
                    if not pending:
                        self._ready_total += 1
                        bucket = ready[class_ids[slot]]
                        if bucket and seq < bucket[-1]:
                            insort(bucket, seq)
                        else:
                            bucket.append(seq)
        if not self._ready_total:
            return []

        # Single-competitor fast path (the overwhelmingly common case):
        # exactly one class has both ready entries and port width, so walk
        # that one list oldest-first without building cursor records at all.
        single = -1
        multi = False
        for class_id, limit in self._port_limits:
            if limit and ready[class_id]:
                if single >= 0:
                    multi = True
                    break
                single = class_id
        if not multi:
            if single < 0:
                return []
            limit = self._port_limits[single][1]
            entries = ready[single]
            gate = ready_fn if single == CLASS_LOAD else None
            remaining_total = self._total_issue
            selected = []
            kept: list[int] | None = None
            index = 0
            count = len(entries)
            while index < count and limit and remaining_total:
                seq = entries[index]
                index += 1
                if (dispatch_cycles[seq & mask] >= cycle   # earliest issue is next cycle
                        or (gate is not None and not gate(seq, cycle))):
                    if kept is None:
                        kept = [seq]
                    else:
                        kept.append(seq)
                    continue
                selected.append(seq)
                limit -= 1
                remaining_total -= 1
            if index:
                if kept is None:
                    if index == count:
                        entries.clear()
                    else:
                        del entries[:index]
                else:
                    kept.extend(entries[index:])
                    ready[single] = kept
            if selected:
                self._count -= len(selected)
                self._ready_total -= len(selected)
            return selected

        # General path: two or more classes compete (the single-competitor
        # case was handled above); merge by sequence number with per-class
        # cursors [entries, next index, remaining port width, kept-back
        # seqs, class id, load veto or None].
        cursors = []
        for class_id, limit in self._port_limits:
            if limit and ready[class_id]:
                gate = ready_fn if class_id == CLASS_LOAD else None
                cursors.append([ready[class_id], 0, limit, None, class_id, gate])

        remaining_total = self._total_issue
        selected = []
        active = list(cursors)
        while remaining_total and active:
            # Oldest ready instruction among classes with port width left.
            best = active[0]
            best_seq = best[0][best[1]]
            for cursor in active[1:]:
                seq = cursor[0][cursor[1]]
                if seq < best_seq:
                    best = cursor
                    best_seq = seq
            entries, index = best[0], best[1]
            seq = entries[index]
            best[1] = index + 1
            gate = best[5]
            if (dispatch_cycles[seq & mask] >= cycle   # earliest issue is next cycle
                    or (gate is not None and not gate(seq, cycle))):
                if best[3] is None:
                    best[3] = [seq]
                else:
                    best[3].append(seq)
            else:
                selected.append(seq)
                best[2] -= 1
                remaining_total -= 1
                if not best[2]:
                    active.remove(best)
                    continue
            if best[1] == len(entries):
                active.remove(best)

        # Re-assemble each touched ready list: seqs passed over stay, in
        # order, ahead of the not-yet-visited suffix (both are ascending and
        # every kept seq precedes the suffix's).
        for entries, index, _limit, kept, class_id, _gate in cursors:
            if index == 0:
                continue
            if kept is None:
                if index == len(entries):
                    entries.clear()
                else:
                    del entries[:index]
            else:
                kept.extend(entries[index:])
                ready[class_id] = kept
        if selected:
            self._count -= len(selected)
            self._ready_total -= len(selected)
        return selected
