"""In-flight instruction state: the structure-of-arrays window.

The pipeline used to materialise one ``InFlightInst`` dataclass per dynamic
instruction and chase its attributes from every phase.  The in-flight window
is now a **structure of arrays**: one preallocated parallel array per field,
indexed by ROB slot, so the hot loops (wakeup, select, execute, commit) read
and write plain list cells instead of allocating and walking object graphs.

Slot discipline (the invariants the pipeline and scheduler rely on):

* Every dynamic instruction occupies exactly one ROB entry, entries are
  allocated in program order and retire in program order, so the slot of
  sequence number ``seq`` is simply ``seq & mask`` (arrays are sized to the
  next power of two above the ROB capacity).  Occupancy never exceeds the
  ROB capacity, so two live instructions can never share a slot.
* Lifecycle is encoded in ``complete_cycle`` alone: :data:`NO_COMPLETE`
  (a sentinel beyond any simulated cycle) means the slot is empty **or**
  its instruction has not finished executing; a real cycle number means the
  instruction completed then.  The commit guard ``complete_cycle[slot] <
  cycle`` therefore covers "ROB empty", "head still waiting" and "head not
  yet due" in one comparison.
* A slot is *owned* from dispatch to retirement.  Dispatch initialises the
  fields the instruction's class needs; retirement resets ``complete_cycle``
  to :data:`NO_COMPLETE` and leaves the rest stale.  Stale fields are never
  read: each field is either (re)written at dispatch for every instruction
  that later reads it, or only read on paths gated by flags that imply it
  was written (e.g. ``value`` is only compared at commit for instructions
  with a destination, all of which wrote it at execute).  The cosmetic
  timing fields (``issue_cycle``, ``retire_cycle``, ``dcache_latency``,
  ``mispredicted``, ``latency``) are additionally reset at dispatch when
  timing records are collected.
* This model has no pipeline flush (wrong-path instructions are never
  injected; a misprediction only stalls the front end), so slot reclamation
  happens exclusively through in-order retirement — a flush would be a
  head/tail slot-range reset of ``complete_cycle``, not an object-graph
  teardown.

``TimingRecord`` (the per-retired-instruction record consumed by the
critical-path model) is unchanged; the python loop builds it from the arrays
at commit when timing collection is on, and the compiled backend builds the
same records at marshal-out from the kernel's per-seq output columns (it
marshals ``issue_cycle``/``retire_cycle`` only for such pipelines, since no
other pipeline writes them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ``complete_cycle`` sentinel: the slot is empty, or its instruction has
#: not completed execution yet.  Beyond any reachable cycle count.
NO_COMPLETE = 1 << 60


class InFlightWindow:
    """Preallocated parallel arrays for every in-flight instruction field.

    Arrays are plain Python lists sized to the next power of two above the
    ROB capacity; the slot of sequence number ``seq`` is ``seq & mask``.
    All fields are documented on ``__init__``; the slot-reuse rules are in
    the module docstring.
    """

    __slots__ = (
        "capacity",
        "size",
        "mask",
        "dispatch_cycle",
        "issue_cycle",
        "complete_cycle",
        "retire_cycle",
        "latency",
        "value",
        "eff_addr",
        "dcache_latency",
        "replayed",
        "mispredicted",
        "class_id",
        "waiting_ops",
        "rename",
        "decoded",
        "dest_preg",
        "prev_dest",
        "elim_info",
        "fusion_extra",
        "nsrc",
        "src0_preg",
        "src0_disp",
        "src1_preg",
        "src1_disp",
    )

    def __init__(self, capacity: int):
        """Allocate the window for a ROB of ``capacity`` entries.

        Per-slot fields:

        * ``dispatch_cycle`` / ``issue_cycle`` / ``complete_cycle`` /
          ``retire_cycle`` — the timing milestones (fetch == dispatch in
          this front-end model); ``complete_cycle`` doubles as the slot
          lifecycle marker (see :data:`NO_COMPLETE`).
        * ``latency`` — execution latency charged (loads fold the d-cache
          latency in at execute).
        * ``value`` / ``eff_addr`` / ``dcache_latency`` / ``replayed`` /
          ``mispredicted`` — execution results and memory/branch details.
        * ``class_id`` — issue-port class id (set at issue-queue insertion).
        * ``waiting_ops`` — outstanding-operand count, owned by the issue
          queue's wakeup machinery.
        * ``rename`` — the instruction's ``RenameResult`` (commit needs the
          elimination details and the renamer hand-back); stays None on the
          pipeline's inlined conventional-renaming path.
        * ``decoded`` — the static instruction's decoded-op tuple
          (:func:`repro.isa.instruction.decode_op`).
        * ``dest_preg`` — allocated destination physical register or ``-1``
          (flattened from the rename result so execute never touches it).
        * ``prev_dest`` — the previously mapped destination register freed
          at commit, or ``-1``; lets the pipeline's fast commit paths skip
          the rename-result object entirely.
        * ``elim_info`` — elimination summary for fast commit: 0 when not
          eliminated, else the kind id (1 move / 2 cf / 3 cse / 4 ra) plus
          bit 4 set when the eliminated load must re-execute at retire.
        * ``fusion_extra`` — extra execute latency charged for fused
          operands (RENO_CF).
        * ``nsrc`` / ``src0_preg`` / ``src0_disp`` / ``src1_preg`` /
          ``src1_disp`` — flattened renamed source operands.
        """
        if capacity < 1:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        size = 1
        while size < capacity:
            size <<= 1
        self.capacity = capacity
        self.size = size
        self.mask = size - 1
        self.dispatch_cycle = [0] * size
        self.issue_cycle = [-1] * size
        self.complete_cycle = [NO_COMPLETE] * size
        self.retire_cycle = [-1] * size
        self.latency = [1] * size
        self.value = [None] * size
        self.eff_addr = [0] * size
        self.dcache_latency = [0] * size
        self.replayed = [False] * size
        self.mispredicted = [False] * size
        self.class_id = [0] * size
        self.waiting_ops = [0] * size
        self.rename = [None] * size
        self.decoded = [None] * size
        self.dest_preg = [-1] * size
        self.prev_dest = [-1] * size
        self.elim_info = [0] * size
        self.fusion_extra = [0] * size
        self.nsrc = [0] * size
        self.src0_preg = [0] * size
        self.src0_disp = [0] * size
        self.src1_preg = [0] * size
        self.src1_disp = [0] * size

    def slot(self, seq: int) -> int:
        """The slot owned by sequence number ``seq`` while it is in flight."""
        return seq & self.mask

    @staticmethod
    def occupancy(committed: int, fetched: int) -> int:
        """ROB occupancy between the retire head and the fetch tail.

        The window itself holds no head/tail state — the pipeline owns both
        sequence counters — so occupancy is simply their distance.  This is
        the probe the observability layer
        (:class:`repro.uarch.observe.OccupancyStats`) samples once per
        cycle; the inlined cycle loop computes the same expression on its
        locals.
        """
        return fetched - committed


@dataclass(slots=True)
class TimingRecord:
    """Compact per-retired-instruction record used by the critical-path model."""

    seq: int
    opcode: str
    fetch_cycle: int
    dispatch_cycle: int
    issue_cycle: int
    complete_cycle: int
    retire_cycle: int
    is_load: bool
    is_store: bool
    is_branch: bool
    mispredicted: bool
    eliminated: bool
    dcache_latency: int
    latency: int
    source_producers: tuple[int, ...] = field(default_factory=tuple)
