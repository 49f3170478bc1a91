"""In-flight instruction state: the structure-of-arrays window.

The pipeline used to materialise one ``InFlightInst`` dataclass per dynamic
instruction and chase its attributes from every phase.  The in-flight window
is now a **structure of arrays**: one preallocated parallel array per field,
indexed by ROB slot, so the hot loops (wakeup, select, execute, commit) read
and write plain list cells instead of allocating and walking object graphs.
Every field holds ints (flags such as ``replayed`` hold 0 or 1).  One
table, :data:`WINDOW_COLUMNS`, defines the layout: each line names a
field, its member of the compiled kernel's pointer block, its typecode and
initial value, and the window's attributes, the kernel's buffers and the
marshaller's copies in both directions are all derived from it.  Static
facts are not kept per slot: the pipeline reads an instruction's
decoded-op tuple by seq from the trace's tables.

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
  timing fields (``issue_cycle``, ``dcache_latency``, ``mispredicted``,
  ``latency``) are additionally reset at dispatch when timing records are
  collected.
* This model has no pipeline flush (wrong-path instructions are never
  injected; a misprediction only stalls the front end), so slot reclamation
  happens exclusively through in-order retirement — a flush would be a
  head/tail slot-range reset of ``complete_cycle``, not an object-graph
  teardown.

Timing records (the per-retired-instruction facts the critical-path model
reads) have one form on every route, the compiled kernel's: a run that
collects them keeps each in-flight instruction's producers in the window
(``nprod``, ``prod0``..``prod2``, written at dispatch from a preg -> writer
array) and writes one entry per retired seq into the columns of
:data:`TIMING_COLUMNS` at commit (each paired there with the kernel's
``TR_*`` column that holds it).  A result holds them as a
:class:`TimingColumns`, which builds :class:`TimingRecord` objects only when
indexed.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

#: ``complete_cycle`` sentinel: the slot is empty, or its instruction has
#: not completed execution yet.  Beyond any reachable cycle count.
NO_COMPLETE = 1 << 60


class WindowColumn(NamedTuple):
    """One per-slot column of the in-flight window.

    Attributes:
        name: The :class:`InFlightWindow` attribute holding it.
        pointer: Its member of the compiled kernel's pointer block.
        typecode: Its ``array`` typecode in the kernel's buffers (``Q``:
            a 64-bit value held unsigned).
        initial: Every slot's value in a new window.
        timed: Whether only runs that collect timing records write it (the
            kernel then gets a one-element dummy in its place).
    """

    name: str
    pointer: str
    typecode: str = "q"
    initial: int = 0
    timed: bool = False


#: The window's columns, the one definition of its layout: the window's
#: attributes, the kernel's pointer-block members, their buffers and both
#: marshal copies all come from these lines.
WINDOW_COLUMNS: tuple[WindowColumn, ...] = (
    # Timing milestones (fetch == dispatch in this front-end model);
    # ``complete_cycle`` doubles as the slot lifecycle marker.
    WindowColumn("dispatch_cycle", "W_DISPATCH"),
    WindowColumn("complete_cycle", "W_COMPLETE", initial=NO_COMPLETE),
    # Execution latency charged (loads fold the d-cache latency in at
    # execute), then execution results and memory/branch details.
    WindowColumn("latency", "W_LATENCY", initial=1),
    WindowColumn("value", "W_VALUE", "Q"),
    WindowColumn("eff_addr", "W_EFF", "Q"),
    WindowColumn("dcache_latency", "W_DCACHE"),
    WindowColumn("replayed", "W_REPLAYED"),
    WindowColumn("mispredicted", "W_MISPRED"),
    # Issue-port class id (set at issue-queue insertion) and the
    # outstanding-operand count (owned by the issue queue's wakeup).
    WindowColumn("class_id", "W_CLASS"),
    WindowColumn("waiting_ops", "W_WAITING"),
    # The destination physical register, and the previous mapping handed
    # back to the renamer at commit (-1: none).
    WindowColumn("dest_preg", "W_DEST", initial=-1),
    WindowColumn("prev_dest", "W_PREV", initial=-1),
    # Elimination summary for fast commit: 0 when not eliminated, else the
    # kind id (1 move / 2 cf / 3 cse / 4 ra) plus bit 4 set when the
    # eliminated load must re-execute at retire.
    WindowColumn("elim_info", "W_ELIM"),
    # Extra execute latency charged for fused operands (RENO_CF).
    WindowColumn("fusion_extra", "W_FEXTRA"),
    # The flattened renamed source operands.
    WindowColumn("nsrc", "W_NSRC"),
    WindowColumn("src0_preg", "W_S0P"),
    WindowColumn("src0_disp", "W_S0D"),
    WindowColumn("src1_preg", "W_S1P"),
    WindowColumn("src1_disp", "W_S1D"),
    # An eliminated instruction's shared physical register and
    # displacement (its value is ``elim_preg + elim_disp``), which commit
    # checks and re-execution compares against; written only for
    # eliminated slots.
    WindowColumn("elim_preg", "RRE_P"),
    WindowColumn("elim_disp", "RRE_D"),
    # With timing records: the issue cycle, and the seqs that last wrote
    # each source register, then an eliminated instruction's shared
    # destination (-1: no writer; ``nprod`` of them), copied to the record
    # columns at commit.
    WindowColumn("issue_cycle", "W_ISSUE", initial=-1, timed=True),
    WindowColumn("nprod", "W_NPROD", timed=True),
    WindowColumn("prod0", "W_PROD0", timed=True),
    WindowColumn("prod1", "W_PROD1", timed=True),
    WindowColumn("prod2", "W_PROD2", timed=True),
)


class InFlightWindow:
    """Preallocated parallel arrays for every in-flight instruction field.

    Arrays are plain Python lists sized to the next power of two above the
    ROB capacity; the slot of sequence number ``seq`` is ``seq & mask``.
    Each column of :data:`WINDOW_COLUMNS` is one attribute; the slot-reuse
    rules are in the module docstring.
    """

    __slots__ = ("capacity", "size", "mask",
                 *(column.name for column in WINDOW_COLUMNS))

    def __init__(self, capacity: int):
        """Allocate the window for a ROB of ``capacity`` entries, every
        column at its initial value."""
        if capacity < 1:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        size = 1
        while size < capacity:
            size <<= 1
        self.capacity = capacity
        self.size = size
        self.mask = size - 1
        for column in WINDOW_COLUMNS:
            setattr(self, column.name, [column.initial] * size)


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


#: The columns a run writes at commit, in order, each with the compiled
#: kernel's ``TR_*`` output column that holds it.  Each is named after the
#: :class:`TimingRecord` field it holds; ``fetch_cycle`` has no column, as
#: it always equals ``dispatch_cycle``, and ``source_producers`` is split
#: into its length ``nprod`` and the producers ``prod0``..``prod2`` (0
#: beyond ``nprod``).
TIMING_COLUMNS: dict[str, str] = {
    "dispatch_cycle": "TR_DISPATCH", "issue_cycle": "TR_ISSUE",
    "complete_cycle": "TR_COMPLETE", "retire_cycle": "TR_RETIRE",
    "dcache_latency": "TR_DCACHE", "latency": "TR_LATENCY",
    "mispredicted": "TR_MISPRED", "eliminated": "TR_ELIM",
    "nprod": "TR_NPROD", "prod0": "TR_PROD0", "prod1": "TR_PROD1",
    "prod2": "TR_PROD2",
}

#: The columns a trace determines (the opcode and class of each seq).
STATIC_COLUMNS = ("opcode", "is_load", "is_store", "is_branch")

#: Records built per batch (bounds the temporary lists; the records
#: themselves are kept).
_RECORD_CHUNK = 1024


class TimingColumns(Sequence):
    """The timing records of one run, held as columns indexed by ``seq``.

    Every route gives its records in this form: the python loop's per-seq
    columns, a sliced compiled run's copies of the kernel's ``TR_*``
    columns, or a fresh compiled cell's ``TR_*`` buffers themselves (no
    copy), each next to the trace's per-seq static fields
    (:attr:`~repro.uarch.tables.TraceTables.record_columns`).  The
    critical-path walk reads the columns (:meth:`column`); records are
    built only when indexed or iterated (all of them at once, then kept).
    Two compare equal when their columns hold equal values, and one
    pickles as its columns cut to its length, as plain lists.
    """

    __slots__ = ("_columns", "_length", "_records")

    def __init__(self, columns: dict, length: int):
        """Wrap ``length`` records' columns: a dict of name -> column, kept,
        for every name in :data:`TIMING_COLUMNS` and
        :data:`STATIC_COLUMNS`, each at least ``length`` long."""
        self._columns = columns
        self._length = length
        self._records = None

    def column(self, name: str):
        """The column ``name`` (from :data:`TIMING_COLUMNS` or
        :data:`STATIC_COLUMNS`), indexed by seq."""
        return self._columns[name]

    def _plain(self) -> dict[str, list]:
        """Every column as a list of exactly ``len(self)`` values."""
        length = self._length
        return {name: (column[:length].tolist() if isinstance(column, array)
                       else column[:length])
                for name, column in self._columns.items()}

    @property
    def records(self) -> list[TimingRecord]:
        """The records, built from the columns on first use."""
        if self._records is None:
            self._records = records = []
            columns = self._columns
            for first in range(0, self._length, _RECORD_CHUNK):
                last = min(first + _RECORD_CHUNK, self._length)
                (dispatch, issue, complete, retire, dcache, latency,
                 mispredicted, eliminated, counts, prod0, prod1, prod2,
                 opcodes, loads, stores, branches) = (
                    columns[name][first:last]
                    for name in (*TIMING_COLUMNS, *STATIC_COLUMNS))
                records.extend(map(
                    TimingRecord, range(first, last), opcodes, dispatch,
                    dispatch, issue, complete, retire, loads, stores,
                    branches, map(bool, mispredicted), map(bool, eliminated),
                    dcache, latency,
                    [(p0, p1, p2)[:count] for count, p0, p1, p2
                     in zip(counts, prod0, prod1, prod2)]))
        return self._records

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimingColumns):
            return NotImplemented
        return (self._length == other._length
                and self._plain() == other._plain())

    __hash__ = None

    def __reduce__(self):
        """Pickle as the columns, cut to the length."""
        return TimingColumns, (self._plain(), self._length)
