"""Read-only tables derived from one program and from one (program,
functional trace) pair.

A workload block replays one functional trace under several machine and
RENO configurations, and a process replays each shared program in many
blocks.  Everything a pipeline or cell derives from the program and the
trace alone is the same for every cell:

* per program (:class:`ProgramTables`, built once per process for a
  :func:`repro.harness.executors.shared_program`, per call for any other):
  the decoded-op cache (:func:`repro.isa.instruction.decode_program`),
  the initial-memory page image (:func:`repro.functional.memory.page_image`)
  and the kernel's static columns;
* per trace: the decoded op of every trace record (one ``map`` over the
  ``T_SIDX`` column of a column trace, built when a pipeline first asks:
  a fresh compiled cell never does), the per-seq static fields of timing
  records (built when a timed cell first asks) and, for the compiled
  backend, the kernel's trace columns and page pool
  (:class:`repro.uarch.compiled.marshal.KernelTables`, built on first use;
  it adopts a column trace's columns instead of copying them).

:class:`TraceTables` builds these once, and every pipeline of the block
shares them.  Sharing is safe because nothing writes them: pipelines only
index ``decoded`` and ``trace_ops``, each pipeline's
:class:`~repro.functional.memory.Memory` copies the page image, each cell
copies the page pool, and the kernel only reads its static columns.  The
trace tables live exactly as long as their owner holds them —
:func:`repro.harness.executors.run_workload_block` drops them when the
block ends, in every executor — and no outcome refers to them.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Sequence
from operator import attrgetter

from repro.functional.memory import page_image
from repro.functional.trace import DynamicInstruction, TraceColumns
from repro.isa.instruction import DF_CONTROL, DF_LOAD, DF_STORE, decode_program
from repro.isa.program import Program
from repro.uarch.compiled import build
from repro.uarch.inflight import STATIC_COLUMNS


class ProgramTables:
    """The shared, read-only tables of one program: its decoded ops, its
    page image and sorted page numbers, and the kernel's columns, built
    when first asked for (:attr:`static`, :attr:`functional`)."""

    __slots__ = ("program", "decoded", "memory_image", "pages", "_static",
                 "_functional", "__weakref__")

    def __init__(self, program: Program):
        self.program = program
        self.decoded = decode_program(program.instructions)
        self.memory_image = page_image(program.initial_memory)
        self.pages = sorted(self.memory_image)
        self._static = self._functional = None

    @property
    def static(self) -> dict[str, array]:
        """The ``S_*`` columns (:func:`repro.uarch.compiled.marshal.static_columns`),
        empty when the program does not fit them."""
        if self._static is None:
            from repro.uarch.compiled import marshal
            try:
                self._static = marshal.static_columns(self.decoded)
            except marshal.MarshalError:
                self._static = {}
        return self._static

    @property
    def functional(self) -> dict[str, array] | None:
        """The columns ``repro_functional`` reads
        (:func:`repro.uarch.compiled.functional.program_columns`), None when
        the program does not fit them."""
        if self._functional is None and self.static:
            from repro.uarch.compiled import functional
            self._functional = functional.program_columns(self)
        return self._functional


#: ``id(program) -> ProgramTables`` of each shared program, held alive by
#: its :func:`repro.harness.executors.shared_program` memo slot.
_shared: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def share_program_tables(program: Program) -> ProgramTables:
    """New tables that :func:`program_tables` serves for ``program`` as long
    as the caller holds them."""
    tables = _shared[id(program)] = ProgramTables(program)
    return tables


def program_tables(program: Program) -> ProgramTables:
    """The shared tables of ``program``, else new ones for this caller.
    An entry holds its program, so a recycled ``id`` fails the identity
    check instead of serving another program's tables."""
    tables = _shared.get(id(program))
    if tables is None or tables.program is not program:
        return ProgramTables(program)
    return tables


class TraceTables:
    """The shared, read-only tables of one (program, trace) pair.

    Attributes:
        program: The assembled program.
        trace: The functional trace the tables were built from.
        shared: The program's :class:`ProgramTables`.
        decoded: Decoded-op tuple per static instruction.
        memory_image: Page number -> initial page bytes.
        kernel: The compiled backend's static columns, or None until a
            compiled pipeline first asks for them.
    """

    __slots__ = ("program", "trace", "shared", "decoded", "memory_image",
                 "kernel", "_trace_ops", "_record_columns")

    def __init__(self, program: Program,
                 trace: Sequence[DynamicInstruction]):
        """Adopt the tables of ``program`` next to those of ``trace``."""
        self.program = program
        self.trace = trace
        self.shared = program_tables(program)
        self.decoded = self.shared.decoded
        self.memory_image = self.shared.memory_image
        self.kernel = None
        self._trace_ops = None
        self._record_columns = None

    def _static_indices(self):
        """The static instruction index of every trace record."""
        trace = self.trace
        if isinstance(trace, TraceColumns):
            return trace.arrays["T_SIDX"]
        return array("q", map(attrgetter("index"), trace))

    @property
    def trace_ops(self) -> list[tuple]:
        """Decoded-op tuple per trace record (``decoded[dyn.index]``),
        built on first use (only a pipeline reads it)."""
        if self._trace_ops is None:
            self._trace_ops = list(map(self.decoded.__getitem__,
                                       self._static_indices()))
        return self._trace_ops

    @property
    def record_columns(self) -> dict[str, array | list]:
        """Name -> column by seq for each of
        :data:`~repro.uarch.inflight.STATIC_COLUMNS`, built on first use by
        a timed cell and shared by the timing columns of every timed cell
        on this trace.

        With the kernel library, ``repro_gather`` fills them from ``S_*``
        as ``array('q')`` (opcode ids, 0/1 flags); else they are lists of
        opcode values and bools.  ``TimingColumns`` reads both alike."""
        if self._record_columns is None:
            indices = self._static_indices()
            gather = build.load_gather()
            static = self.shared.static if gather is not None else None
            if static:
                columns = [array("q", bytes(8 * len(indices)))
                           for _ in STATIC_COLUMNS]
                build.call(gather, [len(indices)], [
                    indices, static["S_OPC"], static["S_FLAGS"], *columns])
            else:
                decoded = self.decoded
                columns = [list(map(values.__getitem__, indices)) for values
                           in ([op[6].value for op in decoded],
                               [bool(op[0] & DF_LOAD) for op in decoded],
                               [bool(op[0] & DF_STORE) for op in decoded],
                               [bool(op[0] & DF_CONTROL) for op in decoded])]
            self._record_columns = dict(zip(STATIC_COLUMNS, columns))
        return self._record_columns
