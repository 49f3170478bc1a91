"""Read-only tables derived from one (program, functional trace) pair.

A workload block replays one functional trace under several machine and
RENO configurations.  Everything a pipeline derives from the program and
the trace alone is the same for every cell of that block:

* per program: the decoded-op cache (:func:`repro.isa.instruction.decode_program`)
  and the initial-memory page image (:func:`repro.functional.memory.page_image`;
  a trace from the compiled functional run carries the image it started
  from, so the block builds it once);
* per trace: the decoded op of every trace record (one ``map`` over the
  ``T_SIDX`` column of a column trace, built when a pipeline first asks:
  a fresh compiled cell never does), the per-seq static fields of timing
  records (built when a timed cell first asks) and, for the compiled
  backend, the
  kernel's trace and decoded-op columns
  (:class:`repro.uarch.compiled.marshal.KernelTables`, built on first use;
  it adopts a column trace's columns instead of copying them).

:class:`TraceTables` builds these once, and every pipeline of the block
shares them.  Sharing is safe because nothing writes them: pipelines only
index ``decoded`` and ``trace_ops``, each pipeline's
:class:`~repro.functional.memory.Memory` copies the page image, and the
kernel only reads its static columns.  The tables live exactly as long as
their owner holds them — :func:`repro.harness.executors.run_workload_block`
drops them when the block ends, a fleet worker when its trace memo evicts
the trace — and no outcome refers to them.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter

from repro.functional.memory import page_image
from repro.functional.trace import DynamicInstruction, TraceColumns
from repro.isa.instruction import DF_CONTROL, DF_LOAD, DF_STORE, decode_program
from repro.isa.program import Program
from repro.uarch.inflight import STATIC_COLUMNS


class TraceTables:
    """The shared, read-only tables of one (program, trace) pair.

    Attributes:
        program: The assembled program.
        trace: The functional trace the tables were built from.
        decoded: Decoded-op tuple per static instruction.
        memory_image: Page number -> initial page bytes.
        kernel: The compiled backend's static columns, or None until a
            compiled pipeline first asks for them.
    """

    __slots__ = ("program", "trace", "decoded", "memory_image", "kernel",
                 "_trace_ops", "_record_columns")

    def __init__(self, program: Program,
                 trace: Sequence[DynamicInstruction]):
        """Derive every table a pipeline needs from ``program`` and ``trace``."""
        self.program = program
        self.trace = trace
        self.decoded = decode_program(program.instructions)
        image = (trace.memory_image if isinstance(trace, TraceColumns)
                 else None)
        self.memory_image = (page_image(program.initial_memory)
                             if image is None else image)
        self.kernel = None
        self._trace_ops = None
        self._record_columns = None

    def _static_indices(self):
        """The static instruction index of every trace record."""
        trace = self.trace
        if isinstance(trace, TraceColumns):
            return trace.arrays["T_SIDX"].tolist()
        return list(map(attrgetter("index"), trace))

    @property
    def trace_ops(self) -> list[tuple]:
        """Decoded-op tuple per trace record (``decoded[dyn.index]``),
        built on first use (only a pipeline reads it)."""
        if self._trace_ops is None:
            self._trace_ops = list(map(self.decoded.__getitem__,
                                       self._static_indices()))
        return self._trace_ops

    @property
    def record_columns(self) -> dict[str, list]:
        """Name -> column by seq for each of
        :data:`~repro.uarch.inflight.STATIC_COLUMNS` (opcode value,
        is_load, is_store, is_branch), built on first use by a timed cell
        and shared by the timing columns of every timed cell on this
        trace."""
        if self._record_columns is None:
            decoded = self.decoded
            by_static = ([op[6].value for op in decoded],
                         [bool(op[0] & DF_LOAD) for op in decoded],
                         [bool(op[0] & DF_STORE) for op in decoded],
                         [bool(op[0] & DF_CONTROL) for op in decoded])
            indices = self._static_indices()
            self._record_columns = {
                name: list(map(values.__getitem__, indices))
                for name, values in zip(STATIC_COLUMNS, by_static)}
        return self._record_columns
