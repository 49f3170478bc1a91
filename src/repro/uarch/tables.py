"""Read-only tables derived from one (program, functional trace) pair.

A workload block replays one functional trace under several machine and
RENO configurations.  Everything a pipeline derives from the program and
the trace alone is the same for every cell of that block:

* per program: the decoded-op cache (:func:`repro.isa.instruction.decode_program`)
  and the initial-memory page image (:func:`repro.functional.memory.page_image`);
* per trace: the decoded op of every trace record and, for the compiled
  backend, the kernel's trace and decoded-op columns
  (:class:`repro.uarch.compiled.marshal.KernelTables`, built on first use).

:class:`TraceTables` builds these once, and every pipeline of the block
shares them.  Sharing is safe because nothing writes them: pipelines only
index ``decoded`` and ``trace_ops``, each pipeline's
:class:`~repro.functional.memory.Memory` copies the page image, and the
kernel only reads its static columns.  The tables live exactly as long as
their owner holds them — :func:`repro.harness.executors.run_workload_block`
drops them when the block ends — and no outcome refers to them.
"""

from __future__ import annotations

from operator import attrgetter

from repro.functional.memory import page_image
from repro.functional.trace import DynamicInstruction
from repro.isa.instruction import decode_program
from repro.isa.program import Program


class TraceTables:
    """The shared, read-only tables of one (program, trace) pair.

    Attributes:
        program: The assembled program.
        trace: The functional trace the tables were built from.
        decoded: Decoded-op tuple per static instruction.
        trace_ops: Decoded-op tuple per trace record (``decoded[dyn.index]``).
        memory_image: Page number -> initial page bytes.
        kernel: The compiled backend's static columns, or None until a
            compiled pipeline first asks for them.
    """

    __slots__ = ("program", "trace", "decoded", "trace_ops",
                 "memory_image", "kernel")

    def __init__(self, program: Program, trace: list[DynamicInstruction]):
        """Derive every table a pipeline needs from ``program`` and ``trace``."""
        self.program = program
        self.trace = trace
        self.decoded = decode_program(program.instructions)
        self.trace_ops = list(map(self.decoded.__getitem__,
                                  map(attrgetter("index"), trace)))
        self.memory_image = page_image(program.initial_memory)
        self.kernel = None
