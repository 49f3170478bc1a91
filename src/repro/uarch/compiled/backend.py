"""The ``compiled`` backend: generated-C kernel behind the backend protocol.

A cell takes one of two routes into the kernel:

* **Fresh cell** (:meth:`CompiledBackend.run_fresh`, every
  :func:`~repro.core.simulator.simulate` call): the kernel starts from
  the cell's :class:`~repro.uarch.compiled.fresh.FreshImage` and the
  result, timing records and occupancy included, is read out of the
  buffers; no pipeline is built.
* **Sliced pipeline** (:meth:`CompiledBackend.run_cycles`): every slice
  of a sliced or snapshotted run runs in three phases —
  :meth:`~repro.uarch.compiled.marshal.KernelState.marshal_in`
  (pipeline → flat buffers, side-effect free), one call into the cached
  shared object, and marshal-out.

Both keep one failure rule.  A cell or slice runs on the python loop
only when declined before the kernel starts, by
:meth:`CompiledBackend.supports` or the check over the trace's tables it
shares (:attr:`~repro.uarch.compiled.marshal.KernelTables.fits`).  Once
the kernel has started, a nonzero return replays that cell or slice once
on the python loop (:func:`~repro.uarch.compiled.marshal.kernel_failed`):
a real simulation error, like a ``max_cycles`` overrun, raises the python
loop's own exception, and a replay that finishes raises
:class:`~repro.uarch.compiled.marshal.KernelError`, as does a live state
that exceeds the kernel's buffers at marshal-in.  No result ever comes
from a replay, so a kernel fault cannot hide as a slowdown.
"""

from __future__ import annotations

import ctypes
import weakref

from repro.uarch.backend import CycleLoopBackend, get_backend
from repro.uarch.compiled import build, fresh
from repro.uarch.compiled.emit import ERR_OK
from repro.uarch.compiled.marshal import (
    KernelState,
    KernelTables,
    kernel_failed,
)


class CompiledBackend(CycleLoopBackend):
    """Runs the cycle loop in a generated, disk-cached C shared object."""

    name = "compiled"

    def __init__(self):
        """Set up the per-pipeline marshal-state cache."""
        #: Pipeline -> KernelState.  Weak keys: a state holds only flat
        #: buffers + geometry, and dies with its pipeline.
        self._states: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def available(self) -> bool:
        """Whether the kernel can be (or already is) compiled and loaded."""
        return build.load_kernel() is not None

    def supports(self, pipeline) -> bool:
        """Whether this pipeline's feature set is covered by the kernel.

        The kernel lowers the production configuration space: the stock
        issue queue, the stock renamers, the occupancy histograms and
        timing-record collection.  Timeline sampling interposes a Python
        callback mid-cycle, subclassed components can override arbitrary
        behaviour, and a program with an immediate outside int64 has no
        static columns (:attr:`KernelTables.fits`, which a fresh cell
        checks too) — those pipelines run on the reference loop.
        """
        from repro.core.renamer import RenoRenamer
        from repro.uarch.rename import BaselineRenamer
        from repro.uarch.scheduler import IssueQueue

        if pipeline.timeline_stride > 0:
            return False
        if type(pipeline.issue_queue) is not IssueQueue:
            return False
        if type(pipeline.renamer) not in (BaselineRenamer, RenoRenamer):
            return False
        return KernelTables.of(pipeline.tables).fits

    def prepare(self, pipeline) -> None:
        """Build this pipeline's flat ABI buffers before its first slice.

        Called from ``Pipeline.__init__``, so its cost is part of every
        sliced run and image capture, and again from ``Pipeline.restore``:
        the buffers' geometry and renaming mode follow the restored
        renamer, which need not be the constructor's.  The static trace
        columns are built once per trace and shared through
        ``pipeline.tables``; per pipeline this only writes the geometry and
        allocates the dynamic buffers.  Also forces the one-time kernel
        compile/load.
        """
        if build.load_kernel() is not None and self.supports(pipeline):
            self._states[pipeline] = KernelState(pipeline)

    def run_cycles(self, pipeline, stop_cycle) -> None:
        """Run one slice in the kernel, or on the reference loop when
        :meth:`supports` declines the pipeline; a nonzero kernel return
        replays the slice there under the failure rule, which raises."""
        kernel = build.load_kernel()
        if kernel is None or not self.supports(pipeline):
            pipeline._run_cycles(stop_cycle)
            return
        state = self._states.get(pipeline)
        if state is None:
            state = self._states[pipeline] = KernelState(pipeline)
        state.marshal_in(pipeline, stop_cycle)
        sc_ptr = ctypes.cast(
            state.sc.buffer_info()[0], ctypes.POINTER(ctypes.c_int64))
        code = kernel(sc_ptr, state.pt, state.pool.view)
        if code != ERR_OK:
            kernel_failed(code, lambda: pipeline._run_cycles(stop_cycle))
        state.marshal_out(pipeline)

    def run_fresh(self, program, trace, tables, machine, reno,
                  collect_timing: bool = False, record_stats: bool = False):
        """Run one whole cell (see :meth:`fresh_pipeline`) in the kernel
        without building a pipeline, validating the configurations as a
        pipeline would.  A cell whose tables do not fit the kernel (or
        belong to another trace, which a pipeline refuses) takes the
        pipeline route.

        Returns:
            The cell's :class:`~repro.uarch.core.SimResult`, equal to a
            pipeline's (timing records as
            :class:`~repro.uarch.inflight.TimingColumns`).
        """
        kernel = build.load_kernel()
        if (kernel is None or tables.program is not program
                or tables.trace is not trace
                or not KernelTables.of(tables).fits):
            return super().run_fresh(program, trace, tables, machine, reno,
                                     collect_timing, record_stats)
        if reno is not None:
            reno.validate()
        machine.validate()
        cell = (program, trace, tables, machine, reno, collect_timing,
                record_stats)
        image = fresh.image_of(
            machine, reno, collect_timing, record_stats,
            lambda: fresh.FreshImage(self._marshal_fresh(*cell), tables))
        return fresh.run_cell(kernel, image, tables, machine,
                              lambda: get_backend("python").run_fresh(*cell))

    def _marshal_fresh(self, *cell) -> KernelState:
        """The marshalled-in state of a cell's fresh pipeline (the pipeline
        itself is dropped)."""
        pipeline = self.fresh_pipeline(*cell)
        state = self._states[pipeline]
        state.marshal_in(pipeline, None)
        return state
