"""The ``compiled`` backend: generated-C kernel behind the backend protocol.

A slice runs in three phases — :meth:`~repro.uarch.compiled.marshal.KernelState.marshal_in`
(pipeline → flat buffers, side-effect free), one call into the cached
shared object, and marshal-out on success.  Any failure at any phase
(no toolchain, unsupported pipeline feature, un-marshalable state, or a
nonzero kernel return, which covers both real simulation errors like a
commit mismatch and internal give-ups like a wakeup-ring collision)
delegates the *same* slice to the python reference loop, so the observable
behaviour — results, statistics, exceptions — is always exactly the
reference's.
"""

from __future__ import annotations

import ctypes
import weakref

from repro.uarch.backend import CycleLoopBackend
from repro.uarch.compiled import build
from repro.uarch.compiled.emit import ERR_OK
from repro.uarch.compiled.marshal import KernelState, MarshalError


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
        timing-record collection (``collect_timing``; marshal-out builds
        the records from the kernel's per-seq columns).  Timeline sampling
        interposes a Python callback mid-cycle, and subclassed components
        can override arbitrary behaviour — those pipelines run on the
        reference loop.
        """
        from repro.core.renamer import RenoRenamer
        from repro.uarch.rename import BaselineRenamer
        from repro.uarch.scheduler import IssueQueue

        if pipeline.timeline_stride > 0:
            return False
        if type(pipeline.issue_queue) is not IssueQueue:
            return False
        return type(pipeline.renamer) in (BaselineRenamer, RenoRenamer)

    def prepare(self, pipeline) -> None:
        """Build this pipeline's flat ABI buffers before its first slice.

        Called from ``Pipeline.__init__``, so its cost is part of every
        simulated cell (and of every request that simulates one).  The
        static trace columns are built once per trace and shared through
        ``pipeline.tables``; per cell this only writes the geometry and
        allocates the dynamic buffers.  Also forces the one-time kernel
        compile/load.
        """
        if build.load_kernel() is None or not self.supports(pipeline):
            return
        self._states[pipeline] = KernelState(pipeline)

    def run_cycles(self, pipeline, stop_cycle) -> None:
        """Run one slice in the kernel, or delegate it to the reference.

        Every fallback path re-runs the *identical* slice on
        ``pipeline._run_cycles`` — marshal-in never mutates the pipeline
        and the kernel only ever writes the flat buffers, so a failed
        attempt leaves no trace.
        """
        kernel = build.load_kernel()
        if kernel is None or not self.supports(pipeline):
            pipeline._run_cycles(stop_cycle)
            return
        state = self._states.get(pipeline)
        if state is None:
            state = KernelState(pipeline)
            self._states[pipeline] = state
        try:
            state.marshal_in(pipeline, stop_cycle)
        except MarshalError:
            pipeline._run_cycles(stop_cycle)
            return
        sc_ptr = ctypes.cast(
            state.sc.buffer_info()[0], ctypes.POINTER(ctypes.c_int64))
        code = kernel(sc_ptr, state.pt, state.pool.view)
        if code == ERR_OK:
            state.marshal_out(pipeline)
        else:
            # Max-cycles overruns and commit mismatches raise from here
            # with the reference's exact exception; ERR_INTERNAL simply
            # runs the slice at reference speed.
            pipeline._run_cycles(stop_cycle)
