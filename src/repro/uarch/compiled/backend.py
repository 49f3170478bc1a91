"""The ``compiled`` backend: generated-C kernel behind the backend protocol.

A cell takes one of three routes:

* **Fresh cell** (:meth:`CompiledBackend.run_fresh`): a cell that records
  no timing and no occupancy and runs to completion starts the kernel
  from its configurations' :class:`~repro.uarch.compiled.fresh.FreshImage`
  and reads its result out of the buffers; no pipeline is built.
* **Sliced pipeline** (:meth:`CompiledBackend.run_cycles`): every other
  cell, and every slice of a sliced or snapshotted run, runs in three
  phases — :meth:`~repro.uarch.compiled.marshal.KernelState.marshal_in`
  (pipeline → flat buffers, side-effect free), one call into the cached
  shared object, and marshal-out on success.
* **Python reference**: any failure (no toolchain, an unsupported
  pipeline feature, un-marshalable state, or a nonzero kernel return,
  which covers both real simulation errors like a commit mismatch and
  internal give-ups like a wakeup-ring collision) delegates the *same*
  slice to the python reference loop; a fresh cell that fails returns
  None and its caller takes the pipeline route.  The observable
  behaviour — results, statistics, exceptions — is always exactly the
  reference's.
"""

from __future__ import annotations

import ctypes
import weakref

from repro.uarch.backend import CycleLoopBackend
from repro.uarch.compiled import build, fresh
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
        cell that takes the pipeline route (and of every request that
        simulates one; a fresh cell builds no pipeline).  The
        static trace columns are built once per trace and shared through
        ``pipeline.tables``; per cell this only writes the geometry and
        allocates the dynamic buffers.  Also forces the one-time kernel
        compile/load.
        """
        if build.load_kernel() is None or not self.supports(pipeline):
            return
        try:
            self._states[pipeline] = KernelState(pipeline)
        except MarshalError:    # run_cycles replays every slice in python
            pass

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
        try:
            if state is None:
                state = self._states[pipeline] = KernelState(pipeline)
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

    def run_fresh(self, program, trace, tables, machine, reno):
        """Run one whole unobserved cell without building a pipeline.

        The cell is ``program`` replaying ``trace`` (whose
        :class:`~repro.uarch.tables.TraceTables` are ``tables``) on
        ``machine`` with the stock issue queue and the baseline renamer,
        or a :class:`~repro.core.renamer.RenoRenamer` when ``reno`` is
        given, recording no timing and no occupancy.  The configurations
        are validated as a pipeline would validate them.

        Returns:
            The cell's :class:`~repro.uarch.core.SimResult`, or None when
            the kernel is unavailable, the tables belong to another trace,
            a column has no kernel representation, or the kernel returns
            an error; the caller then runs the cell on a pipeline, which
            reproduces the reference's result or exception.
        """
        kernel = build.load_kernel()
        if (kernel is None or tables.program is not program
                or tables.trace is not trace):
            return None
        if reno is not None:
            reno.validate()
        machine.validate()
        try:
            image = fresh.image_of(machine, reno, lambda: fresh.FreshImage(
                self._marshal_fresh(program, trace, tables, machine, reno),
                tables))
            return fresh.run_cell(kernel, image, tables, machine)
        except MarshalError:
            return None

    def _marshal_fresh(self, program, trace, tables, machine, reno):
        """The marshalled-in state of a freshly constructed pipeline (the
        pipeline itself is dropped)."""
        from repro.core.renamer import RenoRenamer
        from repro.uarch.core import Pipeline

        renamer = (RenoRenamer(machine.num_physical_regs, reno)
                   if reno is not None else None)
        pipeline = Pipeline(program, trace, machine, renamer=renamer,
                            backend=self, tables=tables)
        state = self._states.get(pipeline)
        if state is None:
            raise MarshalError("the pipeline has no kernel state")
        state.marshal_in(pipeline, None)
        return state
