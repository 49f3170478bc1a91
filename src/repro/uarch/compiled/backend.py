"""The ``compiled`` backend: generated-C kernel behind the backend protocol.

The kernel runs whole cells only (:meth:`CompiledBackend.run_fresh`, every
:func:`~repro.core.simulator.simulate` call): it starts from the cell's
:class:`~repro.uarch.compiled.fresh.FreshImage` and the result, timing
records and occupancy included, is read out of the buffers; no pipeline
is built.  A pipeline on this backend exists only to be captured into an
image, so ``Pipeline.run()`` on one raises instead of running the python
loop under the ``compiled`` label.

One failure rule.  A cell runs on the python backend only when declined
before the kernel starts: there is no kernel, the program does not fit
its static columns (:attr:`~repro.uarch.compiled.marshal.KernelTables.fits`)
or the tables belong to another trace.  Once the kernel has started, a
nonzero return replays the cell once on the python loop
(:func:`~repro.uarch.compiled.marshal.kernel_failed`): a real simulation
error, like a ``max_cycles`` overrun, raises the python loop's own
exception, and a replay that finishes raises
:class:`~repro.uarch.compiled.marshal.KernelError`.  No result ever comes
from a replay, so a kernel fault cannot hide as a slowdown.
"""

from __future__ import annotations

from repro.uarch.backend import CycleLoopBackend, get_backend
from repro.uarch.compiled import build, fresh
from repro.uarch.compiled.marshal import KernelState, KernelTables


class CompiledBackend(CycleLoopBackend):
    """Runs whole cells in a generated, disk-cached C shared object."""

    name = "compiled"

    def available(self) -> bool:
        """Whether the kernel can be (or already is) compiled and loaded."""
        return build.load_kernel() is not None

    # Defined here only because perfbench/spans.py patches it by name.
    def supports(self, pipeline) -> bool:
        """Whether ``pipeline`` runs in the kernel: none does, since the
        kernel runs whole cells only (:meth:`run_fresh`)."""
        return False

    # Defined here only because perfbench/spans.py patches it by name.
    def prepare(self, pipeline) -> None:
        """Nothing to prepare: a kernel cell starts from its image."""

    # Defined here only because perfbench/spans.py patches it by name.
    def run_cycles(self, pipeline) -> None:
        """Refuse: the kernel runs whole cells only, through
        :meth:`run_fresh` (or ``simulate(backend="compiled")``)."""
        raise RuntimeError(
            "the compiled backend runs whole cells only, through "
            "CompiledBackend.run_fresh (simulate(backend='compiled')); "
            "build the pipeline with backend='python' to run it")

    def run_fresh(self, program, trace, tables, machine, reno,
                  collect_timing: bool = False, record_stats: bool = False):
        """Run one whole cell (see :meth:`fresh_pipeline`) in the kernel
        without building a pipeline, validating the configurations as a
        pipeline would.  A declined cell (no kernel, tables that do not
        fit it or belong to another trace, which a pipeline refuses) runs
        on the python backend.

        Returns:
            The cell's :class:`~repro.uarch.core.SimResult`, equal to the
            python loop's (timing records as
            :class:`~repro.uarch.inflight.TimingColumns`).
        """
        cell = (program, trace, tables, machine, reno, collect_timing,
                record_stats)
        python = get_backend("python")
        kernel = build.load_kernel()
        if (kernel is None or tables.program is not program
                or tables.trace is not trace
                or not KernelTables.of(tables).fits):
            return python.run_fresh(*cell)
        if reno is not None:
            reno.validate()
        machine.validate()
        image = fresh.image_of(
            machine, reno, collect_timing, record_stats,
            lambda: fresh.FreshImage(self._marshal_fresh(*cell), tables))
        return fresh.run_cell(kernel, image, tables, machine,
                              lambda: python.run_fresh(*cell))

    def _marshal_fresh(self, *cell) -> KernelState:
        """The marshalled-in state of a cell's fresh pipeline (the pipeline
        itself is dropped)."""
        pipeline = self.fresh_pipeline(*cell)
        state = KernelState(pipeline)
        state.marshal_in(pipeline)
        return state
