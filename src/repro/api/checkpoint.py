"""Time-sliced simulation: run a pipeline in bounded slices with checkpoints.

This is a thin layer over the incremental simulation API
(:meth:`repro.uarch.core.Pipeline.run` with ``max_cycles=``,
:meth:`~repro.uarch.core.Pipeline.snapshot` /
:meth:`~repro.uarch.core.Pipeline.restore`): a long simulation advances a
bounded number of cycles at a time — yielding the thread between slices and
optionally parking a :class:`~repro.uarch.snapshot.PipelineSnapshot` on
disk — and can be resumed later, in the same process or a new one, with
results byte-identical to an uninterrupted run.  Nothing else in the
package calls it: fleet workers run whole workload blocks
(:func:`repro.harness.executors.run_workload_block`) and resume at cell
granularity through the result store.

Typical shapes::

    # Bound each scheduling quantum, checkpointing every slice.
    result = run_sliced(pipeline, slice_cycles=50_000,
                        checkpoint_path="run.ckpt")

    # Crash recovery: rebuild the pipeline from the same inputs, resume.
    pipeline = Pipeline(program, trace, config, renamer=renamer)
    result = resume_sliced(pipeline, "run.ckpt", slice_cycles=50_000)
"""

from __future__ import annotations

from pathlib import Path

from repro.uarch.core import Pipeline, SimResult
from repro.uarch.snapshot import PipelineSnapshot


def run_sliced(
    pipeline: Pipeline,
    slice_cycles: int,
    checkpoint_path: str | Path | None = None,
    on_slice=None,
    max_slices: int | None = None,
) -> SimResult:
    """Run ``pipeline`` to completion in ``slice_cycles``-cycle slices.

    Args:
        pipeline: The pipeline to drive (fresh or previously restored).
        slice_cycles: Cycle budget per slice (>= 1).
        checkpoint_path: When given, a snapshot is saved there (atomically)
            after every unfinished slice and the file is removed on
            completion.
        on_slice: Optional callback ``on_slice(pipeline, partial_result)``
            after every slice — the progress/cancellation hook (raise to
            abort; the last checkpoint stays on disk).
        max_slices: Optional bound on slices to run in this call; when the
            budget ends early the (unfinished) partial result is returned.

    Returns:
        The final :class:`~repro.uarch.core.SimResult` — byte-identical to
        ``pipeline.run()`` in one piece — or a partial result when
        ``max_slices`` expired first (``result.finished`` is False then).
    """
    if slice_cycles < 1:
        raise ValueError(f"slice_cycles must be >= 1, got {slice_cycles}")
    slices = 0
    while True:
        result = pipeline.run(max_cycles=slice_cycles)
        slices += 1
        if not result.finished and checkpoint_path is not None:
            pipeline.snapshot().save(checkpoint_path)
        if on_slice is not None:
            on_slice(pipeline, result)
        if result.finished:
            if checkpoint_path is not None:
                Path(checkpoint_path).unlink(missing_ok=True)
            return result
        if max_slices is not None and slices >= max_slices:
            return result


def resume_sliced(
    pipeline: Pipeline,
    checkpoint_path: str | Path,
    slice_cycles: int,
    **kwargs,
) -> SimResult:
    """Restore ``pipeline`` from a disk checkpoint and continue slicing.

    ``pipeline`` must be constructed from the same (program, trace, config,
    collect_timing) inputs that produced the checkpoint
    (:meth:`PipelineSnapshot.validate_for` enforces this).  Remaining
    keyword arguments are forwarded to :func:`run_sliced`.
    """
    snapshot = PipelineSnapshot.load(checkpoint_path)
    pipeline.restore(snapshot)
    return run_sliced(pipeline, slice_cycles,
                      checkpoint_path=checkpoint_path, **kwargs)
