"""Checkpointable pipeline state: exact snapshot/restore of a timing run.

A :class:`PipelineSnapshot` captures every piece of *mutable* simulation
state of a :class:`~repro.uarch.core.Pipeline` — the in-flight window
arrays, renamer (map table, free list, refcounts, integration table),
branch predictors, cache hierarchy, store sets, load/store queues, issue
queue (waiters, wakeup heap, ready lists), physical register file, memory
image, statistics and the front-end cursors — as one deep copy whose
internal aliasing is preserved (the issue queue keeps pointing at *the
copied* window, the RENO renamer's free list stays its refcounts' free
list, and so on).

What a snapshot deliberately does **not** carry are the immutable run
inputs: the program, the dynamic trace, the machine configuration and the
decoded-op caches.  Restoring therefore requires a pipeline constructed
from the same (program, trace, config) triple; the snapshot records their
fingerprints and :meth:`PipelineSnapshot.validate_for` refuses a mismatch.
This keeps checkpoints proportional to the *architected state*, not the
trace length, which is what lets a long simulation be time-sliced by a
service and parked on disk between slices.

Exactness contract: ``run(max_cycles=k)`` → ``snapshot()`` → (new pipeline)
→ ``restore()`` → ``run()`` produces results byte-identical to a single
uninterrupted ``run()`` — the same statistics, final registers and timing
records.  The property tests in ``tests/uarch/test_snapshot_restore.py``
enforce this cycle-for-cycle on seeded random programs for both the
conventional and the RENO renamer.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from pathlib import Path

#: Bump whenever the snapshot payload layout changes incompatibly.
#: v2: timing state in the kernel's layout (``timing_columns``, a
#: ``_preg_writer`` list, the window's producer fields) replaced the record
#: list and the ``_preg_writer``/``_producers`` dicts.
#: v3: the window holds only int columns (``elim_preg``/``elim_disp``
#: replaced the per-slot ``RenameResult`` objects, the decoded-op tuples
#: are read from the trace's tables), and the ``ReorderBuffer`` is gone.
SNAPSHOT_VERSION = 3


class SnapshotError(Exception):
    """A snapshot cannot be applied: wrong version or mismatched run inputs."""


@dataclass
class PipelineSnapshot:
    """One checkpoint of a pipeline's mutable state (see module docstring).

    Attributes:
        state: Deep-copied attribute dictionary (internal aliasing intact).
        config_digest: :meth:`MachineConfig.digest` of the source pipeline.
        trace_length: Dynamic instruction count of the source trace.
        collect_timing: Whether the source run collected timing records.
        cycle: Simulated cycle count at capture time (informational).
        committed: Instructions retired at capture time (informational).
        version: :data:`SNAPSHOT_VERSION` at capture time.
        record_stats: Whether the source run recorded occupancy histograms
            (the histograms themselves travel inside ``state``).
        timeline_stride: The source run's timeline sampling stride
            (0 = no timeline recorder).
    """

    state: dict
    config_digest: str
    trace_length: int
    collect_timing: bool
    cycle: int
    committed: int
    version: int = SNAPSHOT_VERSION
    record_stats: bool = False
    timeline_stride: int = 0

    @property
    def finished(self) -> bool:
        """Whether the captured run had already retired every instruction."""
        return self.committed >= self.trace_length

    def validate_for(self, pipeline) -> None:
        """Raise :class:`SnapshotError` unless ``pipeline`` matches this
        snapshot's run inputs (config digest, trace length, timing mode)."""
        if self.version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {self.version} != supported {SNAPSHOT_VERSION}"
            )
        digest = pipeline.config.digest()
        if self.config_digest != digest:
            raise SnapshotError(
                f"snapshot was taken under machine config {self.config_digest[:12]}…, "
                f"pipeline has {digest[:12]}…"
            )
        if self.trace_length != pipeline._trace_length:
            raise SnapshotError(
                f"snapshot covers a {self.trace_length}-instruction trace, "
                f"pipeline has {pipeline._trace_length}"
            )
        if self.collect_timing != pipeline.collect_timing:
            raise SnapshotError(
                f"snapshot collect_timing={self.collect_timing}, "
                f"pipeline collect_timing={pipeline.collect_timing}"
            )
        # Observability modes must match too (getattr: snapshots pickled
        # before these fields existed read as the off defaults).
        record_stats = getattr(self, "record_stats", False)
        if record_stats != pipeline.record_stats:
            raise SnapshotError(
                f"snapshot record_stats={record_stats}, "
                f"pipeline record_stats={pipeline.record_stats}"
            )
        timeline_stride = getattr(self, "timeline_stride", 0)
        if timeline_stride != pipeline.timeline_stride:
            raise SnapshotError(
                f"snapshot timeline_stride={timeline_stride}, "
                f"pipeline timeline_stride={pipeline.timeline_stride}"
            )

    def copy_state(self) -> dict:
        """A fresh deep copy of the state (so one snapshot restores many times)."""
        return copy.deepcopy(self.state)

    # ------------------------------------------------------------------
    # Disk checkpoints
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Pickle the snapshot to ``path`` atomically (write + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        with temp.open("wb") as handle:
            pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
        temp.replace(path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PipelineSnapshot":
        """Inverse of :meth:`save` (raises :class:`SnapshotError` on junk)."""
        try:
            with Path(path).open("rb") as handle:
                snapshot = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as error:
            raise SnapshotError(f"cannot load checkpoint {path}: {error}") from error
        if not isinstance(snapshot, cls):
            raise SnapshotError(f"checkpoint {path} holds {type(snapshot).__name__}, "
                                f"not a PipelineSnapshot")
        return snapshot
