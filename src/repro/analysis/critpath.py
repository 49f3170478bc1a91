"""Critical-path analysis (a simplified Fields-style model, §4.3 / Figure 9).

The timing pipeline can record one :class:`~repro.uarch.inflight.TimingRecord`
per retired instruction.  This module walks the dependence structure backwards
from the last retired instruction, at each step following the constraint that
actually determined the instruction's completion time:

* a *data* edge to the producer whose result arrived last, or
* a *fetch/dispatch* edge to the previous instruction in program order when
  the instruction was ready before it could even dispatch (front-end
  bandwidth, mispredictions, window fills).

Every edge's latency contribution is charged to one of the paper's five
buckets: ``fetch``, ``alu_exec``, ``load_exec`` (cache-hit dataflow),
``load_mem`` (miss dataflow) and ``commit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uarch.inflight import TimingRecord

#: Loads whose cache latency exceeds this are charged to the memory bucket.
_MEMORY_LATENCY_THRESHOLD = 10


@dataclass
class CriticalPathBreakdown:
    """Critical-path cycles charged to each bucket."""

    fetch: int = 0
    alu_exec: int = 0
    load_exec: int = 0
    load_mem: int = 0
    commit: int = 0
    path_length: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.fetch + self.alu_exec + self.load_exec + self.load_mem + self.commit

    def fractions(self) -> dict[str, float]:
        """Bucket shares, in the order the paper's Figure 9 stacks them."""
        total = self.total or 1
        return {
            "fetch": self.fetch / total,
            "alu_exec": self.alu_exec / total,
            "load_exec": self.load_exec / total,
            "load_mem": self.load_mem / total,
            "commit": self.commit / total,
        }


def analyze_critical_path(records: list[TimingRecord]) -> CriticalPathBreakdown:
    """Compute the critical-path bucket breakdown for one simulation.

    The walk starts at the record with the highest ``seq``; ``records`` may
    come in any order.

    Args:
        records: Timing records from a pipeline run with ``collect_timing``.

    Returns:
        A :class:`CriticalPathBreakdown`.
    """
    if not records:
        return CriticalPathBreakdown()
    by_seq = {record.seq: record for record in records}
    lookup = by_seq.get
    last = by_seq[max(by_seq)]
    # Commit bucket: the tail between the last completion and retirement.
    commit = max(0, last.retire_cycle - last.complete_cycle)
    fetch = alu_exec = load_exec = load_mem = path_length = 0

    current = last
    steps = 0
    limit = len(records) + 8
    while steps < limit:
        steps += 1
        # The data predecessor is the producer whose result arrived last
        # (the first one on a tie).
        data_pred = None
        for producer in current.source_producers:
            if producer >= 0:
                record = lookup(producer)
                if record is not None and (
                        data_pred is None
                        or record.complete_cycle > data_pred.complete_cycle):
                    data_pred = record
        complete = current.complete_cycle
        data_bound = (data_pred is not None
                      and data_pred.complete_cycle >= current.dispatch_cycle)
        predecessor = data_pred if data_bound else lookup(current.seq - 1)
        path_length += 1
        if predecessor is None or predecessor.seq >= current.seq:
            # Reached the beginning of the window; charge the remaining depth
            # to fetch and stop.
            fetch += max(0, complete)
            break
        edge_cost = complete - predecessor.complete_cycle
        if edge_cost > 0:
            if not data_bound:
                fetch += edge_cost
            elif not current.is_load or current.eliminated:
                alu_exec += edge_cost
            elif current.dcache_latency > _MEMORY_LATENCY_THRESHOLD:
                load_mem += edge_cost
            else:
                load_exec += edge_cost
        current = predecessor
    return CriticalPathBreakdown(
        fetch=fetch, alu_exec=alu_exec, load_exec=load_exec,
        load_mem=load_mem, commit=commit, path_length=path_length)
