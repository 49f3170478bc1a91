"""Critical-path analysis (a simplified Fields-style model, §4.3 / Figure 9).

A run with ``collect_timing`` keeps its per-retired-instruction timing
records as :class:`~repro.uarch.inflight.TimingColumns`, one column per
field indexed by ``seq``, on every route, and the walk reads those
columns without building a record.  This module walks the dependence
structure backwards from the last retired instruction, at each step
following the constraint that actually determined the instruction's
completion time:

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

from repro.uarch.inflight import TimingColumns

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


def analyze_critical_path(records: TimingColumns) -> CriticalPathBreakdown:
    """Compute the critical-path bucket breakdown for one simulation.

    The walk starts at the last retired instruction (the highest ``seq``)
    and reads the columns by seq.

    Args:
        records: Timing records from a run with ``collect_timing``.

    Returns:
        A :class:`CriticalPathBreakdown`.
    """
    count = len(records)
    if not count:
        return CriticalPathBreakdown()
    (dispatch, complete, retire, dcache, eliminated, loads, nprod, prod0,
     prod1, prod2) = map(records.column, (
        "dispatch_cycle", "complete_cycle", "retire_cycle", "dcache_latency",
        "eliminated", "is_load", "nprod", "prod0", "prod1", "prod2"))
    seq = count - 1
    done = complete[seq]
    # Commit bucket: the tail between the last completion and retirement.
    commit = max(0, retire[seq] - done)
    fetch = alu_exec = load_exec = load_mem = path_length = 0

    for _ in range(count + 8):
        # The data predecessor is the producer whose result arrived last
        # (the first one on a tie); ``arrival`` is its completion cycle.
        # (Unrolled over the three producer columns: the walk is hot.)
        data_pred = -1
        sources = nprod[seq]
        if sources:
            producer = prod0[seq]
            if 0 <= producer < count:
                data_pred, arrival = producer, complete[producer]
            if sources > 1:
                producer = prod1[seq]
                if 0 <= producer < count:
                    cycle = complete[producer]
                    if data_pred < 0 or cycle > arrival:
                        data_pred, arrival = producer, cycle
                if sources > 2:
                    producer = prod2[seq]
                    if 0 <= producer < count:
                        cycle = complete[producer]
                        if data_pred < 0 or cycle > arrival:
                            data_pred, arrival = producer, cycle
        path_length += 1
        if data_pred >= 0 and arrival >= dispatch[seq]:
            # A data edge, charged by the instruction's class (a producer
            # that is not older ends the walk, as the window's start does).
            if data_pred >= seq:
                fetch += max(0, done)
                break
            edge_cost = done - arrival
            if edge_cost > 0:
                if not loads[seq] or eliminated[seq]:
                    alu_exec += edge_cost
                elif dcache[seq] > _MEMORY_LATENCY_THRESHOLD:
                    load_mem += edge_cost
                else:
                    load_exec += edge_cost
            seq, done = data_pred, arrival
        else:
            # A fetch/dispatch edge to the previous instruction; past the
            # first one, charge the remaining depth to fetch and stop.
            if seq == 0:
                fetch += max(0, done)
                break
            seq -= 1
            previous = complete[seq]
            if done > previous:
                fetch += done - previous
            done = previous
    return CriticalPathBreakdown(
        fetch=fetch, alu_exec=alu_exec, load_exec=load_exec,
        load_mem=load_mem, commit=commit, path_length=path_length)
