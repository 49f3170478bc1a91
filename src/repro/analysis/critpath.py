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

The walk runs as the kernel library's ``repro_critpath`` (a C port of
:func:`python_walk`) whenever the library loads, whichever backend made the
records, so a python-backend run on a host with a C compiler compiles it;
:func:`python_walk` runs only with no compiler or ``REPRO_NO_CC=1``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.uarch.compiled import build
from repro.uarch.inflight import TimingColumns

#: Loads whose cache latency exceeds this are charged to the memory bucket.
_MEMORY_LATENCY_THRESHOLD = 10

#: The columns the walk reads, in order (the C walk's ``CP_*`` indices).
WALK_COLUMNS = ("dispatch_cycle", "complete_cycle", "retire_cycle",
                "dcache_latency", "eliminated", "is_load", "nprod", "prod0",
                "prod1", "prod2")


@dataclass
class CriticalPathBreakdown:
    """Critical-path cycles charged to each bucket."""

    fetch: int = 0
    alu_exec: int = 0
    load_exec: int = 0
    load_mem: int = 0
    commit: int = 0
    path_length: int = 0

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
    columns = [records.column(name) for name in WALK_COLUMNS]
    walk = build.load_critpath()
    if walk is None:
        return CriticalPathBreakdown(*python_walk(count, columns))
    # Python-loop and unpickled columns are copied into int64 buffers.
    columns = [column if isinstance(column, array) and column.typecode == "q"
               else array("q", column[:count]) for column in columns]
    return CriticalPathBreakdown(*build.call(walk, [count] + [0] * 6,
                                             columns)[1:])


def python_walk(count: int, columns: list) -> tuple[int, ...]:
    """The walk over ``count`` (> 0) records' :data:`WALK_COLUMNS`:
    ``(fetch, alu_exec, load_exec, load_mem, commit, path_length)``."""
    (dispatch, complete, retire, dcache, eliminated, loads, nprod, prod0,
     prod1, prod2) = columns
    seq = count - 1
    done = complete[seq]
    # Commit bucket: the tail between the last completion and retirement.
    commit = max(0, retire[seq] - done)
    fetch = alu_exec = load_exec = load_mem = path_length = 0

    for _ in range(count + 8):
        # The data predecessor is the producer (of the first ``nprod``)
        # whose result arrived last, the first one on a tie; ``arrival`` is
        # its completion cycle.
        data_pred = -1
        for producers in (prod0, prod1, prod2)[:max(0, nprod[seq])]:
            producer = producers[seq]
            if 0 <= producer < count and (data_pred < 0
                                          or complete[producer] > arrival):
                data_pred, arrival = producer, complete[producer]
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
    return fetch, alu_exec, load_exec, load_mem, commit, path_length
