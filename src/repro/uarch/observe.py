"""First-class occupancy / utilization observability for the timing core.

Two opt-in instruments live here, both recorded by the pipeline's cycle
loop when it runs with ``record_stats=True``:

* :class:`OccupancyStats` — per-structure occupancy histograms (ROB,
  issue queue, physical register file, store/load queues, per-class
  scheduler ready lists), a per-cycle issue-width histogram with
  per-class issue totals, and a fetch-stall attribution breakdown.
  Every histogram is a dense ``counts[occupancy] = cycles`` list sized
  to the structure's capacity, so the hot loop records one ``+= 1`` per
  structure per cycle and all means/peaks/utilizations are derived
  afterwards.
* :class:`TimelineRecorder` — a strided ring buffer of per-cycle rows
  ``(cycle, committed, issued, rob, iq, prf, sq, lq)`` for plotting an
  execution timeline without holding one row per simulated cycle.

Both are plain picklable containers.  A compiled cell fills an
:class:`OccupancyStats` from the kernel's histograms, byte-identical to
the python loop's (``tests/uarch/test_fuzz_routes.py`` and
``tests/uarch/test_fresh_cells.py`` check exactly that); timelines are
recorded by the python loop only.

Overhead model: with ``record_stats=False`` the pipeline allocates
neither object and the cycle loop's only cost is one pre-bound local
boolean test; the perf-smoke gate (``scripts/perf_smoke.py``) measures
that off-mode path against the committed baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Fetch-stall attribution buckets (indices into
#: :attr:`OccupancyStats.fetch_stall_reasons`).
STALL_BRANCH = 0     #: waiting out a branch misprediction / redirect refill
STALL_ICACHE = 1     #: waiting out an instruction-cache miss
STALL_FRONTEND = 2   #: a short front-end bubble (BTB miss on a taken branch)

#: Human-readable names for the stall buckets, index-aligned.
STALL_REASON_NAMES = ("branch", "icache", "frontend")

#: Scheduler class names, index-aligned with the issue queue's class ids.
ISSUE_CLASS_NAMES = ("int", "load", "store", "fp")


def _histogram_mean(counts: list[int], cycles: int) -> float:
    """Mean occupancy of a dense ``counts[occupancy] = cycles`` histogram."""
    if not cycles:
        return 0.0
    return sum(occ * n for occ, n in enumerate(counts)) / cycles


def _histogram_peak(counts: list[int]) -> int:
    """Highest occupancy that was ever observed (0 for an empty histogram)."""
    for occ in range(len(counts) - 1, -1, -1):
        if counts[occ]:
            return occ
    return 0


def _encode_histogram(counts: list[int]) -> list[list[int]]:
    """Sparse JSON form of a dense histogram: sorted ``[occ, cycles]`` pairs."""
    return [[occ, n] for occ, n in enumerate(counts) if n]


def _decode_histogram(pairs: list, size: int) -> list[int]:
    """Inverse of :func:`_encode_histogram` back into a dense list."""
    counts = [0] * size
    for occ, n in pairs:
        counts[occ] = n
    return counts


def _structure_summary(counts: list[int], capacity: int, cycles: int) -> dict:
    """The derived view of one structure histogram (mean/peak/utilization)."""
    mean = _histogram_mean(counts, cycles)
    return {
        "capacity": capacity,
        "mean": mean,
        "peak": _histogram_peak(counts),
        "utilization": mean / capacity if capacity else 0.0,
    }


@dataclass
class OccupancyStats:
    """Per-structure occupancy histograms for one timing-simulation run.

    Attributes:
        cycles: Cycles covered by the histograms (== ``SimStats.cycles``).
        rob_capacity: ROB entries (histogram index range is 0..capacity).
        iq_capacity: Issue-queue entries.
        prf_capacity: Physical registers.
        sq_capacity: Store-queue entries.
        lq_capacity: Load-queue entries.
        issue_width: Machine ``total_issue`` (issue-histogram index range).
        rob: ``rob[n]`` = cycles the ROB held exactly ``n`` instructions.
        iq: Issue-queue occupancy histogram.
        prf: Physical-registers-in-use histogram.
        sq: Store-queue occupancy histogram.
        lq: Load-queue occupancy histogram.
        ready: Four per-class ready-list depth histograms
            (:data:`ISSUE_CLASS_NAMES` order).
        issued: ``issued[n]`` = cycles exactly ``n`` instructions issued.
        issued_by_class: Total instructions issued per scheduler class.
        fetch_stall_reasons: Fetch-stall cycles per
            :data:`STALL_REASON_NAMES` bucket (sums to
            ``SimStats.fetch_stall_cycles``).
    """

    cycles: int = 0
    rob_capacity: int = 0
    iq_capacity: int = 0
    prf_capacity: int = 0
    sq_capacity: int = 0
    lq_capacity: int = 0
    issue_width: int = 0
    rob: list[int] = field(default_factory=list)
    iq: list[int] = field(default_factory=list)
    prf: list[int] = field(default_factory=list)
    sq: list[int] = field(default_factory=list)
    lq: list[int] = field(default_factory=list)
    ready: list[list[int]] = field(default_factory=list)
    issued: list[int] = field(default_factory=list)
    issued_by_class: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    fetch_stall_reasons: list[int] = field(default_factory=lambda: [0, 0, 0])

    @classmethod
    def for_config(cls, config) -> "OccupancyStats":
        """Fresh zeroed histograms sized for one ``MachineConfig``."""
        iq_size = config.issue_queue_size
        return cls(
            rob_capacity=config.rob_size,
            iq_capacity=iq_size,
            prf_capacity=config.num_physical_regs,
            sq_capacity=config.store_queue_size,
            lq_capacity=config.load_queue_size,
            issue_width=config.total_issue,
            rob=[0] * (config.rob_size + 1),
            iq=[0] * (iq_size + 1),
            prf=[0] * (config.num_physical_regs + 1),
            sq=[0] * (config.store_queue_size + 1),
            lq=[0] * (config.load_queue_size + 1),
            ready=[[0] * (iq_size + 1) for _ in range(4)],
            issued=[0] * (config.total_issue + 1),
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe derived view: utilization per structure, issue-port
        utilization per class, and the fetch-stall breakdown."""
        cycles = self.cycles
        issued_total = sum(self.issued_by_class)
        port_cycles = cycles * self.issue_width
        return {
            "cycles": cycles,
            "structures": {
                "rob": _structure_summary(self.rob, self.rob_capacity, cycles),
                "iq": _structure_summary(self.iq, self.iq_capacity, cycles),
                "prf": _structure_summary(self.prf, self.prf_capacity, cycles),
                "sq": _structure_summary(self.sq, self.sq_capacity, cycles),
                "lq": _structure_summary(self.lq, self.lq_capacity, cycles),
            },
            "ready": {
                name: _histogram_mean(self.ready[index], cycles)
                for index, name in enumerate(ISSUE_CLASS_NAMES)
            } if self.ready else {},
            "issue": {
                "width": self.issue_width,
                "mean": issued_total / cycles if cycles else 0.0,
                "utilization": issued_total / port_cycles if port_cycles else 0.0,
                "by_class": {
                    name: self.issued_by_class[index]
                    for index, name in enumerate(ISSUE_CLASS_NAMES)
                },
            },
            "fetch_stalls": {
                name: self.fetch_stall_reasons[index]
                for index, name in enumerate(STALL_REASON_NAMES)
            },
        }

    # ------------------------------------------------------------------
    # Serialization (reports, wire schema)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Exact JSON-safe form (histograms sparse-encoded); inverse of
        :meth:`from_dict`."""
        return {
            "cycles": self.cycles,
            "capacities": {
                "rob": self.rob_capacity,
                "iq": self.iq_capacity,
                "prf": self.prf_capacity,
                "sq": self.sq_capacity,
                "lq": self.lq_capacity,
                "issue": self.issue_width,
            },
            "rob": _encode_histogram(self.rob),
            "iq": _encode_histogram(self.iq),
            "prf": _encode_histogram(self.prf),
            "sq": _encode_histogram(self.sq),
            "lq": _encode_histogram(self.lq),
            "ready": [_encode_histogram(counts) for counts in self.ready],
            "issued": _encode_histogram(self.issued),
            "issued_by_class": list(self.issued_by_class),
            "fetch_stall_reasons": list(self.fetch_stall_reasons),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OccupancyStats":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        caps = data["capacities"]
        iq_size = caps["iq"]
        return cls(
            cycles=data["cycles"],
            rob_capacity=caps["rob"],
            iq_capacity=iq_size,
            prf_capacity=caps["prf"],
            sq_capacity=caps["sq"],
            lq_capacity=caps["lq"],
            issue_width=caps["issue"],
            rob=_decode_histogram(data["rob"], caps["rob"] + 1),
            iq=_decode_histogram(data["iq"], iq_size + 1),
            prf=_decode_histogram(data["prf"], caps["prf"] + 1),
            sq=_decode_histogram(data["sq"], caps["sq"] + 1),
            lq=_decode_histogram(data["lq"], caps["lq"] + 1),
            ready=[_decode_histogram(pairs, iq_size + 1)
                   for pairs in data["ready"]],
            issued=_decode_histogram(data["issued"], caps["issue"] + 1),
            issued_by_class=list(data["issued_by_class"]),
            fetch_stall_reasons=list(data["fetch_stall_reasons"]),
        )


#: Default timeline ring-buffer size (rows kept; older rows are overwritten).
DEFAULT_TIMELINE_CAPACITY = 4096


@dataclass
class TimelineRecorder:
    """A strided ring buffer of per-cycle pipeline rows.

    Every ``stride``-th cycle the pipeline records one row
    ``(cycle, committed, issued, rob, iq, prf, sq, lq)``; once ``capacity``
    rows exist the oldest is overwritten, so memory stays bounded on
    arbitrarily long runs while the tail of the execution stays inspectable.

    Attributes:
        stride: Record one row every this many cycles (>= 1).
        capacity: Maximum rows retained.
        rows: The raw ring storage (use :meth:`ordered` for oldest-first).
        total: Rows ever recorded (> ``capacity`` once the ring wrapped).
    """

    stride: int = 1
    capacity: int = DEFAULT_TIMELINE_CAPACITY
    rows: list[tuple] = field(default_factory=list)
    total: int = 0

    def record(self, row: tuple) -> None:
        """Append one row, overwriting the oldest once the ring is full."""
        index = self.total % self.capacity
        if index == len(self.rows):
            self.rows.append(row)
        else:
            self.rows[index] = row
        self.total += 1

    def ordered(self) -> list[tuple]:
        """The retained rows, oldest first."""
        if self.total <= self.capacity:
            return list(self.rows)
        split = self.total % self.capacity
        return self.rows[split:] + self.rows[:split]

    def to_dict(self) -> dict:
        """JSON-safe form: the row column names plus the ordered rows."""
        return {
            "stride": self.stride,
            "capacity": self.capacity,
            "total": self.total,
            "columns": ["cycle", "committed", "issued",
                        "rob", "iq", "prf", "sq", "lq"],
            "rows": [list(row) for row in self.ordered()],
        }
