"""Simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uarch.observe import OccupancyStats


@dataclass(slots=True)
class SimStats:
    """Counters accumulated by one timing-simulation run.

    The elimination counters mirror the categories of Figure 8: moves
    eliminated by RENO_ME, register-immediate additions folded by RENO_CF,
    and loads (plus any other ops) eliminated by RENO_CSE+RA.

    ``occupancy`` is populated only when the run recorded observability
    data (``record_stats=True``); see :mod:`repro.uarch.observe`.
    """

    # Progress.
    cycles: int = 0
    committed: int = 0

    # Eliminations (committed instructions only).
    eliminated_moves: int = 0
    eliminated_folds: int = 0
    eliminated_cse: int = 0
    eliminated_ra: int = 0
    reexecuted_loads: int = 0
    integration_value_mismatches: int = 0

    # Renaming / resources.
    pregs_allocated: int = 0
    max_pregs_in_use: int = 0
    rename_stall_cycles: int = 0
    rob_stall_cycles: int = 0
    iq_stall_cycles: int = 0
    lsq_stall_cycles: int = 0

    # Front end.
    fetched: int = 0
    branch_mispredictions: int = 0
    btb_misses: int = 0
    ras_mispredictions: int = 0
    fetch_stall_cycles: int = 0
    icache_misses: int = 0

    # Memory system.
    dcache_accesses: int = 0
    dcache_misses: int = 0
    l2_misses: int = 0
    store_forwards: int = 0
    memory_order_violations: int = 0
    load_replays: int = 0

    # Execution.
    issued: int = 0
    fused_operations: int = 0
    fusion_penalty_cycles: int = 0

    # Integration table.
    it_lookups: int = 0
    it_hits: int = 0
    it_insertions: int = 0

    # Observability (None unless the run recorded occupancy histograms).
    occupancy: OccupancyStats | None = None

    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (eliminated instructions count:
        they still retire architecturally)."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def total_eliminated(self) -> int:
        """All instructions collapsed at rename, any kind."""
        return (self.eliminated_moves + self.eliminated_folds
                + self.eliminated_cse + self.eliminated_ra)

    @property
    def elimination_rate(self) -> float:
        """Fraction of committed instructions RENO removed from execution."""
        return self.total_eliminated / self.committed if self.committed else 0.0

    @property
    def move_elimination_rate(self) -> float:
        """RENO_ME eliminations per committed instruction."""
        return self.eliminated_moves / self.committed if self.committed else 0.0

    @property
    def fold_rate(self) -> float:
        """RENO_CF folds per committed instruction."""
        return self.eliminated_folds / self.committed if self.committed else 0.0

    @property
    def cse_ra_rate(self) -> float:
        """RENO_CSE+RA integrations per committed instruction."""
        return (self.eliminated_cse + self.eliminated_ra) / self.committed if self.committed else 0.0
