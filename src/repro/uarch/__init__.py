"""Cycle-level dynamically scheduled superscalar core (the timing substrate).

This package models the machine described in §4.1 of the paper: a 13-stage,
4-wide (or 6-wide) dynamically scheduled processor with MIPS-R10000 style
register renaming, a unified issue queue with wakeup/select scheduling, a
load/store queue with store-sets memory dependence prediction, a two-level
cache hierarchy and a hybrid branch predictor.

The pipeline is trace-driven (it consumes the dynamic instruction trace the
functional simulator produced) but *execute-in-execute*: every instruction is
re-evaluated on the physical register file, and results are checked against
the architectural trace at commit.  That check is what validates RENO's
renaming transformations.

The renaming stage is pluggable: :class:`repro.uarch.rename.BaselineRenamer` is
the conventional renamer, and :class:`repro.core.renamer.RenoRenamer` (the
paper's contribution) slots into the same interface.
"""

from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.uarch.core import Pipeline, SimResult, CommitMismatchError

__all__ = [
    "MachineConfig",
    "SimStats",
    "Pipeline",
    "SimResult",
    "CommitMismatchError",
]
