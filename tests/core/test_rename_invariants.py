"""Property-based invariant tests for the rename layer.

Random instruction sequences are pushed through the RENO renamer (map table +
reference counts + integration table) and through the full pipeline, checking
the invariants that underpin physical-register sharing:

* no physical register is ever leaked (count 0 but off the free list) or
  double-freed (count underflow / free while referenced);
* after every in-flight instruction has committed, each register's reference
  count equals the number of map-table entries naming it;
* a failed rename (no free destination register) has no side effects;
* the timing simulator's final architectural state always matches the
  functional simulator's, for every RENO configuration.

No hypothesis dependency: sequences come from seeded ``random.Random``
generators, so every case is reproducible from its seed.
"""

import dataclasses

import pytest

from repro.core import RenoConfig, RenoRenamer
from repro.core.refcount import ReferenceCountError
from repro.core.simulator import simulate
from repro.functional.simulator import FunctionalSimulator
from repro.isa.registers import NUM_LOGICAL_REGS
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from tests.uarch.test_scheduler_equivalence import random_program

SEEDS = [7, 23, 101, 481, 1105, 2821]

CONFIGS = {
    "ME": RenoConfig.reno_me(),
    "CF+ME": RenoConfig.reno_cf_me(),
    "RENO": RenoConfig.reno_default(),
    "FullInteg": RenoConfig.reno_full_integration(),
}


def straight_line_program(seed: int):
    """A random straight-line kernel of the shared generator, exercising
    every elimination idiom."""
    return random_program(seed, length=300, loop=False).assemble()


def trace_for(seed: int):
    return FunctionalSimulator(straight_line_program(seed)).run().trace


def commit(renamer, result) -> None:
    """Commit a renamed instruction: hand back its previous mapping, if any
    (as the pipeline does from the window's ``prev_dest``)."""
    if result.prev_dest_preg is not None:
        renamer.commit(result.prev_dest_preg)


def rename_with_rob_window(renamer: RenoRenamer, trace, group_size=4, window=16):
    """Rename the whole trace, committing in order once the window fills."""
    in_flight = []
    for start in range(0, len(trace), group_size):
        renamer.begin_group()
        for dyn in trace[start:start + group_size]:
            result = renamer.rename_next(dyn)
            assert result is not None, "renamer ran out of registers unexpectedly"
            in_flight.append(result)
        while len(in_flight) > window:
            commit(renamer, in_flight.pop(0))
    for result in in_flight:
        commit(renamer, result)


def rename_in_pipeline(renamer: RenoRenamer, seed: int, machine: MachineConfig):
    """Run the whole program through ``Pipeline.run()`` on the python cycle
    loop, so rename and commit take the pipeline's own renamer calls."""
    program = straight_line_program(seed)
    trace = FunctionalSimulator(program).run().trace
    pipeline = Pipeline(program, trace, machine, renamer=renamer,
                        backend="python")
    assert pipeline.backend_name == "python"
    result = pipeline.run()
    assert result.stats.committed == len(trace)


def assert_no_leak_and_counts_match_map_table(renamer: RenoRenamer, num_pregs: int):
    refcounts = renamer.refcounts
    # Conservation: every register is either free or positively referenced,
    # the free list and the counts agree, and nothing was double-freed.
    refcounts.check_conservation()
    assert refcounts.free_count() + refcounts.in_use_count() == num_pregs

    # With no instructions in flight, the only references left are map-table
    # entries: each register's count must equal the number of logical
    # registers currently mapped to it.
    references = [0] * num_pregs
    for preg, _disp in renamer.map_table.snapshot():
        references[preg] += 1
    assert references == refcounts.counts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_no_leak_or_double_free_and_counts_match_map_table(seed, config_name):
    renamer = RenoRenamer(96, CONFIGS[config_name])
    rename_with_rob_window(renamer, trace_for(seed))
    assert_no_leak_and_counts_match_map_table(renamer, 96)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("prf", ["default", "tiny"])
def test_no_leak_or_double_free_and_counts_match_map_table_after_pipeline_run(
        seed, config_name, prf):
    """The same invariants, driven by a full ``Pipeline.run()``: the cycle
    loop's own begin_group/rename_next/commit sequence must leave the
    renamer as consistent as the ROB-window driver does.  The tiny register
    file (four registers beyond the logical ones) makes the move-only
    configuration stall renaming and recycle every register many times."""
    # A leaked register deadlocks renaming; the small cycle cap turns that
    # into a prompt runaway error (these programs retire in < 3k cycles).
    machine = dataclasses.replace(MachineConfig.default_4wide(),
                                  max_cycles=100_000)
    if prf == "tiny":
        machine = dataclasses.replace(
            machine, num_physical_regs=NUM_LOGICAL_REGS + 4)
    renamer = RenoRenamer(machine.num_physical_regs, CONFIGS[config_name])
    rename_in_pipeline(renamer, seed, machine)
    assert_no_leak_and_counts_match_map_table(renamer, machine.num_physical_regs)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_failed_rename_has_no_side_effects(seed):
    # Big enough to hold the initial mappings, small enough to exhaust.
    renamer = RenoRenamer(NUM_LOGICAL_REGS + 4, RenoConfig.reno_default())
    trace = trace_for(seed)
    failed = None
    renamer.begin_group()
    for dyn in trace:
        before_free = renamer.free_register_count()
        before_counts = list(renamer.refcounts.counts)
        before_mappings = renamer.map_table.snapshot()
        result = renamer.rename_next(dyn)
        if result is None:
            failed = dyn
            # A stalled rename must leave no trace: same free registers, same
            # counts, same mappings — the pipeline will retry next cycle.
            assert renamer.free_register_count() == before_free
            assert renamer.refcounts.counts == before_counts
            assert renamer.map_table.snapshot() == before_mappings
            break
    assert failed is not None, "expected the tiny register file to stall renaming"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_releasing_a_free_register_raises(seed):
    renamer = RenoRenamer(96, RenoConfig.reno_default())
    rename_with_rob_window(renamer, trace_for(seed))
    free_register = renamer.refcounts._free[0]
    with pytest.raises(ReferenceCountError):
        renamer.refcounts.release(free_register)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_architectural_state_preserved_end_to_end(seed, config_name):
    """The pipeline's verify=True check reconstructs the architectural state
    from the (shared) physical registers and map-table displacements and
    compares it against the functional simulator — the end-to-end proof that
    no RENO transformation corrupted a value."""
    program = straight_line_program(seed)
    outcome = simulate(program, MachineConfig.default_4wide(),
                       CONFIGS[config_name], verify=True)
    assert outcome.stats.committed == outcome.functional.dynamic_count
    if config_name != "FullInteg":
        # Move/CF-capable configs always find something in these kernels.
        assert outcome.stats.total_eliminated > 0
