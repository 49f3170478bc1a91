"""Seeded differential fuzzing of the routes a cell can take.

Each case is one ``rich`` program of the shared generator
(:func:`test_scheduler_equivalence.random_program`: nested calls,
byte/word/quad memory traffic over overlapping addresses, repeated
op/immediate pairs, displacement-overflowing add chains, division edge
cases and forward branches) on one of {BASE, RENO, CF+ME, FullInteg} x
{4-wide, ``TINY``}.  The reference is the all-python run: the interpreter's trace
on the python cycle loop, timed and observed at once.  The compiled side
is the production route: the C functional run's trace, then a fresh
kernel cell (:meth:`~repro.uarch.compiled.backend.CompiledBackend.run_fresh`)
in each of three modes, every one of which must run in the kernel:

* untimed: statistics and final registers;
* timed: the :class:`~repro.uarch.inflight.TimingColumns`, the critical
  path over them, and both again after the result store's payload round
  trip;
* observed: ``OccupancyStats.to_dict()``.

The C and python functional runs of each program must agree as well.
On the python side alone (all that runs without a C toolchain), every
case retires its whole trace with the interpreter's final registers, and
the critical-path walk over its records, with every cycle coarsened so
that producers tie, equals the by-record reference walk.  Only the
``FullInteg`` configuration's eliminated instructions carry a third
producer, so it joins the three configurations above.
"""

import dataclasses
from dataclasses import asdict

import pytest
from test_scheduler_equivalence import TINY, random_program

from repro.analysis import analyze_critical_path
from repro.core import RenoConfig
from repro.core.simulator import SimulationOutcome
from repro.functional.simulator import FunctionalSimulator
from repro.store.base import decode_payload, encode_payload
from repro.uarch.backend import get_backend
from repro.uarch.compiled import fresh
from repro.uarch.compiled.marshal import KernelTables
from repro.uarch.config import MachineConfig
from repro.uarch.tables import TraceTables
from tests.analysis.test_critpath_and_report import columns_of, record_walk
from tests.functional.test_compiled_functional import assert_same_run, run_in_c

#: The fuzz seeds.
SEEDS = list(range(24))

#: Instructions in each program's loop body (its subroutines add a few).
LENGTH = 150

RENOS = {
    "BASE": None,
    "RENO": RenoConfig.reno_default(),
    "CF+ME": RenoConfig.reno_cf_me(),
    "FullInteg": RenoConfig.reno_full_integration(),
}

MACHINES = {"4wide": MachineConfig.default_4wide(), "tiny": TINY}

needs_compiled = pytest.mark.skipif(
    not get_backend("compiled").available(),
    reason="no C toolchain on this runner")

_programs: dict = {}


def fuzz_program(seed):
    """(program, interpreter run) of ``seed``, built once per process."""
    if seed not in _programs:
        program = random_program(seed, length=LENGTH, rich=True).assemble()
        _programs[seed] = (program, FunctionalSimulator(
            program, backend="python").run())
    return _programs[seed]


def python_cell(seed, machine, reno):
    """The reference: the python loop on the interpreter's trace, with
    timing records and occupancy."""
    program, functional = fuzz_program(seed)
    tables = TraceTables(program, functional.trace)
    return get_backend("python").run_fresh(
        program, functional.trace, tables, machine, reno,
        collect_timing=True, record_stats=True)


def walk(breakdown):
    """A critical-path breakdown as :func:`record_walk` returns it."""
    return (breakdown.fetch, breakdown.alu_exec, breakdown.load_exec,
            breakdown.load_mem, breakdown.commit, breakdown.path_length)


def coarsened(records, grain):
    """``records`` with every cycle rounded down to ``grain``: the same
    dependency graph, with many producers completing together."""
    return [dataclasses.replace(
        record, dispatch_cycle=record.dispatch_cycle // grain,
        issue_cycle=record.issue_cycle // grain,
        complete_cycle=record.complete_cycle // grain,
        retire_cycle=record.retire_cycle // grain) for record in records]


def observables(result):
    """Statistics (without occupancy), final registers and ``finished``."""
    stats = asdict(result.stats)
    del stats["occupancy"]
    return stats, result.final_registers, result.finished


CASES = [pytest.param(seed, machine, reno,
                      id=f"{seed}-{machine}-{reno}")
         for seed in SEEDS for machine in MACHINES for reno in RENOS]


@pytest.mark.parametrize("seed, machine_name, reno_name", CASES)
def test_the_python_loop_retires_every_fuzz_program(seed, machine_name,
                                                    reno_name):
    _, functional = fuzz_program(seed)
    python = python_cell(seed, MACHINES[machine_name], RENOS[reno_name])
    assert python.finished
    assert python.stats.committed == len(functional.trace)
    assert python.final_registers == list(functional.state.snapshot())
    assert len(python.timing_records) == len(functional.trace)
    records = list(python.timing_records)
    assert walk(analyze_critical_path(python.timing_records)) \
        == record_walk(records)
    for grain in (2, 4, 8, 16):
        tied = coarsened(records, grain)
        assert walk(analyze_critical_path(columns_of(tied))) \
            == record_walk(tied), grain


@needs_compiled
@pytest.mark.parametrize("seed", SEEDS)
def test_c_and_python_functional_runs_agree(seed):
    program, functional = fuzz_program(seed)
    assert_same_run(run_in_c(program), functional)


@needs_compiled
@pytest.mark.parametrize("seed, machine_name, reno_name", CASES)
def test_fresh_kernel_cells_match_the_python_loop(seed, machine_name,
                                                  reno_name, monkeypatch):
    machine, reno = MACHINES[machine_name], RENOS[reno_name]
    program, _ = fuzz_program(seed)
    expected = python_cell(seed, machine, reno)
    functional = run_in_c(program)
    tables = TraceTables(program, functional.trace)
    assert KernelTables.of(tables).fits
    kernel_cells = []
    run_cell = fresh.run_cell

    def counted(*args):
        kernel_cells.append(args)
        return run_cell(*args)

    monkeypatch.setattr(fresh, "run_cell", counted)
    compiled = get_backend("compiled")

    def cell(collect_timing=False, record_stats=False):
        return compiled.run_fresh(program, functional.trace, tables, machine,
                                  reno, collect_timing, record_stats)

    untimed, timed, observed = cell(), cell(True), cell(record_stats=True)
    assert len(kernel_cells) == 3
    reference = observables(expected)
    assert observables(untimed) == reference
    assert observables(timed) == reference
    assert observables(observed) == reference

    critical_path = analyze_critical_path(expected.timing_records)
    decoded = decode_payload(encode_payload(SimulationOutcome(
        program=None, functional=None, timing=timed, reno_config=reno)))
    for route, result in (("fresh", timed), ("payload", decoded.timing)):
        assert observables(result) == reference, route
        assert result.timing_records == expected.timing_records, route
        assert analyze_critical_path(result.timing_records) \
            == critical_path, route

    assert observed.stats.occupancy.to_dict() \
        == expected.stats.occupancy.to_dict()
