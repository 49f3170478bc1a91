"""Property-based equivalence tests: SoA core vs the object-model scheduler.

The issue queue used to select instructions with a full per-cycle scan of an
object-based window, re-checking every resident instruction's operands
against the physical register file.  That algorithm survives here as
:func:`reference_select` / :class:`ReferenceIssueQueue` — an **object-model**
reference (one ``_RefInst`` record per resident instruction, full rescan
every cycle, wakeup events ignored) that drives the exact same
structure-of-arrays pipeline.  Seeded random programs (straight-line and
branchy, with loads, stores and every elimination idiom) are run through
both schedulers under several machine and RENO configurations, asserting:

* identical per-cycle issue sets (every instruction issues on the same cycle
  with both schedulers), and
* identical final statistics (cycles, stalls, violations, eliminations...).

The same generator drives a differential test of the timing records: on
twenty seeds and three machines, the python loop, a fresh compiled cell
and that cell's store-payload round trip must give equal
:class:`~repro.uarch.inflight.TimingColumns` and equal critical paths.
:func:`random_program` is the repository's one random-program generator:
the rename invariants, the functional C-vs-python test and the route fuzzer
(``test_fuzz_routes.py``, with ``rich=True``) draw their programs from it.

Seeds come from ``random.Random``, so every case is reproducible without a
hypothesis dependency.
"""

import dataclasses
import random
from dataclasses import fields

import pytest

from repro.analysis import analyze_critical_path
from repro.core import RenoConfig, RenoRenamer
from repro.core.simulator import SimulationOutcome
from repro.functional.simulator import FunctionalSimulator
from repro.isa.assembler import Assembler
from repro.isa.instruction import CLASS_LOAD
from repro.store.base import decode_payload, encode_payload
from repro.uarch.backend import get_backend
from repro.uarch.compiled import fresh
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.uarch.inflight import TimingColumns
from repro.uarch.scheduler import IssueQueue
from repro.uarch.tables import TraceTables

#: Registers the generator may use (avoids sp/gp/zero and the base pointer).
USABLE_REGS = list(range(0, 24))
BASE_REG = 26

SEEDS = [3, 17, 59, 257, 977]

CONFIGS = {
    "BASE": None,
    "RENO": RenoConfig.reno_default(),
    "CF+ME": RenoConfig.reno_cf_me(),
}

MACHINES = {
    "4wide": MachineConfig.default_4wide(),
    "6wide": MachineConfig.default_6wide(),
    "sched2": MachineConfig.default_4wide().with_scheduler_latency(2),
}

needs_compiled = pytest.mark.skipif(
    not get_backend("compiled").available(),
    reason="no C toolchain on this runner")


# ---------------------------------------------------------------------------
# Reference scheduler: the pre-rewrite per-cycle full scan over objects
# ---------------------------------------------------------------------------


class _RefInst:
    """One resident instruction in the object-model reference window."""

    __slots__ = ("seq", "sources", "class_id", "dispatch_cycle")

    def __init__(self, seq, sources, class_id, dispatch_cycle):
        self.seq = seq
        self.sources = list(sources)
        self.class_id = class_id
        self.dispatch_cycle = dispatch_cycle


def reference_select(entries, config, ready_cycles, cycle, ready_fn):
    """The original full-scan wakeup/select algorithm over object records.

    Walks the whole window oldest-first every cycle, re-checking each
    instruction's operand readiness against the register file, subject to
    per-class and total issue limits.  Returns (selected, kept_entries).
    """
    limits = [config.int_issue, config.load_issue,
              config.store_issue, config.fp_issue]
    remaining_total = config.total_issue
    selected = []
    kept = []
    index = 0
    count = len(entries)
    while index < count and remaining_total:
        inst = entries[index]
        index += 1
        operands_ready = all(
            ready_cycles[source.preg] <= cycle for source in inst.sources
        )
        if (limits[inst.class_id] == 0
                or inst.dispatch_cycle >= cycle      # earliest issue is next cycle
                or not operands_ready
                or (inst.class_id == CLASS_LOAD
                    and ready_fn is not None and not ready_fn(inst.seq, cycle))):
            kept.append(inst)
            continue
        limits[inst.class_id] -= 1
        remaining_total -= 1
        selected.append(inst)
    kept.extend(entries[index:])
    return selected, kept


class ReferenceIssueQueue(IssueQueue):
    """Drop-in IssueQueue implementing the old full-scan object model.

    Keeps a plain window list of ``_RefInst`` records and re-derives
    readiness from the register file every cycle; wakeup events are ignored.
    ``_ready_total`` mirrors the entry count so the pipeline's fast paths
    (select guard and idle fast-forward) treat every occupied cycle as
    potentially selectable, forcing the cycle-by-cycle behaviour of the
    original loop.
    """

    def __init__(self, config, window, prf):
        super().__init__(config, window, prf.ready_cycle)
        self._ref_prf = prf
        self.entries = []

    def add(self, seq, cycle=0, sources=None, class_id=0):
        if len(self.entries) >= self.capacity:
            raise RuntimeError("issue queue overflow (dispatch should have stalled)")
        self.entries.append(_RefInst(seq, sources or (), class_id, cycle))
        self._count = len(self.entries)
        self._ready_total = self._count  # force select every occupied cycle

    def wakeup(self, preg, ready_cycle):  # wakeups don't exist in this model
        pass

    def select(self, cycle, ready_fn=None):
        selected, kept = reference_select(
            self.entries, self.config, self._ref_prf.ready_cycle, cycle, ready_fn)
        self.entries = kept
        self._count = len(kept)
        self._ready_total = self._count
        return [inst.seq for inst in selected]


# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------


#: Registers a ``rich`` program keeps out of the random body: INT64_MIN and
#: -1 (the overflowing division's operands) and the data base pointer, which
#: moves off ``ra`` so that calls can link through it.
INT64_MIN_REG, MINUS_ONE_REG, RICH_BASE_REG = 24, 28, 27

#: Register-immediate ops of a rich program's repeated op/immediate pairs.
_PAIR_OPS = ("addi", "subi", "xori", "andi", "slli", "muli", "cmplti")

#: Register-register ops a rich program draws besides add, mul and div.
_RR_OPS = ("sub", "and_", "or_", "xor", "sll", "srl", "sra", "cmpeq",
           "cmplt", "cmple", "cmpult")


def random_program(seed: int, length: int = 240, *, loop: bool = True,
                   rich: bool = False) -> Assembler:
    """A random kernel with ALU ops, moves, folds, loads, stores and loops.

    ``loop=False`` leaves the body straight-line, run once.  ``rich=True``
    (the differential fuzz programs) also draws nested calls and returns
    (three levels of ``jsr``/``ret``, so the return stack nests), byte,
    word and quad loads and stores over overlapping addresses (store to
    load aliasing and store-set training), repeated op/immediate pairs and
    repeated loads (integration-table hits, set conflicts and entries
    invalidated when their registers are freed), add-immediate chains that
    overflow RENO's displacement field, division by zero and
    ``INT64_MIN / -1``, other register-register ALU ops, and forward
    branches.  Without it, the instruction stream of a seed is the one the
    equivalence tests were written against.
    """
    rng = random.Random(seed)
    asm = Assembler(f"sched_equiv_{seed}")
    asm.word_array("data", [rng.randrange(0, 1 << 16) for _ in range(32)])
    base = RICH_BASE_REG if rich else BASE_REG
    asm.la(base, "data")
    for reg in USABLE_REGS[:8]:
        asm.li(reg, rng.randrange(0, 1 << 12))
    if rich:
        asm.li(INT64_MIN_REG, 1)
        asm.slli(INT64_MIN_REG, INT64_MIN_REG, 63)
        asm.li(MINUS_ONE_REG, -1)
        pairs = [(rng.choice(_PAIR_OPS), rng.randrange(1, 64))
                 for _ in range(6)]
        body = _RichBody(asm, rng, base, pairs)
    # A short counted loop wrapped around a random body exercises branches,
    # the front-end stall machinery and repeated wakeups on the same pregs.
    if loop:
        asm.li(25, rng.randrange(2, 5))
        asm.label("loop")
    for _ in range(length):
        if rich:
            body.emit_one(top_level=True)
            continue
        choice = rng.random()
        rd = rng.choice(USABLE_REGS)
        rs = rng.choice(USABLE_REGS)
        if choice < 0.18:
            asm.mov(rd, rs)
        elif choice < 0.40:
            asm.addi(rd, rs, rng.randrange(0, 256))
        elif choice < 0.50:
            asm.subi(rd, rs, rng.randrange(0, 256))
        elif choice < 0.62:
            asm.add(rd, rs, rng.choice(USABLE_REGS))
        elif choice < 0.70:
            asm.mul(rd, rs, rng.choice(USABLE_REGS))
        elif choice < 0.85:
            asm.ld(rd, 8 * rng.randrange(0, 32), base)
        else:
            asm.st(rs, 8 * rng.randrange(0, 32), base)
    if loop:
        asm.subi(25, 25, 1)
        asm.bne(25, "loop")
    asm.halt()
    if rich:
        body.emit_functions()
    return asm


class _RichBody:
    """The instruction mix of a ``rich`` :func:`random_program`."""

    #: Subroutines: ``fn0`` calls ``fn1``, which calls the leaf ``fn2``.
    FUNCTIONS = 3

    def __init__(self, asm, rng, base, pairs):
        self.asm, self.rng, self.base, self.pairs = asm, rng, base, pairs
        self.labels = 0

    def emit_one(self, top_level: bool) -> None:
        """One random instruction, or one short idiom; calls and forward
        branches only at the top level."""
        asm, rng = self.asm, self.rng
        rd, rs = rng.choice(USABLE_REGS), rng.choice(USABLE_REGS)
        choice = rng.random()
        if choice < 0.12:
            asm.mov(rd, rs)
        elif choice < 0.24:
            asm.addi(rd, rs, rng.randrange(0, 256))
        elif choice < 0.28:
            asm.subi(rd, rs, rng.randrange(0, 256))
        elif choice < 0.34:
            asm.add(rd, rs, rng.choice(USABLE_REGS))
        elif choice < 0.37:
            asm.mul(rd, rs, rng.choice(USABLE_REGS))
        elif choice < 0.41:
            divisor = rng.choice((*USABLE_REGS[:4], 31, MINUS_ONE_REG))
            dividend = INT64_MIN_REG if rng.random() < 0.5 else rs
            asm.div(rd, dividend, divisor)
        elif choice < 0.46:
            getattr(asm, rng.choice(_RR_OPS))(rd, rs, rng.choice(USABLE_REGS))
        elif choice < 0.54:
            # A repeated op/immediate pair over a few sources.
            op, imm = rng.choice(self.pairs)
            getattr(asm, op)(rd, rng.choice(USABLE_REGS[:4]), imm)
        elif choice < 0.66:
            width = rng.choice((8, 4, 1))
            load = {8: asm.ld, 4: asm.ldw, 1: asm.ldbu}[width]
            load(rd, width * rng.randrange(0, 256 // width), self.base)
        elif choice < 0.76:
            width = rng.choice((8, 4, 1))
            store = {8: asm.st, 4: asm.stw, 1: asm.stb}[width]
            store(rs, width * rng.randrange(0, 256 // width), self.base)
        elif choice < 0.81:
            # An add-immediate chain whose displacement outgrows 16 bits.
            for _ in range(rng.randrange(2, 5)):
                asm.addi(rd, rd, rng.randrange(16_000, 32_768))
        elif choice < 0.88 and top_level:
            asm.jsr(f"fn{rng.randrange(self.FUNCTIONS)}")
        elif choice < 0.96 and top_level:
            self.labels += 1
            label = f"skip{self.labels}"
            branch = rng.choice((asm.beq, asm.bne, asm.blt, asm.bge))
            branch(rs, label)
            for _ in range(rng.randrange(1, 5)):
                self.emit_one(top_level=False)
            asm.label(label)
        else:
            asm.ld(rd, 8 * rng.randrange(0, 4), self.base)

    def emit_functions(self) -> None:
        """The subroutines: each saves ``ra`` in a stack frame, runs a few
        random instructions and calls the next; the last is a leaf."""
        asm = self.asm
        for index in range(self.FUNCTIONS):
            asm.label(f"fn{index}")
            leaf = index == self.FUNCTIONS - 1
            if not leaf:
                asm.prologue(16)
            for _ in range(self.rng.randrange(2, 6)):
                self.emit_one(top_level=False)
            if leaf:
                asm.ret()
            else:
                asm.jsr(f"fn{index + 1}")
                asm.epilogue(16)


def run_pipeline(program, trace, machine, reno, reference: bool):
    renamer = RenoRenamer(machine.num_physical_regs, reno) if reno is not None else None
    pipeline = Pipeline(program, trace, machine, renamer=renamer, collect_timing=True)
    if reference:
        queue = ReferenceIssueQueue(machine, pipeline.window, pipeline.prf)
        pipeline.issue_queue = queue
        # Rebind the producer-side aliases captured at construction time.
        pipeline._iq_waiters = queue._waiters
        pipeline._iq_wakeup = queue.wakeup
    return pipeline.run()


def issue_schedule(result):
    """{seq: issue cycle} for every instruction that executed."""
    return {record.seq: record.issue_cycle for record in result.timing_records}


def stats_dict(result):
    return {f.name: getattr(result.stats, f.name) for f in fields(result.stats)}


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_event_driven_matches_full_scan(seed, config_name):
    program = random_program(seed).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MachineConfig.default_4wide()

    reference = run_pipeline(program, trace, machine, CONFIGS[config_name], reference=True)
    event = run_pipeline(program, trace, machine, CONFIGS[config_name], reference=False)

    assert issue_schedule(event) == issue_schedule(reference), (
        f"per-cycle issue sets diverged (seed={seed}, config={config_name})"
    )
    assert stats_dict(event) == stats_dict(reference)
    assert event.final_registers == reference.final_registers


@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_event_driven_matches_full_scan_across_machines(machine_name):
    program = random_program(4242).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MACHINES[machine_name]

    reference = run_pipeline(program, trace, machine, RenoConfig.reno_default(), reference=True)
    event = run_pipeline(program, trace, machine, RenoConfig.reno_default(), reference=False)

    assert issue_schedule(event) == issue_schedule(reference)
    assert stats_dict(event) == stats_dict(reference)


def test_reference_queue_actually_diverges_when_abused():
    """Sanity check that the comparison has teeth: forcing the event-driven
    queue to skip wakeups would hang, so instead check the reference model
    issues nothing while operands are pending."""
    program = random_program(7, length=40).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MachineConfig.default_4wide()
    result = run_pipeline(program, trace, machine, None, reference=True)
    schedule = issue_schedule(result)
    assert schedule, "expected executed instructions"
    # No instruction can issue on its dispatch cycle.
    dispatch = {r.seq: r.dispatch_cycle for r in result.timing_records}
    assert all(schedule[seq] > dispatch[seq] for seq in schedule
               if schedule[seq] >= 0)


# ---------------------------------------------------------------------------
# Backend-vs-backend: the compiled kernel joins the equivalence panel
# ---------------------------------------------------------------------------


@needs_compiled
@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("machine_name", list(MACHINES))
def test_compiled_backend_matches_the_event_driven_loop(machine_name,
                                                        config_name):
    """Three-way closure: the object-model reference pins the event-driven
    python loop (tests above), and the compiled kernel must match that loop
    on statistics and final architectural state — so all three agree.
    (Timing records are held equal below and in
    ``tests/uarch/test_backends.py``.)"""
    program = random_program(31415).assemble()
    trace = FunctionalSimulator(program).run().trace
    machine = MACHINES[machine_name]
    reno = CONFIGS[config_name]

    tables = TraceTables(program, trace)
    compiled = get_backend("compiled").run_fresh(program, trace, tables,
                                                 machine, reno)
    python = get_backend("python").run_fresh(program, trace, tables,
                                             machine, reno)
    assert stats_dict(compiled) == stats_dict(python)
    assert compiled.final_registers == python.final_registers


# ---------------------------------------------------------------------------
# Differential: the timing records of every route
# ---------------------------------------------------------------------------

#: Twenty seeds of the timing-record differential test.
DIFFERENTIAL_SEEDS = list(range(1000, 1020))

#: A machine small enough that rename, issue-queue and load/store-queue
#: stalls all happen.
TINY = dataclasses.replace(
    MachineConfig.default_4wide(), name="tiny", rob_size=16,
    issue_queue_size=3, load_queue_size=2, store_queue_size=2,
    num_physical_regs=40)

#: (machine, RENO config) of each differential cell.
DIFFERENTIAL_CELLS = {
    "BASE": (MachineConfig.default_4wide(), None),
    "RENO": (MachineConfig.default_4wide(), RenoConfig.reno_default()),
    "tiny": (TINY, None),
}


@needs_compiled
@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_timing_columns_agree_on_every_route(seed, monkeypatch):
    """The python loop, a fresh compiled cell and its store payload round
    trip give equal timing columns and critical paths, with the compiled
    cell run in the kernel."""
    kernel_cells = []
    run_cell = fresh.run_cell
    monkeypatch.setattr(fresh, "run_cell", lambda *args: kernel_cells.append(
        args) or run_cell(*args))
    program = random_program(seed, length=120).assemble()
    trace = FunctionalSimulator(program).run().trace
    tables = TraceTables(program, trace)
    for label, (machine, reno) in DIFFERENTIAL_CELLS.items():
        python = get_backend("python").run_fresh(
            program, trace, tables, machine, reno, collect_timing=True)
        expected = python.timing_records
        assert isinstance(expected, TimingColumns)
        assert len(expected) == len(trace)
        critical_path = analyze_critical_path(expected)
        assert critical_path.path_length > 1
        if machine is TINY:
            assert python.stats.rename_stall_cycles, seed
            assert python.stats.iq_stall_cycles, seed
            assert python.stats.lsq_stall_cycles, seed

        compiled = get_backend("compiled").run_fresh(
            program, trace, tables, machine, reno, collect_timing=True)
        assert len(kernel_cells) == 1, (seed, label)
        kernel_cells.clear()
        decoded = decode_payload(encode_payload(SimulationOutcome(
            program=None, functional=None, timing=compiled,
            reno_config=reno)))
        for route, result in (("fresh", compiled),
                              ("payload", decoded.timing)):
            where = (seed, label, route)
            assert stats_dict(result) == stats_dict(python), where
            assert result.final_registers == python.final_registers, where
            assert result.timing_records == expected, where
            assert analyze_critical_path(result.timing_records) \
                == critical_path, where
