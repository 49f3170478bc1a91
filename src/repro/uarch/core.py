"""The cycle-level out-of-order pipeline.

The pipeline is trace-driven: it consumes the dynamic instruction stream the
functional simulator produced, models all timing (front end, renaming,
scheduling, execution, memory system, commit) and *recomputes every value* on
the physical register file.  Values are checked against the architectural
trace at commit, which is how RENO transformations are verified end to end.

Modelling notes (also summarised in DESIGN.md):

* Wrong-path instructions are not injected; a branch misprediction stalls the
  front end until the branch resolves plus the front-end refill depth.
* The wakeup/select loop latency is modelled through the producer readiness
  timestamp: a dependent may issue ``max(latency, scheduler_latency)`` cycles
  after its producer.
* Scheduling is event-driven (see :mod:`repro.uarch.scheduler`): dispatch
  counts each instruction's unavailable operands, every physical-register
  write is reported to the issue queue (the only path that decrements those
  counts), and the select loop visits only instructions whose count reached
  zero, kept oldest-first in per-class ready lists.  Loads additionally pass
  a memory-ordering check (:meth:`Pipeline._load_can_issue`) at select time.
* Memory-ordering violations are detected when a load would consume stale
  data (an older overlapping store has not executed); the load is held back
  and charged a squash penalty, and the store-set predictor is trained.

Hot-path representation: all per-in-flight-instruction state lives in the
structure-of-arrays :class:`~repro.uarch.inflight.InFlightWindow`, indexed by
``seq & mask`` (sequence numbers double as ROB positions because dispatch and
retirement are strictly in program order).  Static per-instruction facts come
from the decoded-op cache (:func:`repro.isa.instruction.decode_program`).
:meth:`Pipeline._run_cycles` is written as one interpreter-style loop —
commit, wakeup/select, execute and dispatch are inlined and every array and
counter is a local — so the per-instruction work is flat list/tuple
indexing plus one renamer call at dispatch (and one at commit when a
register is handed back).  Renaming always goes through the
:class:`~repro.uarch.rename.Renamer` interface; the inlined scheduler paths
are byte-exact re-statements of ``IssueQueue.add``/``select``, and the
scheduler-equivalence property tests pit the whole pipeline against an
object-model full-scan reference to keep them honest.
"""

from __future__ import annotations

import gc
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.functional.memory import Memory
from repro.functional.trace import DynamicInstruction, trace_records
from repro.isa.instruction import (
    CLASS_LOAD,
    CLASS_STORE,
    DF_CALL,
    DF_COND_BRANCH,
    DF_CONTROL,
    DF_LOAD,
    DF_MEM_SIGNED,
    DF_NO_EXECUTE,
    DF_STORE,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import DATA_BASE, STACK_BASE, Program
from repro.isa.registers import NUM_LOGICAL_REGS, RegisterNames
from repro.isa.semantics import MASK64, alu_eval, branch_taken, mask64, sign_extend
from repro.uarch.backend import CycleLoopBackend, resolve_backend
from repro.uarch.branch import BranchUnit
from repro.uarch.cache import CacheHierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.inflight import (
    NO_COMPLETE,
    TIMING_COLUMNS,
    InFlightWindow,
    TimingColumns,
)
from repro.uarch.lsq import LoadQueue, StoreQueue, StoreQueueEntry
from repro.uarch.observe import (
    DEFAULT_TIMELINE_CAPACITY,
    STALL_BRANCH,
    STALL_FRONTEND,
    STALL_ICACHE,
    OccupancyStats,
    TimelineRecorder,
)
from repro.uarch.regfile import NOT_READY, PhysicalRegisterFile
from repro.uarch.rename import BaselineRenamer, Renamer
from repro.uarch.scheduler import IssueQueue
from repro.uarch.stats import SimStats
from repro.uarch.storesets import StoreSets
from repro.uarch.tables import TraceTables

#: Sentinel for "front end stalled until further notice" (mispredicted branch
#: still unresolved).
_STALLED = 1 << 60

#: Sentinel for "no branch currently stalls the front end".
_NO_BRANCH = -1

#: Elimination-kind ids for ``InFlightWindow.elim_info`` (0 = not
#: eliminated; bit 4 marks re-execution at retire).
_ELIM_IDS = {"move": 1, "cf": 2, "cse": 3, "ra": 4}
_ELIM_KINDS = {kind_id: kind for kind, kind_id in _ELIM_IDS.items()}
_ELIM_REEXEC = 16


class CommitMismatchError(Exception):
    """Raised when an executed value disagrees with the architectural trace.

    This is the end-to-end correctness check for renaming (and for RENO's
    register-sharing transformations).  It should never fire.
    """


@dataclass
class SimResult:
    """Outcome of one timing simulation.

    ``finished`` is True: a run retires the whole trace or raises.  The
    field stays because it is part of the stored cell payload.

    ``timeline`` carries the ordered rows of the opt-in cycle-timeline
    recorder (``timeline_stride > 0``), oldest first; None otherwise.

    ``timing_records`` (with ``collect_timing``) is a
    :class:`~repro.uarch.inflight.TimingColumns` on every route: a
    ``Sequence`` of :class:`~repro.uarch.inflight.TimingRecord` that builds
    the records only when indexed.
    """

    stats: SimStats
    config: MachineConfig
    final_registers: list[int] = field(default_factory=list)
    timing_records: TimingColumns | None = None
    finished: bool = True
    timeline: list[tuple] | None = None

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        """Total simulated cycles."""
        return self.stats.cycles


class Pipeline:
    """A dynamically scheduled superscalar processor model."""

    def __init__(
        self,
        program: Program,
        trace: Sequence[DynamicInstruction],
        config: MachineConfig | None = None,
        renamer: Renamer | None = None,
        collect_timing: bool = False,
        record_stats: bool = False,
        timeline_stride: int = 0,
        timeline_capacity: int = DEFAULT_TIMELINE_CAPACITY,
        backend: "str | CycleLoopBackend | None" = None,
        tables: TraceTables | None = None,
    ):
        """Create a pipeline for one program run.

        Args:
            program: The assembled program (provides initial memory).
            trace: The dynamic instruction trace from the functional simulator.
            config: Machine parameters; defaults to the paper's 4-wide core.
            renamer: The renaming implementation; defaults to the conventional
                renamer.  Pass a :class:`repro.core.renamer.RenoRenamer` to
                enable RENO.
            collect_timing: If True, keep a per-retired-instruction timing
                record for critical-path analysis (costs memory).
            backend: Which cycle-loop implementation runs the simulation —
                a registered backend name (``"python"``, ``"compiled"``), a
                :class:`~repro.uarch.backend.CycleLoopBackend` object, or
                None to consult ``REPRO_BACKEND`` and default to
                ``python``.  Backends are cycle-exact: the choice affects
                wall-clock speed, never results.
            record_stats: If True, accumulate per-structure occupancy
                histograms and issue-port utilization
                (:class:`~repro.uarch.observe.OccupancyStats`, surfaced as
                ``result.stats.occupancy``).  Off by default: the cycle loop
                then pays a single pre-bound boolean test per cycle.
            timeline_stride: When > 0, additionally record one timeline row
                every this many cycles into a bounded ring buffer
                (:class:`~repro.uarch.observe.TimelineRecorder`; implies
                ``record_stats``).
            timeline_capacity: Ring-buffer size for the timeline recorder.
            tables: The read-only tables derived from ``program`` and
                ``trace`` (:class:`~repro.uarch.tables.TraceTables`), shared
                by every pipeline that replays the same trace; None builds
                them for this pipeline alone.
        """
        self.config = config or MachineConfig.default_4wide()
        self.config.validate()
        self.program = program
        self.trace = trace
        self.collect_timing = collect_timing
        if timeline_stride < 0:
            raise ValueError(f"timeline_stride must be >= 0, got {timeline_stride}")
        self.record_stats = bool(record_stats) or timeline_stride > 0
        self.timeline_stride = timeline_stride
        self._trace_length = len(trace)
        if tables is None:
            tables = TraceTables(program, trace)
        elif tables.program is not program or tables.trace is not trace:
            raise ValueError(
                "trace tables were built for another program or trace")
        #: Shared read-only tables of (program, trace); never written here.
        self.tables = tables

        initial_regs = [0] * NUM_LOGICAL_REGS
        initial_regs[RegisterNames.SP] = STACK_BASE
        initial_regs[RegisterNames.GP] = DATA_BASE
        self.prf = PhysicalRegisterFile(self.config.num_physical_regs, initial_regs)
        # Config-derived scalars never change during (or across) runs.
        self._sched_latency = self.config.scheduler_latency
        self._commit_width = self.config.commit_width
        self._retire_dcache_ports = self.config.retire_dcache_ports
        self._rename_width = self.config.rename_width
        self._taken_branch_limit = self.config.taken_branches_per_fetch
        self._fetch_block_bytes = self.config.l1i.block_bytes
        self._front_end_depth = self.config.front_end_depth
        self._rob_capacity = self.config.rob_size
        self.renamer: Renamer = renamer or BaselineRenamer(self.config.num_physical_regs)

        self.branch_unit = BranchUnit(self.config)
        self.caches = CacheHierarchy(self.config)
        self.store_sets = StoreSets(self.config.store_set_entries)
        #: The structure-of-arrays in-flight window shared by every stage.
        self.window = InFlightWindow(self.config.rob_size)
        self.issue_queue = IssueQueue(self.config, self.window, self.prf.ready_cycle)
        self.store_queue = StoreQueue(self.config.store_queue_size)
        self.load_queue = LoadQueue(self.config.load_queue_size)
        self.memory = Memory.from_image(tables.memory_image)

        self.stats = SimStats()
        if self.record_stats:
            self.stats.occupancy = OccupancyStats.for_config(self.config)
        self.timeline: TimelineRecorder | None = (
            TimelineRecorder(stride=timeline_stride, capacity=timeline_capacity)
            if timeline_stride > 0 else None)
        #: With ``collect_timing``: name -> column indexed by seq for each
        #: of :data:`~repro.uarch.inflight.TIMING_COLUMNS`, written at
        #: commit (the kernel's ``TR_*`` columns).
        self.timing_columns: dict[str, list] = (
            {name: [0] * self._trace_length for name in TIMING_COLUMNS}
            if collect_timing else {})

        # Run cursors + front-end state (mirrored from the cycle loop's
        # locals when _run_cycles returns).
        self._cycle = 0
        self._committed = 0
        self._fetch_index = 0
        self._fetch_resume_cycle = 0
        self._waiting_branch = _NO_BRANCH
        self._last_fetch_block = -1
        # Which observe.STALL_* bucket the current fetch stall belongs to
        # (only read while record_stats is on).
        self._fetch_stall_reason = STALL_BRANCH

        # With collect_timing: preg -> seq of the instruction that last
        # wrote it, or -1 (the producers of the critical-path model).
        self._preg_writer: list[int] = (
            [-1] * self.config.num_physical_regs if collect_timing else [])

        # Loads currently being held back because of an ordering violation.
        self._violated_loads: set[int] = set()

        #: The cycle-loop implementation (see :mod:`repro.uarch.backend`),
        #: resolved once at construction.
        self.backend = resolve_backend(backend)
        #: The resolved backend's registry name (``"python"`` after a
        #: silent fallback, whatever was requested otherwise) — recorded in
        #: result provenance by the harness layers.
        self.backend_name = self.backend.name

        # Hot-loop aliases of the components above.  The value/readiness
        # arrays are stable attributes of the register file.
        self._prf_values = self.prf.values
        self._prf_ready = self.prf.ready_cycle
        # Producer-side wakeup aliases: most register writes have no
        # registered waiters, so the membership test saves the call.
        self._iq_waiters = self.issue_queue._waiters
        self._iq_wakeup = self.issue_queue.wakeup
        # Window-array aliases (list identities are stable between runs).
        window = self.window
        self._w_mask = window.mask
        self._w_dispatch = window.dispatch_cycle
        self._w_issue = window.issue_cycle
        self._w_complete = window.complete_cycle
        self._w_latency = window.latency
        self._w_value = window.value
        self._w_eff = window.eff_addr
        self._w_dcache = window.dcache_latency
        self._w_replayed = window.replayed
        self._w_mispred = window.mispredicted
        self._w_dest = window.dest_preg
        self._w_fextra = window.fusion_extra

    @property
    def _trace_ops(self) -> list[tuple]:
        """The decoded-op tuple of every trace record, so dispatch reaches
        it with one subscript on the fetch index (built by the shared
        tables when a run first needs it)."""
        return self.tables.trace_ops

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Simulate until every trace instruction has retired.

        The loop is event-driven: after the three pipeline phases run for a
        cycle, it asks the issue queue when the next wakeup is due and — if
        nothing is ready, the ROB head is not yet committable and the front
        end is stalled (or out of trace) — jumps the cycle counter straight
        to the next event instead of spinning through guaranteed no-op
        cycles.  Skipped stretches are pure no-ops except for the fetch-stall
        counter, which is credited in bulk, so all statistics are identical
        to the cycle-by-cycle loop's.

        The run is whole: it ends when the trace has retired, or raises.
        On the ``python`` backend it is :meth:`_run_cycles`.  The
        ``compiled`` backend runs whole cells only, without a pipeline
        (:meth:`~repro.uarch.compiled.backend.CompiledBackend.run_fresh`,
        what :func:`~repro.core.simulator.simulate` calls), so a pipeline
        built on it raises here instead of running the python loop.

        Returns:
            The simulation result.
        """
        # The loop allocates short-lived, acyclic objects (rename results,
        # wakeup buckets); generational GC only burns time re-scanning
        # them.  Reference counting reclaims everything, so pause GC for
        # the duration (restoring the caller's setting afterwards).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.backend.run_cycles(self)
        finally:
            if gc_was_enabled:
                gc.enable()
        self._merge_component_stats()
        timeline = self.timeline.ordered() if self.timeline is not None else None
        records = (TimingColumns({**self.timing_columns,
                                  **self.tables.record_columns},
                                 self._committed)
                   if self.collect_timing else None)
        return SimResult(
            stats=self.stats,
            config=self.config,
            final_registers=self._final_registers(),
            timing_records=records,
            finished=self.finished,
            timeline=timeline,
        )

    @property
    def finished(self) -> bool:
        """Whether every trace instruction has retired."""
        return self._committed >= self._trace_length

    def _run_cycles(self) -> None:
        """The cycle loop proper (see :meth:`run` for the event-driven model).

        All phases — commit, wakeup/select, execute, dispatch — are inlined
        into this one function so every array, counter and piece of
        front-end state is a local variable for the whole run.  Renaming
        goes through the renamer's interface (``begin_group()`` once per
        dispatch cycle, ``rename_next()`` per instruction, ``commit()`` per
        handed-back register), so :class:`~repro.uarch.rename.BaselineRenamer`
        and :class:`repro.core.renamer.RenoRenamer` are the one Python
        definition of each renaming scheme (the compiled backend's
        generated C is tested against them).  One structural fast path is
        chosen up front:

        * ``inline_iq`` — issue-queue bookkeeping (operand counting,
          waiter/wakeup registration, wakeup drain, single-class select) is
          inlined when the queue is the stock :class:`IssueQueue`; a
          substituted queue (the equivalence tests' object-model reference)
          gets the ``add()``/``select()`` method calls instead, and the
          rare multi-class select falls back to the method with the local
          counters synced around the call.

        It stays because it pays for its code (2 vCPU, Python 3.11, on
        ``scripts/perf_smoke.py``'s five-kernel fig8 probe): routing the
        queue through its methods made the loop a median 1.09× slower over
        16 alternating rounds (1.26× best-of), and with inlined renaming
        dropped as well, 1.29× best-of against both inlined.  Inlining
        conventional renaming alone was worth a median 1.13× there, not
        enough for a second copy of the renamer.

        The fast path changes no modelled behaviour — it removes Python
        call and object overhead only, which the scheduler equivalence and
        rename invariant property tests check.  Frequently bumped
        statistics are accumulated in locals and folded into
        ``self.stats`` once at the end of the run.
        """
        cycle = self._cycle
        committed = self._committed
        fetch_index = self._fetch_index
        fetch_resume = self._fetch_resume_cycle
        waiting_branch = self._waiting_branch
        last_fetch_block = self._last_fetch_block
        total = self._trace_length
        # The cycle loop dominates wall-clock time; bind everything it
        # touches once instead of re-resolving attributes every cycle.
        stats = self.stats
        max_cycles = self.config.max_cycles
        issue_queue = self.issue_queue
        select = issue_queue.select
        load_ready = self._load_can_issue
        wakeup_heap = issue_queue._wakeup_heap    # list identity is stable
        iq_waiters = self._iq_waiters
        iq_wakeups = issue_queue._wakeups
        iq_ready = issue_queue._ready
        iq_class = self.window.class_id
        iq_capacity = issue_queue.capacity
        iq_add = issue_queue.add
        w_waiting = self.window.waiting_ops
        inline_iq = type(issue_queue) is IssueQueue
        iq_count = issue_queue._count
        iq_ready_total = issue_queue._ready_total
        limit_int = self.config.int_issue
        limit_load = self.config.load_issue
        limit_store = self.config.store_issue
        limit_fp = self.config.fp_issue
        total_issue = self.config.total_issue

        renamer = self.renamer
        rename_next = renamer.rename_next
        renamer_begin = renamer.begin_group
        renamer_commit = renamer.commit
        free_count = renamer.free_register_count

        mask = self._w_mask
        w_dispatch = self._w_dispatch
        w_issue = self._w_issue
        w_complete = self._w_complete
        w_latency = self._w_latency
        w_value = self._w_value
        w_eff = self._w_eff
        w_dcache = self._w_dcache
        w_replayed = self._w_replayed
        w_mispred = self._w_mispred
        w_dest = self._w_dest
        w_prev = self.window.prev_dest
        w_elim = self.window.elim_info
        w_elim_preg = self.window.elim_preg
        w_elim_disp = self.window.elim_disp
        w_fextra = self._w_fextra
        w_nsrc = self.window.nsrc
        w_s0p = self.window.src0_preg
        w_s0d = self.window.src0_disp
        w_s1p = self.window.src1_preg
        w_s1d = self.window.src1_disp
        w_nprod = self.window.nprod
        w_prods = (self.window.prod0, self.window.prod1, self.window.prod2)
        w_prod0, w_prod1, w_prod2 = w_prods

        prf_values = self._prf_values
        prf_ready = self._prf_ready
        sched_latency = self._sched_latency
        front_end_depth = self._front_end_depth
        trace = trace_records(self.trace)
        trace_ops = self._trace_ops
        commit_width = self._commit_width
        retire_dcache_ports = self._retire_dcache_ports
        rename_width = self._rename_width
        taken_branch_limit = self._taken_branch_limit
        fetch_block_bytes = self._fetch_block_bytes
        rob_capacity = self._rob_capacity
        num_pregs = self.config.num_physical_regs
        collect_timing = self.collect_timing
        preg_writer = self._preg_writer
        if collect_timing:
            (tr_dispatch, tr_issue, tr_complete, tr_retire, tr_dcache,
             tr_latency, tr_mispred, tr_elim, tr_nprod, tr_prod0, tr_prod1,
             tr_prod2) = map(self.timing_columns.__getitem__, TIMING_COLUMNS)
        reexecute_load = self._reexecute_load
        check_value = self._check_value

        caches = self.caches
        caches_access = caches._access
        l1i_cache = caches.l1i
        l1d_cache = caches.l1d
        l1d_latency = self.config.l1d.latency
        violation_penalty = self.config.memory_violation_penalty
        branch_unit = self.branch_unit
        branch_process = branch_unit.process
        branch_predict_update = branch_unit.direction.predict_and_update
        branch_check_target = branch_unit._check_target
        memory_read = self.memory.read
        memory_write = self.memory.write
        mem_pages = self.memory._pages
        sq_check = self.store_queue.check_load
        sq_entries = self.store_queue.entries
        sq_by_seq = self.store_queue._by_seq
        sq_capacity = self.store_queue.capacity
        sq_pop = self.store_queue.pop_committed
        sq_len = len(sq_entries)
        lq_entries = self.load_queue.entries
        lq_capacity = self.load_queue.capacity
        lq_add = lq_entries.add
        lq_discard = lq_entries.discard
        lq_len = len(lq_entries)

        # The dominant ALU opcodes and branch conditions are evaluated
        # inline (identical to the corresponding alu_eval / branch_taken
        # branches); everything else takes the call.
        op_addi = Opcode.ADDI
        op_add = Opcode.ADD
        op_andi = Opcode.ANDI
        op_srli = Opcode.SRLI
        op_subi = Opcode.SUBI
        op_sub = Opcode.SUB
        op_mov = Opcode.MOV
        op_bgt = Opcode.BGT
        op_bne = Opcode.BNE
        op_beq = Opcode.BEQ
        sign_limit = 1 << 63
        # Fetch blocks are power-of-two sized (the same assumption
        # Cache.block_shift makes), so the block id is a shift.
        fb_shift = fetch_block_bytes.bit_length() - 1

        # Stats accumulated in locals, folded into self.stats after the run.
        issued_total = 0
        fetched_total = 0
        fetch_stalls = 0
        pregs_alloc_total = 0
        fused_total = 0
        fusion_penalty_total = 0
        store_forwards = 0
        elim_moves = elim_folds = elim_cse = elim_ra = 0

        # Observability (one hoisted flag; everything below it is dead and
        # unbound when record_stats is off, so the off-mode cost is the
        # single local boolean test per cycle).
        record_stats = self.record_stats
        stall_reason = self._fetch_stall_reason
        if record_stats:
            occ = stats.occupancy
            occ_rob = occ.rob
            occ_iq = occ.iq
            occ_prf = occ.prf
            occ_sq = occ.sq
            occ_lq = occ.lq
            occ_ready = occ.ready
            occ_issued = occ.issued
            occ_class = occ.issued_by_class
            occ_stall = occ.fetch_stall_reasons
            timeline = self.timeline
            tl_stride = timeline.stride if timeline is not None else 0
            tl_record = timeline.record if timeline is not None else None

        empty_selection: list[int] = []
        while committed < total:
            if cycle >= max_cycles:
                self._flush_loop_stats(
                    stats, cycle, committed, issued_total, fetched_total,
                    fetch_stalls, pregs_alloc_total, fused_total,
                    fusion_penalty_total, store_forwards, elim_moves,
                    elim_folds, elim_cse, elim_ra)
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({committed}/{total} instructions retired)"
                )

            # ---------------- Commit ----------------
            # Guarded: enter only when the head slot holds a completed
            # instruction whose completion is in the past.  An empty ROB or
            # a still-waiting head both leave complete_cycle at NO_COMPLETE,
            # so one comparison covers every "cannot commit" case.
            slot = committed & mask
            if w_complete[slot] < cycle:
                budget = commit_width
                dcache_ports = retire_dcache_ports
                while True:
                    op = trace_ops[committed]
                    flags = op[0]
                    elim = w_elim[slot]
                    if flags & DF_STORE:
                        if not dcache_ports:
                            break
                        # Inlined store commit: write memory + d-cache
                        # through the retire port, drop the SQ entry.
                        address = w_eff[slot]
                        size = op[3]
                        offset = address & 4095
                        if offset + size <= 4096:
                            # Inlined Memory.write fast path (single page;
                            # the store value was masked at execute).
                            page_number = address >> 12
                            page = mem_pages.get(page_number)
                            if page is None:
                                page = bytearray(4096)
                                mem_pages[page_number] = page
                            page[offset:offset + size] = \
                                w_value[slot].to_bytes(size, "little")
                        else:
                            memory_write(address, size, w_value[slot])
                        caches_access(l1d_cache, address, cycle, True)
                        sq_pop(committed)
                        sq_len -= 1
                        dcache_ports -= 1
                    elif elim & _ELIM_REEXEC:
                        if not dcache_ports:
                            break
                        reexecute_load(committed, op, cycle)
                        dcache_ports -= 1
                    if op[4] >= 0:
                        dyn_result = trace[committed].result
                        if dyn_result is not None:
                            # Inlined fast paths of _check_value:
                            # non-eliminated results compare directly,
                            # eliminated ones against the shared register;
                            # the method re-derives the value and raises
                            # with full context on a mismatch.
                            if elim:
                                if ((prf_values[w_elim_preg[slot]]
                                        + w_elim_disp[slot])
                                        & MASK64) != dyn_result:
                                    check_value(committed, slot)
                            elif w_value[slot] != dyn_result:
                                check_value(committed, slot)
                    if flags & DF_LOAD and not elim:
                        lq_discard(committed)
                        lq_len -= 1
                    # Renamer hand-back of the previous mapping, if any.
                    prev = w_prev[slot]
                    if prev >= 0:
                        renamer_commit(prev)
                    if elim:
                        kind = elim & 15
                        if kind == 1:
                            elim_moves += 1
                        elif kind == 2:
                            elim_folds += 1
                        elif kind == 3:
                            elim_cse += 1
                        elif kind == 4:
                            elim_ra += 1
                    if collect_timing:
                        # The record's columns, by seq (the trace's tables
                        # hold its static fields).
                        tr_dispatch[committed] = w_dispatch[slot]
                        tr_issue[committed] = w_issue[slot]
                        tr_complete[committed] = w_complete[slot]
                        tr_retire[committed] = cycle
                        tr_dcache[committed] = w_dcache[slot]
                        tr_latency[committed] = w_latency[slot]
                        tr_mispred[committed] = w_mispred[slot]
                        tr_elim[committed] = elim != 0
                        nprod = w_nprod[slot]
                        tr_nprod[committed] = nprod
                        if nprod:
                            tr_prod0[committed] = w_prod0[slot]
                            if nprod > 1:
                                tr_prod1[committed] = w_prod1[slot]
                                if nprod > 2:
                                    tr_prod2[committed] = w_prod2[slot]
                    # Retirement: release the slot (the NO_COMPLETE reset is
                    # what the commit guard and slot-reuse contract rely on).
                    w_complete[slot] = NO_COMPLETE
                    committed += 1
                    budget -= 1
                    if not budget or committed >= fetch_index:
                        break
                    slot = committed & mask
                    if w_complete[slot] >= cycle:
                        break

            # ---------------- Wakeup + select ----------------
            # Operand readiness is guaranteed by the wakeup model; the
            # memory-ordering callback gates load-class candidates only.
            selected = empty_selection
            if inline_iq:
                if wakeup_heap and wakeup_heap[0] <= cycle:
                    # Inlined wakeup drain of IssueQueue.select.
                    while wakeup_heap and wakeup_heap[0] <= cycle:
                        for wseq in iq_wakeups.pop(heappop(wakeup_heap)):
                            wslot = wseq & mask
                            pending = w_waiting[wslot] - 1
                            w_waiting[wslot] = pending
                            if not pending:
                                iq_ready_total += 1
                                bucket = iq_ready[iq_class[wslot]]
                                if bucket and wseq < bucket[-1]:
                                    insort(bucket, wseq)
                                else:
                                    bucket.append(wseq)
                if iq_ready_total:
                    # Inlined IssueQueue.select, single-class fast path: when
                    # exactly one class has ready entries (the overwhelmingly
                    # common case) walk that list oldest-first in place.  The
                    # int+load pair (the common two-class case) gets its own
                    # merge; anything else falls back to the method.
                    r_int = iq_ready[0]
                    r_load = iq_ready[1]
                    r_store = iq_ready[2]
                    entries = gate = None
                    limit = 0
                    handled = False
                    if r_int:
                        if not (r_load or r_store or iq_ready[3]):
                            entries = r_int
                            limit = limit_int
                            single = 0
                        elif (r_load and limit_int and limit_load
                                and not (r_store or iq_ready[3])):
                            # With no in-flight store, the memory-ordering
                            # gate is identically true and can be skipped.
                            gate_on = bool(sq_entries)
                            # Two-class merge by sequence number, identical
                            # to the general cursor algorithm restricted to
                            # the int and load classes.
                            handled = True
                            i_idx = l_idx = 0
                            i_cnt = len(r_int)
                            l_cnt = len(r_load)
                            i_lim = limit_int
                            l_lim = limit_load
                            remaining = total_issue
                            l_kept = None
                            selected = []
                            while remaining:
                                if i_idx < i_cnt and i_lim:
                                    take_load = (l_idx < l_cnt and l_lim
                                                 and r_load[l_idx] < r_int[i_idx])
                                elif l_idx < l_cnt and l_lim:
                                    take_load = True
                                else:
                                    break
                                # The earliest-issue-is-next-cycle veto the
                                # select method applies is provably never
                                # taken here: select runs before dispatch
                                # within a cycle and wakeups are scheduled
                                # strictly past the dispatch cycle, so every
                                # ready entry was dispatched in an earlier
                                # cycle.
                                if take_load:
                                    sseq = r_load[l_idx]
                                    l_idx += 1
                                    if gate_on and not load_ready(sseq, cycle):
                                        if l_kept is None:
                                            l_kept = [sseq]
                                        else:
                                            l_kept.append(sseq)
                                    else:
                                        selected.append(sseq)
                                        l_lim -= 1
                                        remaining -= 1
                                else:
                                    # Int entries have no gate (and the
                                    # dispatch veto is dead here), so every
                                    # visited one is selected.
                                    selected.append(r_int[i_idx])
                                    i_idx += 1
                                    i_lim -= 1
                                    remaining -= 1
                            if i_idx:
                                if i_idx == i_cnt:
                                    r_int.clear()
                                else:
                                    del r_int[:i_idx]
                            if l_idx:
                                if l_kept is None:
                                    if l_idx == l_cnt:
                                        r_load.clear()
                                    else:
                                        del r_load[:l_idx]
                                else:
                                    l_kept.extend(r_load[l_idx:])
                                    iq_ready[1] = l_kept
                            if selected:
                                iq_count -= len(selected)
                                iq_ready_total -= len(selected)
                    elif r_load:
                        if not (r_store or iq_ready[3]):
                            entries = r_load
                            limit = limit_load
                            # The memory-ordering gate is identically true
                            # with no in-flight store; skip the calls then.
                            gate = load_ready if sq_entries else None
                            single = 1
                    elif r_store:
                        if not iq_ready[3]:
                            entries = r_store
                            limit = limit_store
                            single = 2
                    else:
                        entries = iq_ready[3]
                        limit = limit_fp
                        single = 3
                    if entries is not None:
                        if limit:
                            # (The select method's dispatched-this-cycle
                            # veto is provably never taken on this inline
                            # path — see the two-class merge note.)
                            remaining = total_issue
                            kept = None
                            index = 0
                            count = len(entries)
                            selected = []
                            if gate is None:
                                width = limit if limit < remaining else remaining
                                if width >= count:
                                    # Everything ready issues: take the
                                    # whole list without a per-entry walk.
                                    selected = entries[:]
                                    index = count
                                else:
                                    selected = entries[:width]
                                    index = width
                                limit -= index
                            else:
                                while index < count and limit and remaining:
                                    sseq = entries[index]
                                    index += 1
                                    if not gate(sseq, cycle):
                                        if kept is None:
                                            kept = [sseq]
                                        else:
                                            kept.append(sseq)
                                        continue
                                    selected.append(sseq)
                                    limit -= 1
                                    remaining -= 1
                            if index:
                                if kept is None:
                                    if index == count:
                                        entries.clear()
                                    else:
                                        del entries[:index]
                                else:
                                    kept.extend(entries[index:])
                                    iq_ready[single] = kept
                            if selected:
                                iq_count -= len(selected)
                                iq_ready_total -= len(selected)
                    elif not handled:
                        # Multi-class competition (rare): use the method with
                        # the local counters synced around the call.
                        issue_queue._count = iq_count
                        issue_queue._ready_total = iq_ready_total
                        selected = select(cycle, load_ready)
                        iq_count = issue_queue._count
                        iq_ready_total = issue_queue._ready_total
            elif issue_queue._ready_total or (wakeup_heap and wakeup_heap[0] <= cycle):
                selected = select(cycle, load_ready)

            # ---------------- Execute ----------------
            if selected:
                issued_total += len(selected)
                for seq in selected:
                    slot = seq & mask
                    op = trace_ops[seq]
                    # Operand materialisation straight off the flattened
                    # source arrays, with the fused-operand addition folded
                    # into the same pass.
                    ns = w_nsrc[slot]
                    value0 = value1 = 0
                    fused = False
                    if ns:
                        value0 = prf_values[w_s0p[slot]]
                        disp = w_s0d[slot]
                        if disp:
                            value0 = (value0 + disp) & MASK64
                            fused = True
                        if ns > 1:
                            value1 = prf_values[w_s1p[slot]]
                            disp = w_s1d[slot]
                            if disp:
                                value1 = (value1 + disp) & MASK64
                                fused = True
                    fextra = w_fextra[slot]
                    if fused:
                        fused_total += 1
                        fusion_penalty_total += fextra
                    if collect_timing:
                        w_issue[slot] = cycle     # only timing records read it
                    class_id = op[1]
                    flags = op[0]
                    if class_id == CLASS_LOAD:
                        # Inlined load execution.
                        dyn = trace[seq]
                        address = (value0 + op[5]) & MASK64
                        if address != dyn.eff_addr:
                            raise CommitMismatchError(
                                f"load #{seq} computed address {address:#x}, "
                                f"architectural address {dyn.eff_addr:#x}"
                            )
                        w_eff[slot] = address
                        mem_bytes = op[3]
                        raw = None
                        if sq_entries:
                            check = sq_check(seq, address, mem_bytes)
                            if check.action == "forward":
                                raw = check.value
                                dcache_latency = l1d_latency
                                store_forwards += 1
                        if raw is None:
                            # Inlined Memory.read fast path (single page).
                            offset = address & 4095
                            if offset + mem_bytes <= 4096:
                                page = mem_pages.get(address >> 12)
                                raw = (0 if page is None else int.from_bytes(
                                    page[offset:offset + mem_bytes], "little"))
                            else:
                                raw = memory_read(address, mem_bytes)
                            access = caches_access(l1d_cache, address, cycle, False)
                            dcache_latency = access.latency
                        value = (sign_extend(raw, 8 * mem_bytes)
                                 if flags & DF_MEM_SIGNED else raw)
                        if value != dyn.result:
                            # A store the model believed non-conflicting
                            # actually overlapped (should be prevented by the
                            # violation check); fall back to the
                            # architectural value, account it as a replay.
                            stats.memory_order_violations += 1
                            stats.load_replays += 1
                            value = dyn.result
                            dcache_latency += violation_penalty
                        if w_replayed[slot]:
                            dcache_latency += violation_penalty
                        w_value[slot] = value
                        w_dcache[slot] = dcache_latency
                        total_latency = op[2] + fextra + dcache_latency
                        w_latency[slot] = total_latency
                        w_complete[slot] = cycle + total_latency
                        dest_preg = w_dest[slot]
                        if dest_preg >= 0:
                            ready = cycle + (total_latency
                                             if total_latency > sched_latency
                                             else sched_latency)
                            # Inlined PRF write + IssueQueue.wakeup.
                            prf_values[dest_preg] = value
                            prf_ready[dest_preg] = ready
                            if dest_preg in iq_waiters:
                                waiters = iq_waiters.pop(dest_preg)
                                bucket = iq_wakeups.get(ready)
                                if bucket is None:
                                    iq_wakeups[ready] = waiters
                                    heappush(wakeup_heap, ready)
                                else:
                                    bucket.extend(waiters)
                        continue          # loads are never branches
                    if class_id == CLASS_STORE:
                        # Inlined store execution.
                        dyn = trace[seq]
                        address = (value0 + op[5]) & MASK64
                        if address != dyn.eff_addr:
                            raise CommitMismatchError(
                                f"store #{seq} computed address {address:#x}, "
                                f"architectural address {dyn.eff_addr:#x}"
                            )
                        value = value1 & op[8]    # data masked to mem_bytes
                        w_eff[slot] = address
                        w_value[slot] = value
                        complete = cycle + op[2] + fextra
                        w_complete[slot] = complete
                        entry = sq_by_seq[seq]
                        entry.addr = address
                        entry.value = value
                        entry.executed = True
                        entry.complete_cycle = complete
                        continue          # stores are never branches
                    latency = op[2] + fextra
                    complete = cycle + latency
                    w_complete[slot] = complete
                    if flags & DF_COND_BRANCH:
                        opc = op[6]
                        if opc is op_bgt:
                            computed_taken = 0 < value0 < sign_limit
                        elif opc is op_bne:
                            computed_taken = value0 != 0
                        elif opc is op_beq:
                            computed_taken = value0 == 0
                        else:
                            computed_taken = branch_taken(opc, value0)
                        if computed_taken != trace[seq].taken:
                            raise CommitMismatchError(
                                f"branch #{seq} computed direction "
                                f"{computed_taken}, architectural "
                                f"direction {trace[seq].taken}"
                            )
                    elif op[4] >= 0:              # has a destination register
                        if flags & DF_CALL:
                            value = (trace[seq].pc + 4) & MASK64
                        else:
                            opc = op[6]
                            if opc is op_addi:
                                value = (value0 + op[5]) & MASK64
                            elif opc is op_add:
                                value = (value0 + value1) & MASK64
                            elif opc is op_andi:
                                value = value0 & (op[5] & MASK64)
                            elif opc is op_srli:
                                value = value0 >> (op[5] & 63)
                            elif opc is op_subi:
                                value = (value0 - op[5]) & MASK64
                            elif opc is op_sub:
                                value = (value0 - value1) & MASK64
                            elif opc is op_mov:
                                value = value0
                            else:
                                value = alu_eval(opc, value0, value1, op[5])
                        w_value[slot] = value
                        dest_preg = w_dest[slot]
                        if dest_preg >= 0:
                            ready = cycle + (latency if latency > sched_latency
                                             else sched_latency)
                            # Inlined PRF write + IssueQueue.wakeup.
                            prf_values[dest_preg] = value
                            prf_ready[dest_preg] = ready
                            if dest_preg in iq_waiters:
                                waiters = iq_waiters.pop(dest_preg)
                                bucket = iq_wakeups.get(ready)
                                if bucket is None:
                                    iq_wakeups[ready] = waiters
                                    heappush(wakeup_heap, ready)
                                else:
                                    bucket.extend(waiters)
                    if w_mispred[slot] and waiting_branch == seq:
                        fetch_resume = complete + front_end_depth
                        waiting_branch = _NO_BRANCH
                        stall_reason = STALL_BRANCH

            # ---------------- Fetch + rename + dispatch ----------------
            if fetch_index < total:
                if cycle < fetch_resume:
                    fetch_stalls += 1
                    if record_stats:
                        occ_stall[stall_reason] += 1
                else:
                    rob_room = rob_capacity - (fetch_index - committed)
                    iq_room = iq_capacity - (iq_count if inline_iq
                                             else issue_queue._count)
                    sq_room = sq_capacity - sq_len
                    lq_room = lq_capacity - lq_len
                    taken_branches = 0
                    dispatched = 0
                    pregs_allocated = 0
                    renamer_begin()
                    while dispatched < rename_width and fetch_index < total:
                        op = trace_ops[fetch_index]
                        flags = op[0]
                        dyn = trace[fetch_index]

                        # Structural stalls (checked conservatively before
                        # renaming; the room counters mirror the containers'
                        # free space).
                        if not rob_room:
                            stats.rob_stall_cycles += 1
                            break
                        if not iq_room:
                            stats.iq_stall_cycles += 1
                            break
                        if flags & DF_STORE:
                            if not sq_room:
                                stats.lsq_stall_cycles += 1
                                break
                        elif flags & DF_LOAD and not lq_room:
                            stats.lsq_stall_cycles += 1
                            break

                        # Instruction cache: one access per new block.
                        block = dyn.pc >> fb_shift
                        if block != last_fetch_block:
                            access = caches_access(l1i_cache, dyn.pc, cycle, False)
                            last_fetch_block = block
                            if not access.l1_hit:
                                fetch_resume = cycle + access.latency
                                stall_reason = STALL_ICACHE
                                break

                        # Taken-branch fetch limit.
                        is_taken_control = flags & DF_CONTROL and dyn.taken is True
                        if is_taken_control and taken_branches >= taken_branch_limit:
                            break

                        seq = fetch_index     # trace seq == dispatch order
                        slot = seq & mask
                        result = rename_next(dyn, op)
                        if result is None:
                            stats.rename_stall_cycles += 1
                            break
                        # Flatten the result into the window so commit and
                        # execute stay object-free.
                        prev = result.prev_dest_preg
                        w_prev[slot] = -1 if prev is None else prev
                        sources = result.sources
                        ns = len(sources)
                        if ns:
                            source = sources[0]
                            p0 = source.preg
                            d0 = source.disp
                            if ns > 1:
                                source = sources[1]
                                p1 = source.preg
                                d1 = source.disp
                        eliminated = result.eliminated
                        if eliminated:
                            shared = result.dest_preg
                            w_elim[slot] = (
                                _ELIM_IDS.get(result.elim_kind, 8)
                                | (_ELIM_REEXEC if result.needs_reexecution
                                   else 0))
                            w_elim_preg[slot] = shared
                            w_elim_disp[slot] = result.dest_disp
                        else:
                            w_elim[slot] = 0
                        if collect_timing:
                            # The sources' writers, then an eliminated
                            # instruction's shared destination's.
                            nprod = ns
                            if ns:
                                w_prod0[slot] = preg_writer[p0]
                                if ns > 1:
                                    w_prod1[slot] = preg_writer[p1]
                            if eliminated:
                                w_prods[nprod][slot] = preg_writer[shared]
                                nprod += 1
                            w_nprod[slot] = nprod
                            w_issue[slot] = -1
                            w_dcache[slot] = 0
                            w_mispred[slot] = 0
                            w_latency[slot] = op[2]
                        if result.allocated:
                            dest_preg = result.dest_preg
                            prf_ready[dest_preg] = NOT_READY
                            w_dest[slot] = dest_preg
                            if collect_timing:
                                preg_writer[dest_preg] = seq
                            pregs_allocated += 1
                        else:
                            w_dest[slot] = -1
                        w_dispatch[slot] = cycle

                        if is_taken_control:
                            taken_branches += 1

                        # Branch prediction.  Conditional branches (the
                        # common control class) are handled inline: direction
                        # predict+train, then the BTB check only on correct
                        # taken predictions — identical to BranchUnit.process.
                        stop_after = False
                        if flags & DF_CONTROL:
                            if flags & DF_COND_BRANCH:
                                branch_unit.conditional_branches += 1
                                predicted_taken = branch_predict_update(
                                    dyn.pc, is_taken_control)
                                if predicted_taken != is_taken_control:
                                    branch_unit.mispredictions += 1
                                    w_mispred[slot] = 1
                                    waiting_branch = seq
                                    fetch_resume = _STALLED
                                    stall_reason = STALL_BRANCH
                                    stop_after = True
                                elif is_taken_control:
                                    outcome = branch_check_target(dyn)
                                    if outcome.mispredicted:
                                        # Target unknown at fetch but
                                        # computable at decode: a short
                                        # front-end bubble, not a full
                                        # misprediction.
                                        fetch_resume = cycle + 2
                                        stall_reason = STALL_FRONTEND
                                        stop_after = True
                            else:
                                outcome = branch_process(dyn)
                                if outcome.mispredicted:
                                    if outcome.reason == "btb":
                                        fetch_resume = cycle + 2
                                        stall_reason = STALL_FRONTEND
                                    else:
                                        w_mispred[slot] = 1
                                        waiting_branch = seq
                                        fetch_resume = _STALLED
                                        stall_reason = STALL_BRANCH
                                    stop_after = True

                        # Insertion: initialise the slot and, unless the
                        # instruction was collapsed away, enter the IQ/LSQ.
                        # Capacity was already checked above.
                        rob_room -= 1
                        if eliminated or flags & DF_NO_EXECUTE:
                            # Collapsed out of the execution core (or a
                            # NOP/HALT): no issue-queue entry, no execution —
                            # immediately complete for retirement purposes.
                            w_complete[slot] = cycle
                        else:
                            class_id = op[1]
                            w_fextra[slot] = result.fusion_extra_latency
                            w_nsrc[slot] = ns
                            if ns:
                                w_s0p[slot] = p0
                                w_s0d[slot] = d0
                                if ns > 1:
                                    w_s1p[slot] = p1
                                    w_s1d[slot] = d1
                            if inline_iq:
                                # Inlined IssueQueue.add over the local
                                # operand pregs (each source registers its
                                # own wakeup, duplicates included).
                                iq_class[slot] = class_id
                                pending = 0
                                if ns:
                                    ready_at = prf_ready[p0]
                                    if ready_at > cycle:
                                        pending = 1
                                        if ready_at == NOT_READY:
                                            bucket = iq_waiters.get(p0)
                                            if bucket is None:
                                                iq_waiters[p0] = [seq]
                                            else:
                                                bucket.append(seq)
                                        else:
                                            bucket = iq_wakeups.get(ready_at)
                                            if bucket is None:
                                                iq_wakeups[ready_at] = [seq]
                                                heappush(wakeup_heap, ready_at)
                                            else:
                                                bucket.append(seq)
                                    if ns > 1:
                                        ready_at = prf_ready[p1]
                                        if ready_at > cycle:
                                            pending += 1
                                            if ready_at == NOT_READY:
                                                bucket = iq_waiters.get(p1)
                                                if bucket is None:
                                                    iq_waiters[p1] = [seq]
                                                else:
                                                    bucket.append(seq)
                                            else:
                                                bucket = iq_wakeups.get(ready_at)
                                                if bucket is None:
                                                    iq_wakeups[ready_at] = [seq]
                                                    heappush(wakeup_heap, ready_at)
                                                else:
                                                    bucket.append(seq)
                                if pending:
                                    w_waiting[slot] = pending
                                else:
                                    iq_ready_total += 1
                                    ready = iq_ready[class_id]
                                    if ready and seq < ready[-1]:
                                        insort(ready, seq)
                                    else:
                                        ready.append(seq)
                                iq_count += 1
                            else:
                                # Substituted queue (reference model): go
                                # through the interface.
                                iq_add(seq, cycle, sources, class_id)
                                iq_count = issue_queue._count
                            if class_id == CLASS_STORE:
                                entry = StoreQueueEntry(
                                    seq, dyn.pc, op[3], dyn.eff_addr)
                                sq_entries.append(entry)
                                sq_by_seq[seq] = entry
                                sq_room -= 1
                                sq_len += 1
                            elif class_id == CLASS_LOAD:
                                lq_add(seq)
                                lq_room -= 1
                                lq_len += 1
                                w_replayed[slot] = 0
                            w_complete[slot] = NO_COMPLETE
                            iq_room -= 1
                        fetch_index += 1
                        dispatched += 1
                        if stop_after:
                            break
                    if dispatched:
                        fetched_total += dispatched
                    if pregs_allocated:
                        pregs_alloc_total += pregs_allocated
                        # The peak can only move right after allocations
                        # (commit-side frees can only lower occupancy), so
                        # allocation-free cycles skip the check.
                        in_use = num_pregs - free_count()
                        if in_use > stats.max_pregs_in_use:
                            stats.max_pregs_in_use = in_use

            # ---------------- Observability (opt-in) ----------------
            # End-of-cycle occupancy sampling; one histogram bump per
            # structure.  Off by default: the whole block is one local
            # boolean test then.
            if record_stats:
                rob_now = fetch_index - committed
                iq_now = iq_count if inline_iq else issue_queue._count
                prf_used = num_pregs - free_count()
                occ_rob[rob_now] += 1
                occ_iq[iq_now] += 1
                occ_prf[prf_used] += 1
                occ_sq[sq_len] += 1
                occ_lq[lq_len] += 1
                occ_ready[0][len(iq_ready[0])] += 1
                occ_ready[1][len(iq_ready[1])] += 1
                occ_ready[2][len(iq_ready[2])] += 1
                occ_ready[3][len(iq_ready[3])] += 1
                issued_now = len(selected)
                occ_issued[issued_now] += 1
                if issued_now:
                    for sseq in selected:
                        occ_class[iq_class[sseq & mask]] += 1
                if tl_stride and not cycle % tl_stride:
                    tl_record((cycle, committed, issued_now, rob_now,
                               iq_now, prf_used, sq_len, lq_len))
            cycle += 1

            # ---------------- Event-driven fast-forward ----------------
            # Find the earliest cycle at which any phase can act again and
            # jump there.
            if committed >= total:
                continue                      # simulation just finished
            if iq_ready_total if inline_iq else issue_queue._ready_total:
                continue                      # an issue may happen next cycle
            idle = wakeup_heap[0] if wakeup_heap else NOT_READY
            if idle <= cycle:
                continue
            target = idle
            fetching = fetch_index < total
            if fetching:
                if fetch_resume <= cycle:
                    continue                  # front end is active next cycle
                if fetch_resume < target:
                    target = fetch_resume
            head_ready = w_complete[committed & mask] + 1
            if head_ready < target:
                target = head_ready
            # A waiting or absent head carries NO_COMPLETE (beyond every
            # target candidate): it cannot commit until it issues, and no
            # issue can happen before `idle` — already covered.
            if target <= cycle:
                continue
            if target > max_cycles:
                target = max_cycles           # let the runaway guard fire
            if fetching:
                # Exactly what the skipped dispatch phases would have counted.
                fetch_stalls += target - cycle
            if record_stats:
                # The skipped stretch is a pure no-op (nothing issues,
                # commits or dispatches), so every skipped cycle would have
                # sampled the frozen end-of-cycle state with zero issue and
                # empty ready lists.  Credit the histograms in bulk so the
                # event-driven run stays byte-identical to cycle-by-cycle.
                skipped = target - cycle
                if fetching:
                    occ_stall[stall_reason] += skipped
                rob_now = fetch_index - committed
                iq_now = iq_count if inline_iq else issue_queue._count
                prf_used = num_pregs - free_count()
                occ_rob[rob_now] += skipped
                occ_iq[iq_now] += skipped
                occ_prf[prf_used] += skipped
                occ_sq[sq_len] += skipped
                occ_lq[lq_len] += skipped
                occ_ready[0][0] += skipped
                occ_ready[1][0] += skipped
                occ_ready[2][0] += skipped
                occ_ready[3][0] += skipped
                occ_issued[0] += skipped
                if tl_stride:
                    # The strided sample points inside [cycle, target).
                    tl_cycle = cycle + (-cycle) % tl_stride
                    while tl_cycle < target:
                        tl_record((tl_cycle, committed, 0, rob_now,
                                   iq_now, prf_used, sq_len, lq_len))
                        tl_cycle += tl_stride
            cycle = target

        # Mirror the loop's local state back onto the objects for
        # introspection (tests, debugging, the IQ counters).
        self._flush_loop_stats(
            stats, cycle, committed, issued_total, fetched_total,
            fetch_stalls, pregs_alloc_total, fused_total,
            fusion_penalty_total, store_forwards, elim_moves, elim_folds,
            elim_cse, elim_ra)
        self._cycle = cycle
        self._committed = committed
        self._fetch_index = fetch_index
        self._fetch_resume_cycle = fetch_resume
        self._waiting_branch = waiting_branch
        self._last_fetch_block = last_fetch_block
        self._fetch_stall_reason = stall_reason
        if inline_iq:
            issue_queue._count = iq_count
            issue_queue._ready_total = iq_ready_total

    @staticmethod
    def _flush_loop_stats(
        stats: SimStats,
        cycle: int,
        committed: int,
        issued_total: int,
        fetched_total: int,
        fetch_stalls: int,
        pregs_alloc_total: int,
        fused_total: int,
        fusion_penalty_total: int,
        store_forwards: int,
        elim_moves: int,
        elim_folds: int,
        elim_cse: int,
        elim_ra: int,
    ) -> None:
        """Fold the cycle loop's locally accumulated counters into ``stats``."""
        stats.cycles = cycle
        stats.committed = committed
        if stats.occupancy is not None:
            stats.occupancy.cycles = cycle
        stats.issued += issued_total
        stats.fetched += fetched_total
        stats.fetch_stall_cycles += fetch_stalls
        stats.pregs_allocated += pregs_alloc_total
        stats.fused_operations += fused_total
        stats.fusion_penalty_cycles += fusion_penalty_total
        stats.store_forwards += store_forwards
        stats.eliminated_moves += elim_moves
        stats.eliminated_folds += elim_folds
        stats.eliminated_cse += elim_cse
        stats.eliminated_ra += elim_ra

    def _merge_component_stats(self) -> None:
        stats = self.stats
        stats.branch_mispredictions = self.branch_unit.mispredictions
        stats.btb_misses = self.branch_unit.btb_misses
        stats.ras_mispredictions = self.branch_unit.ras_mispredictions
        stats.icache_misses = self.caches.l1i.misses
        stats.dcache_accesses = self.caches.l1d.accesses
        stats.dcache_misses = self.caches.l1d.misses
        stats.l2_misses = self.caches.l2.misses
        extra_stats = getattr(self.renamer, "stats", None)
        if extra_stats:
            stats.it_lookups = extra_stats.get("it_lookups", 0)
            stats.it_hits = extra_stats.get("it_hits", 0)
            stats.it_insertions = extra_stats.get("it_insertions", 0)
            stats.integration_value_mismatches = extra_stats.get("it_value_mismatches", 0)

    def _final_registers(self) -> list[int]:
        """Architectural register values reconstructed from the map table."""
        values = []
        for preg, disp in self.renamer.mapping_snapshot():
            values.append(mask64(self.prf.read(preg) + disp))
        return values

    # ------------------------------------------------------------------
    # Rare-path helpers (the common paths are inlined in _run_cycles)
    # ------------------------------------------------------------------

    def _reexecute_load(self, seq: int, op: tuple, cycle: int) -> None:
        """Re-execute an integration-eliminated load through the retire port."""
        dyn = self.trace[seq]
        slot = seq & self._w_mask
        window = self.window
        raw = self.memory.read(dyn.eff_addr, op[3])
        value = sign_extend(raw, 8 * op[3]) if op[0] & DF_MEM_SIGNED else raw
        shared = mask64(self.prf.read(window.elim_preg[slot])
                        + window.elim_disp[slot])
        if value != shared:
            self.stats.integration_value_mismatches += 1
        self.stats.reexecuted_loads += 1
        self.caches.access_data_read(dyn.eff_addr, cycle)

    def _check_value(self, seq: int, slot: int) -> None:
        dyn = self.trace[seq]
        if dyn.instruction.dest_register is None or dyn.result is None:
            return
        window = self.window
        kind = window.elim_info[slot] & 15
        if kind:
            produced = mask64(self.prf.read(window.elim_preg[slot])
                              + window.elim_disp[slot])
        else:
            produced = self._w_value[slot]
        if produced != dyn.result:
            raise CommitMismatchError(
                f"instruction #{seq} {dyn.instruction} produced {produced:#x}, "
                f"architectural result is {dyn.result:#x} "
                f"(eliminated={bool(kind)}, kind={_ELIM_KINDS.get(kind)})"
            )

    def _load_can_issue(self, seq: int, cycle: int) -> bool:
        entries = self.store_queue.entries
        if not entries:
            # No older store can conflict and the disambiguation walk would
            # find nothing: the load may issue.
            return True
        dyn = self.trace[seq]
        # Store-set predicted dependence: wait until every older in-flight
        # store belonging to the load's store set has executed.
        ssit = self.store_sets._ssit
        ss_mask = self.store_sets.entries - 1
        load_set = ssit[(dyn.pc >> 2) & ss_mask]
        if load_set is not None:
            for entry in entries:
                if (entry.seq < seq and not entry.executed
                        and ssit[(entry.pc >> 2) & ss_mask] == load_set):
                    return False
        check = self.store_queue.check_load(
            seq, dyn.eff_addr, self._trace_ops[seq][3])
        action = check.action
        if action == "memory" or action == "forward":
            return True
        if action == "violation":
            # The load would consume stale data.  Model the squash: hold the
            # load until the conflicting store executes, charge the penalty
            # once, and train the store-set predictor.
            if seq not in self._violated_loads:
                self._violated_loads.add(seq)
                self.stats.memory_order_violations += 1
                self.stats.load_replays += 1
                self._w_replayed[seq & self._w_mask] = 1
                self.store_sets.train_violation(dyn.pc, check.store.pc)
        return False
