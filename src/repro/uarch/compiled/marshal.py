"""Marshalling between the :class:`~repro.uarch.core.Pipeline` object graph
and the compiled kernel's flat int64 ABI.

The static columns — the dynamic trace, the program's decoded-op tables
and the per-opcode tables — are gathered once per trace into a
:class:`KernelTables` that every pipeline replaying that trace shares
(a trace from the compiled functional run already is columns).
One :class:`KernelState` is built per pipeline (cached by the backend in a
``WeakKeyDictionary``): it registers pointers to the shared columns, writes
the machine geometry and allocates every dynamic buffer once, so a
``run_cycles`` call only copies the *live* simulation state in and out.

The failure rule (:func:`kernel_failed`) rests on one contract:
:meth:`KernelState.marshal_in` never mutates any Python object — it only
reads the pipeline and writes the flat buffers — so a failed slice can
be replayed on the python reference loop from the state the kernel
started from.

The in-flight window holds only int columns, each with its kernel buffer
named in :data:`~repro.uarch.inflight.WINDOW_COLUMNS`, so both directions
copy it as plain arrays; a timed pipeline's records are copied out of the
buffers :data:`~repro.uarch.inflight.TIMING_COLUMNS` names.
"""

from __future__ import annotations

import ctypes
import functools
from array import array
from itertools import compress

from repro.core.integration import IntegrationEntry
from repro.core.maptable import Mapping
from repro.functional.trace import trace_columns
from repro.isa.instruction import DF_LOAD
from repro.uarch.compiled import emit
from repro.uarch.compiled.emit import PT, POINTERS, SC, SCALARS, VALUE_TO_ID
from repro.uarch.compiled.pages import PagePool, fill_neg1, fill_zero
from repro.uarch.inflight import TIMING_COLUMNS, WINDOW_COLUMNS
from repro.uarch.lsq import StoreQueueEntry

#: RN_* scalar names, index-aligned with :data:`_RN_STAT_KEYS`.
_RN_SCALARS = (
    "RN_MOVES", "RN_FOLDS", "RN_CSE", "RN_RA", "RN_OVERFLOW",
    "RN_DEP_BLOCKS", "RN_IT_LOOKUPS", "RN_IT_HITS", "RN_IT_INS",
    "RN_IT_VALMIS",
)

#: Wakeup-ring size exponent.  The ring must give every outstanding wakeup
#: cycle a distinct slot; pending ready cycles span at most one load's
#: latency (far below 2**13 on the paper's machines), and a collision
#: raises :class:`KernelError` (at marshal-in, or after ERR_INTERNAL).
_WK_BITS = 13

#: IntegrationEntry.origin encodings (index == kernel id).
_ORIGINS = ("load", "store", "alu")
_ORIGIN_IDS = {name: i for i, name in enumerate(_ORIGINS)}

#: RenoRenamer.stats keys in the order of the RN_* scalar block.
_RN_STAT_KEYS = (
    "eliminated_moves", "eliminated_folds", "eliminated_cse",
    "eliminated_ra", "overflow_cancellations",
    "dependent_elimination_blocks", "it_lookups", "it_hits",
    "it_insertions", "it_value_mismatches",
)

#: (scalar name, SimStats attribute) for the delta counters the python
#: loop accumulates in locals and folds in via ``+=`` at flush time.
_DELTA_STATS = (
    ("D_ISSUED", "issued"), ("D_FETCHED", "fetched"),
    ("D_FETCH_STALLS", "fetch_stall_cycles"),
    ("D_PREGS_ALLOC", "pregs_allocated"), ("D_FUSED", "fused_operations"),
    ("D_FUSE_PEN", "fusion_penalty_cycles"),
    ("D_STORE_FWD", "store_forwards"), ("D_ELIM_MOVES", "eliminated_moves"),
    ("D_ELIM_FOLDS", "eliminated_folds"), ("D_ELIM_CSE", "eliminated_cse"),
    ("D_ELIM_RA", "eliminated_ra"),
)

#: (scalar name, SimStats attribute) for the absolute counters the loop
#: bumps directly on the stats object.
_ABS_STATS = (
    ("ROB_STALL", "rob_stall_cycles"), ("IQ_STALL", "iq_stall_cycles"),
    ("LSQ_STALL", "lsq_stall_cycles"), ("RENAME_STALL", "rename_stall_cycles"),
    ("MEM_ORDER_VIO", "memory_order_violations"),
    ("LOAD_REPLAYS", "load_replays"), ("REEXEC_LOADS", "reexecuted_loads"),
    ("INT_VAL_MISMATCH", "integration_value_mismatches"),
    ("MAX_PREGS", "max_pregs_in_use"),
)


class MarshalError(Exception):
    """A program has no representation in the kernel's static columns (an
    immediate outside int64): :attr:`KernelTables.fits` is False, and the
    compiled functional run hands the program to the interpreter."""


class KernelError(Exception):
    """A compiled cell or slice failed where the python loop does not: the
    kernel returned a nonzero code on one the python loop finishes
    (:func:`kernel_failed`), or a live state exceeded a capacity of the
    flat buffers at marshal-in."""


#: Kernel return code -> its ``ERR_*`` name.
_ERROR_NAMES = {getattr(emit, name): name for name in dir(emit)
                if name.startswith("ERR_")}


def kernel_failed(code: int, reference) -> None:
    """The failure rule for a nonzero kernel return ``code``: replay the
    same slice or cell once on the python loop (``reference()``, from the
    state the kernel started from), so a real simulation error (a
    ``max_cycles`` overrun, a trace mismatch) raises the python loop's
    own exception, and raise :class:`KernelError` if it finishes."""
    reference()
    raise KernelError(f"the kernel returned {_ERROR_NAMES.get(code)} ({code}) "
                      f"where the python reference loop finishes")


#: The kernel's pointer-block type.  ctypes keeps an array type only while
#: something holds it, and each new one is a reference cycle, so it is
#: built once here rather than per pipeline or per cell.
PointerBlock = ctypes.c_void_p * len(POINTERS)


def address_of(column) -> int:
    """The address of an ABI column: an ``array``, or any other writable
    buffer (a compiled functional run's trace columns are ``memoryview``s
    over memory maps)."""
    if isinstance(column, array):
        return column.buffer_info()[0]
    return ctypes.addressof(ctypes.c_char.from_buffer(column))


def _occupied(sets: list[list], lens: array) -> list[int]:
    """Indices of the sets that hold ways in Python or in the buffers.

    Marshal-out rebuilds only these: a set empty on both sides needs no
    work, and one that is empty on just one side must still be rewritten.
    """
    indices = range(len(sets))
    return sorted({*compress(indices, sets), *compress(indices, lens)})


@functools.cache
def opcode_columns() -> dict[str, array]:
    """The ``O_*`` per-opcode columns (constant: built once per process)."""
    tables = emit.opcode_tables()
    return {name: array("q", tables[key])
            for name, key in (("O_CRC", "crc"), ("O_FUSECAT", "fusecat"),
                              ("O_S2L", "s2l"), ("O_BRANCH", "branch"),
                              ("O_CTL", "ctl"))}


def static_columns(decoded: list[tuple]) -> dict[str, array]:
    """The ``S_*`` columns (one entry per static instruction) of a
    decoded-op table (:func:`repro.isa.instruction.decode_program`).

    Raises :class:`MarshalError` for an immediate no int64 column holds
    (the assembler never emits one; a raw ``Instruction`` can).
    """
    try:
        arrays = {name: array("q", [op[field] for op in decoded])
                  for name, field in (("S_FLAGS", 0), ("S_CLASS", 1),
                                      ("S_LAT", 2), ("S_MEMB", 3),
                                      ("S_DEST", 4), ("S_IMM", 5),
                                      ("S_FOLD", 7))}
    except OverflowError:
        raise MarshalError("an immediate outside int64") from None
    arrays["S_OPC"] = array("q", [emit.OP_ID[op[6]] for op in decoded])
    arrays["S_MMASK"] = array("Q", [op[8] for op in decoded])
    arrays["S_NSRC"] = array("q", [len(op[9]) for op in decoded])
    arrays["S_SRC0"] = array("q", [op[9][0] if op[9] else 0
                                   for op in decoded])
    arrays["S_SRC1"] = array("q", [op[9][1] if len(op[9]) > 1 else 0
                                   for op in decoded])
    return arrays


#: (OccupancyStats histogram, ``OC_*`` buffer) pairs, besides ``ready``
#: (four histograms at ``RSTRIDE`` spacing in ``OC_READY``).
_OCCUPANCY = (("rob", "OC_ROB"), ("iq", "OC_IQ"), ("prf", "OC_PRF"),
              ("sq", "OC_SQ"), ("lq", "OC_LQ"), ("issued", "OC_ISSUED"),
              ("issued_by_class", "OC_CLASS"),
              ("fetch_stall_reasons", "OC_STALL"))


def read_occupancy(occupancy, sc: array, arrays: dict[str, array]) -> None:
    """Copy the kernel's histograms and their cycle count out of ``sc``
    and ``arrays`` into ``occupancy``, an
    :class:`~repro.uarch.observe.OccupancyStats` for the same machine."""
    occupancy.cycles = sc[SC["CYCLE"]]
    for attribute, name in _OCCUPANCY:
        getattr(occupancy, attribute)[:] = arrays[name].tolist()
    ready, stride = arrays["OC_READY"], sc[SC["RSTRIDE"]]
    for base, histogram in zip(range(0, 4 * stride, stride), occupancy.ready):
        histogram[:] = ready[base:base + len(histogram)].tolist()


def violation_log_size(total: int) -> int:
    """``VIO_CAP``, the violation log's length, for a trace of ``total``
    records."""
    return max(64, min(total + 1, 1 << 16))


class KernelTables:
    """The kernel's read-only columns for one trace, shared by its cells.

    ``T_*`` (one entry per trace record), ``S_*`` (one per static
    instruction) and ``O_*`` (one per opcode) are never written by the
    kernel, so every :class:`KernelState` replaying the same
    :class:`~repro.uarch.tables.TraceTables` registers pointers to these
    arrays instead of building its own.

    Attributes:
        arrays: Pointer-block name -> array for every ``T_*``, ``S_*`` and
            ``O_*`` member (the ``T_*`` arrays are the trace's own columns,
            the ``S_*`` ones the program's).
        store_pages: Every page any store in the trace can create or
            dirty, so each marshal-in can build a page pool covering all
            pages the kernel might write, including straddles.
        pool: A fresh cell's page pool (image and store pages), to copy.
        pointers: A pointer block holding the addresses of ``arrays``.
        fits: Whether the program fits the ``S_*`` columns (else
            ``arrays`` lacks them, and the backend declines every cell).
    """

    def __init__(self, tables):
        """Adopt the trace and program columns; build the page pool."""
        columns = trace_columns(tables.trace)
        static = tables.shared.static
        self.fits = bool(static)
        self.arrays = {**columns.arrays, **static, **opcode_columns()}
        self.store_pages = columns.store_pages
        image = tables.memory_image
        self.pool = PagePool()
        self.pool.load(sorted(set(image) | self.store_pages), image)
        self.pointers = PointerBlock()
        for name, column in self.arrays.items():
            self.pointers[PT[name]] = address_of(column)

    @classmethod
    def of(cls, tables) -> "KernelTables":
        """The kernel columns of ``tables``, built on first use and kept on
        ``tables`` (so they live exactly as long as the trace tables)."""
        if tables.kernel is None:
            tables.kernel = cls(tables)
        return tables.kernel


class KernelState:
    """Flat ABI buffers for one pipeline over shared static columns.

    Attributes:
        sc: The scalar block (``int64_t *sc``), indexed by :data:`emit.SC`.
        arr: Name -> ``array`` for every pointer-block member.
        pt: The ctypes pointer block handed to the kernel.
    """

    def __init__(self, pipeline):
        """Adopt the shared static columns and allocate every dynamic buffer."""
        config = pipeline.config
        window = pipeline.window
        iq_cap = config.issue_queue_size
        self.wsize = len(window.dispatch_cycle)
        self.wmask = window.mask
        self.num_pregs = config.num_physical_regs
        self.rstride = iq_cap + 8
        self.wk_mask = (1 << _WK_BITS) - 1
        self.node_cap = 2 * self.wsize + 16
        self.sq_cap = pipeline.store_queue.capacity
        self.lq_cap = pipeline.load_queue.capacity
        total = pipeline._trace_length
        self.total = total
        self.vio_cap = violation_log_size(total)
        self.record_stats = bool(pipeline.record_stats)
        self.timing = bool(pipeline.collect_timing)
        #: The window columns both copies move (a timed pipeline's only).
        self.window_columns = tuple(column for column in WINDOW_COLUMNS
                                    if self.timing or not column.timed)

        from repro.core.renamer import RenoRenamer

        renamer = pipeline.renamer
        self.reno = type(renamer) is RenoRenamer
        table = renamer.integration_table if self.reno else None
        self.it_on = table is not None
        self.it_sets = table.num_sets if self.it_on else 1
        self.it_assoc = table.associativity if self.it_on else 1
        self.it_pbw = (self.it_sets + 63) >> 6

        branch = pipeline.branch_unit
        self.bp_entries = branch.direction._history_mask + 1
        self.btb_sets = branch.btb.num_sets
        self.btb_assoc = branch.btb.associativity
        self.ras_cap = branch.ras.entries

        caches = pipeline.caches
        self.cache_geom = {
            "L1I": (caches.l1i, config.l1i), "L1D": (caches.l1d, config.l1d),
            "L2": (caches.l2, config.l2),
        }
        self.mshr_cap = config.max_outstanding_misses
        self.ss_entries = pipeline.store_sets.entries

        self.sc = array("q", bytes(8 * len(SCALARS)))
        self.arr: dict[str, array] = {}
        self.pt = PointerBlock()
        static = KernelTables.of(pipeline.tables)
        self.arr.update(static.arrays)
        self._store_pages = static.store_pages
        self._alloc_dynamic(config)
        self._seed_geometry(pipeline)
        self.pool = PagePool()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _new(self, name: str, typecode: str, length: int) -> array:
        """Allocate one pointer-block array (zero-initialised)."""
        arr = array(typecode, bytes(max(length, 1) * 8))
        self.arr[name] = arr
        return arr

    def _register_pointers(self) -> None:
        """(Re)write every pointer-block slot from the arrays' buffers."""
        pt = self.pt
        for name, index in PT.items():
            pt[index] = address_of(self.arr[name])

    def _alloc_dynamic(self, config) -> None:
        """Allocate every live-state buffer once (addresses stay stable)."""
        ws, np_, rs = self.wsize, self.num_pregs, self.rstride
        timing = self.timing
        # The window's columns; the timing-record state is real only for
        # collect_timing pipelines (the kernel skips it when TIMING=0).
        for column in WINDOW_COLUMNS:
            self._new(column.pointer, column.typecode,
                      ws if timing or not column.timed else 1)
        self._new("PRF_VAL", "Q", np_)
        self._new("PRF_RDY", "q", np_)
        self._new("READY", "q", 4 * rs)
        self._new("RLEN", "q", 4)
        ring = self.wk_mask + 1
        self._new("WK_CYCLE", "q", ring)
        self._new("WK_HEAD", "q", ring)
        self._new("WK_TAIL", "q", ring)
        self._new("WT_HEAD", "q", np_)
        self._new("WT_TAIL", "q", np_)
        self._new("NODE_SEQ", "q", self.node_cap)
        self._new("NODE_NEXT", "q", self.node_cap)
        self._new("HEAP", "q", self.node_cap)
        self._new("SELBUF", "q", config.total_issue + 4)
        self._new("KEPTBUF", "q", 4 * rs)
        for name in ("SQ_SEQ", "SQ_SIZE", "SQ_AHAS", "SQ_EXEC", "SQ_COMP"):
            self._new(name, "q", self.sq_cap)
        for name in ("SQ_PC", "SQ_TADDR", "SQ_ADDR", "SQ_VAL"):
            self._new(name, "Q", self.sq_cap)
        self._new("FREE_RING", "q", np_)
        self._new("BMAP", "q", 32)
        self._new("RN_PREG", "q", 32)
        self._new("RN_DISP", "q", 32)
        self._new("RC_COUNTS", "q", np_)
        ways = self.it_sets * self.it_assoc
        for name in ("IT_KOP", "IT_IMM", "IT_N", "IT_P0", "IT_D0", "IT_P1",
                     "IT_D1", "IT_OUTP", "IT_OUTD", "IT_ORIG", "IT_VHAS"):
            self._new(name, "q", ways)
        self._new("IT_VAL", "Q", ways)
        self._new("IT_LEN", "q", self.it_sets)
        self._new("IT_PBITS", "Q", np_ * self.it_pbw)
        self._new("IT_PHAS", "q", np_)
        for name in ("BP_BIM", "BP_GSH", "BP_CHOOSER"):
            self._new(name, "q", self.bp_entries)
        btb_ways = self.btb_sets * self.btb_assoc
        self._new("BTB_TAG", "Q", btb_ways)
        self._new("BTB_TGT", "Q", btb_ways)
        self._new("BTB_THAS", "q", btb_ways)
        self._new("BTB_LEN", "q", self.btb_sets)
        self._new("RAS_STACK", "Q", self.ras_cap)
        for short, (cache, _cfg) in self.cache_geom.items():
            self._new(f"CT_{short}", "Q",
                      cache.num_sets * cache.config.associativity)
            self._new(f"CL_{short}", "q", cache.num_sets)
        self._new("MSHR_T", "q", self.mshr_cap + 2)
        self._new("SSIT", "q", self.ss_entries)
        self._new("VIO_LOG", "q", self.vio_cap)
        # Occupancy buffers: real histograms when recording, 1-slot dummies
        # otherwise (the kernel skips them entirely when RECORD_STATS=0).
        if self.record_stats:
            self._new("OC_ROB", "q", self.wsize + 1)
            self._new("OC_IQ", "q", config.issue_queue_size + 1)
            self._new("OC_PRF", "q", np_ + 1)
            self._new("OC_SQ", "q", self.sq_cap + 1)
            self._new("OC_LQ", "q", self.lq_cap + 1)
            self._new("OC_READY", "q", 4 * rs)
            self._new("OC_ISSUED", "q", config.total_issue + 1)
            self._new("OC_CLASS", "q", 4)
            self._new("OC_STALL", "q", 3)
        else:
            for name in ("OC_ROB", "OC_IQ", "OC_PRF", "OC_SQ", "OC_LQ",
                         "OC_READY", "OC_ISSUED", "OC_CLASS", "OC_STALL"):
                self._new(name, "q", 1)
        # The rest of the timing-record state and the output columns.
        self._new("PREG_WRITER", "q", np_ if timing else 1)
        for name in TIMING_COLUMNS.values():
            self._new(name, "q", self.total if timing else 1)
        # The functional run's members (marshal-in registers the pool's).
        for name in ("F_REGS", "F_KIND", "F_RS1", "F_RS2", "F_RD", "F_TGT"):
            self._new(name, "q", 1)

    def _seed_geometry(self, pipeline) -> None:
        """Write the static-configuration scalar group (once)."""
        sc = self.sc
        config = pipeline.config

        def put(name, value):
            sc[SC[name]] = int(value)

        put("TOTAL", self.total)
        put("WSIZE", self.wsize)
        put("WMASK", self.wmask)
        put("NUM_PREGS", self.num_pregs)
        put("COMMIT_WIDTH", pipeline._commit_width)
        put("RENAME_WIDTH", pipeline._rename_width)
        put("RETIRE_PORTS", pipeline._retire_dcache_ports)
        put("TAKEN_LIMIT", pipeline._taken_branch_limit)
        put("SCHED_LAT", pipeline._sched_latency)
        put("FE_DEPTH", pipeline._front_end_depth)
        put("VIO_PENALTY", config.memory_violation_penalty)
        put("MAX_CYCLES", config.max_cycles)
        put("MODE", 1 if self.reno else 0)
        put("RECORD_STATS", 1 if self.record_stats else 0)
        put("TIMING", 1 if self.timing else 0)
        put("FB_SHIFT", pipeline._fetch_block_bytes.bit_length() - 1)
        put("TOTAL_ISSUE", config.total_issue)
        put("W_INT", config.int_issue)
        put("W_LOAD", config.load_issue)
        put("W_STORE", config.store_issue)
        put("W_FP", config.fp_issue)
        put("IQ_CAP", config.issue_queue_size)
        put("SQ_CAP", self.sq_cap)
        put("LQ_CAP", self.lq_cap)
        put("RSTRIDE", self.rstride)
        for short, (cache, cfg) in self.cache_geom.items():
            put(f"{short}_SETS", cache.num_sets)
            put(f"{short}_ASSOC", cfg.associativity)
            put(f"{short}_LAT", cfg.latency)
            put(f"{short}_BSHIFT", cache.block_shift)
        put("MEM_LAT", config.memory_latency)
        put("MSHR_CAP", self.mshr_cap)
        put("BP_MASK", self.bp_entries - 1)
        put("BTB_SETS", self.btb_sets)
        put("BTB_ASSOC", self.btb_assoc)
        put("RAS_CAP", self.ras_cap)
        put("SS_MASK", self.ss_entries - 1)
        put("IT_SETS", self.it_sets)
        put("IT_ASSOC", self.it_assoc)
        put("IT_PBW", self.it_pbw)
        put("IT_ON", 1 if self.it_on else 0)
        if self.reno:
            renamer = pipeline.renamer
            rn_config = renamer.config
            put("ELIG_MASK", renamer._elig_mask)
            put("FOLD_MOVES", 1 if renamer._fold_moves else 0)
            put("FOLD_ADDS", 1 if renamer._fold_adds else 0)
            put("ALLOW_DEP", 1 if renamer._allow_dependent else 0)
            put("DISP_BITS", renamer._disp_bits)
            put("POLICY_FULL", 1 if renamer._policy_full else 0)
            put("FUSE_ALL", rn_config.fusion_penalty_all_ops)
            put("FUSE_NONADD", rn_config.fused_nonadd_penalty)
            put("FUSE_DDISP", rn_config.fused_double_disp_penalty)
        put("NODE_CAP", self.node_cap)
        put("WK_MASK", self.wk_mask)
        put("HEAP_CAP", self.node_cap)
        put("VIO_CAP", self.vio_cap)

    # ------------------------------------------------------------------
    # Marshal in (read-only with respect to the pipeline)
    # ------------------------------------------------------------------

    def marshal_in(self, pipeline, stop_cycle) -> None:
        """Copy the live simulation state into the flat buffers.

        Never mutates the pipeline.  Raises :class:`KernelError` when the
        state exceeds a capacity of the flat buffers.
        """
        sc = self.sc
        a = self.arr
        window = pipeline.window
        iq = pipeline.issue_queue

        # -- cursors ---------------------------------------------------
        sc[SC["CYCLE"]] = pipeline._cycle
        sc[SC["COMMITTED"]] = pipeline._committed
        sc[SC["FETCH_INDEX"]] = pipeline._fetch_index
        sc[SC["FETCH_RESUME"]] = pipeline._fetch_resume_cycle
        sc[SC["WAITING_BRANCH"]] = pipeline._waiting_branch
        sc[SC["LAST_FETCH_BLOCK"]] = pipeline._last_fetch_block
        sc[SC["STALL_REASON"]] = pipeline._fetch_stall_reason
        sc[SC["STOP"]] = stop_cycle if stop_cycle is not None else 1 << 62
        self._in_committed = pipeline._committed

        # -- window (structure of arrays) ------------------------------
        for column in self.window_columns:
            a[column.pointer][:] = array(column.typecode,
                                         getattr(window, column.name))

        # -- physical register file ------------------------------------
        a["PRF_VAL"][:] = array("Q", pipeline.prf.values)
        a["PRF_RDY"][:] = array("q", pipeline.prf.ready_cycle)

        # -- scheduler: ready lists, waiter chains, wakeup ring --------
        sc[SC["IQ_COUNT"]] = iq._count
        sc[SC["IQ_READY_TOTAL"]] = iq._ready_total
        rlen = a["RLEN"]
        ready_flat = a["READY"]
        for cls in range(4):
            entries = iq._ready[cls]
            if len(entries) > self.rstride:
                raise KernelError("ready list exceeds its stride")
            rlen[cls] = len(entries)
            base = cls * self.rstride
            ready_flat[base:base + len(entries)] = array("q", entries)

        node_seq, node_next = a["NODE_SEQ"], a["NODE_NEXT"]
        next_node = 0

        def build_chain(seqs):
            nonlocal next_node
            head = next_node
            last = -1
            for seq in seqs:
                if next_node >= self.node_cap:
                    raise KernelError("waiter/wakeup node pool exhausted")
                node_seq[next_node] = seq
                if last >= 0:
                    node_next[last] = next_node
                last = next_node
                next_node += 1
            node_next[last] = -1
            return head, last

        fill_neg1(a["WT_HEAD"])
        fill_neg1(a["WT_TAIL"])
        wt_head, wt_tail = a["WT_HEAD"], a["WT_TAIL"]
        for preg, seqs in iq._waiters.items():
            if not seqs:
                continue
            head, tail = build_chain(seqs)
            wt_head[preg] = head
            wt_tail[preg] = tail

        fill_neg1(a["WK_CYCLE"])
        wk_cycle, wk_head, wk_tail = a["WK_CYCLE"], a["WK_HEAD"], a["WK_TAIL"]
        for ready_cycle, seqs in iq._wakeups.items():
            index = ready_cycle & self.wk_mask
            if wk_cycle[index] != -1:
                raise KernelError("wakeup-ring collision at marshal-in")
            head, tail = build_chain(seqs)
            wk_cycle[index] = ready_cycle
            wk_head[index] = head
            wk_tail[index] = tail
        # Every heap entry owns a bucket and vice versa, so the sorted
        # bucket keys *are* the heap contents in array form.
        heap_cycles = sorted(iq._wakeups)
        a["HEAP"][:len(heap_cycles)] = array("q", heap_cycles)
        sc[SC["HEAP_LEN"]] = len(heap_cycles)
        # Chain the unused nodes into the free list.
        sc[SC["NODE_FREE"]] = next_node if next_node < self.node_cap else -1
        for i in range(next_node, self.node_cap - 1):
            node_next[i] = i + 1
        if next_node < self.node_cap:
            node_next[self.node_cap - 1] = -1

        # -- store / load queues ---------------------------------------
        entries = pipeline.store_queue.entries
        sc[SC["SQ_HEAD"]] = 0
        sc[SC["SQ_LEN"]] = len(entries)
        for i, entry in enumerate(entries):
            a["SQ_SEQ"][i] = entry.seq
            a["SQ_PC"][i] = entry.pc
            a["SQ_SIZE"][i] = entry.size
            a["SQ_TADDR"][i] = entry.trace_addr
            a["SQ_ADDR"][i] = 0 if entry.addr is None else entry.addr
            a["SQ_AHAS"][i] = 0 if entry.addr is None else 1
            a["SQ_VAL"][i] = 0 if entry.value is None else entry.value
            a["SQ_EXEC"][i] = 1 if entry.executed else 0
            a["SQ_COMP"][i] = entry.complete_cycle
        sc[SC["LQ_LEN"]] = len(pipeline.load_queue.entries)

        # -- renaming --------------------------------------------------
        self._marshal_in_rename(pipeline)

        # -- branch prediction -----------------------------------------
        branch = pipeline.branch_unit
        predictor = branch.direction
        a["BP_BIM"][:] = array("q", predictor.bimodal._counters)
        a["BP_GSH"][:] = array("q", predictor.gshare._counters)
        a["BP_CHOOSER"][:] = array("q", predictor.chooser._counters)
        sc[SC["BP_HIST"]] = predictor.history
        btb_tag, btb_tgt, btb_thas = a["BTB_TAG"], a["BTB_TGT"], a["BTB_THAS"]
        btb_sets = branch.btb._sets
        btb_len = a["BTB_LEN"]
        fill_zero(btb_len)
        assoc = self.btb_assoc
        for set_index in compress(range(len(btb_sets)), btb_sets):
            ways = btb_sets[set_index]
            btb_len[set_index] = len(ways)
            base = set_index * assoc
            for way, (tag, target) in enumerate(ways):
                btb_tag[base + way] = tag
                btb_tgt[base + way] = 0 if target is None else target
                btb_thas[base + way] = 0 if target is None else 1
        stack = branch.ras._stack
        sc[SC["RAS_LEN"]] = len(stack)
        a["RAS_STACK"][:len(stack)] = array("Q", stack)
        sc[SC["BR_COND"]] = branch.conditional_branches
        sc[SC["BR_MISPRED"]] = branch.mispredictions
        sc[SC["BTB_MISSES"]] = branch.btb_misses
        sc[SC["RAS_MISPRED"]] = branch.ras_mispredictions

        # -- caches + MSHR ---------------------------------------------
        for short, cache, cfg in self._cache_map(pipeline):
            tags, lens = a[f"CT_{short}"], a[f"CL_{short}"]
            sets = cache._sets
            fill_zero(lens)
            cassoc = cfg.associativity
            for set_index in compress(range(len(sets)), sets):
                ways = sets[set_index]
                lens[set_index] = len(ways)
                base = set_index * cassoc
                tags[base:base + len(ways)] = array("Q", ways)
            sc[SC[f"{short}_HITS"]] = cache.hits
            sc[SC[f"{short}_MISSES"]] = cache.misses
        times = pipeline.caches._mshr.completion_times
        sc[SC["MSHR_LEN"]] = len(times)
        a["MSHR_T"][:len(times)] = array("q", times)

        # -- store sets / violation log --------------------------------
        store_sets = pipeline.store_sets
        a["SSIT"][:] = array(
            "q", (-1 if s is None else s for s in store_sets._ssit))
        sc[SC["SS_NEXT_ID"]] = store_sets._next_set_id
        sc[SC["SS_TRAINED"]] = store_sets.violations_trained
        sc[SC["VIO_LEN"]] = 0

        # -- statistics ------------------------------------------------
        stats = pipeline.stats
        for name, attr in _ABS_STATS:
            sc[SC[name]] = getattr(stats, attr)
        for name, _attr in _DELTA_STATS:
            sc[SC[name]] = 0

        # -- memory page pool ------------------------------------------
        self._marshal_in_pages(pipeline)

        # -- timing-record state ---------------------------------------
        if self.timing:
            a["PREG_WRITER"][:] = array("q", pipeline._preg_writer)

        # -- occupancy -------------------------------------------------
        if self.record_stats:
            occ = pipeline.stats.occupancy
            for attribute, name in _OCCUPANCY:
                a[name][:] = array("q", getattr(occ, attribute))
            oc_ready, stride = a["OC_READY"], self.rstride
            for base, histogram in zip(range(0, 4 * stride, stride),
                                       occ.ready):
                oc_ready[base:base + len(histogram)] = array("q", histogram)

        self._register_pointers()

    def _marshal_in_rename(self, pipeline) -> None:
        """Flatten the renamer (either mode) into the scalar/array blocks."""
        sc, a = self.sc, self.arr
        renamer = pipeline.renamer
        if not self.reno:
            a["BMAP"][:32] = array("q", renamer.map_table)
            free = renamer.free_list
            sc[SC["FREE_HEAD"]] = 0
            sc[SC["FREE_LEN"]] = len(free)
            a["FREE_RING"][:len(free)] = array("q", free)
            sc[SC["GROUP_MASK"]] = 0
            return
        rn_preg, rn_disp = a["RN_PREG"], a["RN_DISP"]
        for i, mapping in enumerate(renamer.map_table._entries):
            rn_preg[i] = mapping.preg
            rn_disp[i] = mapping.disp
        rc = renamer.refcounts
        a["RC_COUNTS"][:] = array("q", rc.counts)
        free = rc._free
        sc[SC["FREE_HEAD"]] = 0
        sc[SC["FREE_LEN"]] = len(free)
        a["FREE_RING"][:len(free)] = array("q", free)
        mask = 0
        for logical in renamer._group_eliminated_logicals:
            mask |= 1 << logical
        sc[SC["GROUP_MASK"]] = mask
        sc[SC["RC_MAXOBS"]] = rc.max_observed_count
        sc[SC["RC_ALLOCS"]] = rc.total_allocations
        sc[SC["RC_SHARES"]] = rc.total_shares
        stats = renamer.stats
        for name, key in zip(_RN_SCALARS, _RN_STAT_KEYS):
            sc[SC[name]] = stats[key]
        if renamer.integration_table is not None:
            self._marshal_in_it(renamer.integration_table)

    def _marshal_in_it(self, table) -> None:
        """Flatten the integration table (sets in MRU order + preg index)."""
        sc, a = self.sc, self.arr
        assoc = self.it_assoc
        it_len = a["IT_LEN"]
        kop_a, imm_a, n_a = a["IT_KOP"], a["IT_IMM"], a["IT_N"]
        p0_a, d0_a = a["IT_P0"], a["IT_D0"]
        p1_a, d1_a = a["IT_P1"], a["IT_D1"]
        outp_a, outd_a, orig_a = a["IT_OUTP"], a["IT_OUTD"], a["IT_ORIG"]
        val_a, vhas_a = a["IT_VAL"], a["IT_VHAS"]
        for set_index, ways in enumerate(table._sets):
            it_len[set_index] = len(ways)
            base = set_index * assoc
            for way, entry in enumerate(ways):
                j = base + way
                opcode, imm, inputs = entry.key
                kop_a[j] = VALUE_TO_ID[opcode]
                imm_a[j] = imm
                n_a[j] = len(inputs)
                p0_a[j] = d0_a[j] = p1_a[j] = d1_a[j] = 0
                if inputs:
                    p0_a[j], d0_a[j] = inputs[0]
                    if len(inputs) > 1:
                        p1_a[j], d1_a[j] = inputs[1]
                outp_a[j] = entry.out_preg
                outd_a[j] = entry.out_disp
                orig_a[j] = _ORIGIN_IDS[entry.origin]
                val_a[j] = 0 if entry.value is None else entry.value
                vhas_a[j] = 0 if entry.value is None else 1
        fill_zero(a["IT_PBITS"])
        fill_zero(a["IT_PHAS"])
        pbits, phas = a["IT_PBITS"], a["IT_PHAS"]
        pbw = self.it_pbw
        for preg, indices in table._preg_index.items():
            phas[preg] = 1
            base = preg * pbw
            for set_index in sorted(indices):  # order-free; sorted for lint
                pbits[base + (set_index >> 6)] |= 1 << (set_index & 63)
        sc[SC["ITC_LOOKUPS"]] = table.lookups
        sc[SC["ITC_HITS"]] = table.hits
        sc[SC["ITC_INS"]] = table.insertions
        sc[SC["ITC_INVAL"]] = table.invalidations

    def _marshal_in_pages(self, pipeline) -> None:
        """Stage the memory page pool and its open-addressing lookup table.

        The pool covers every already-materialised page plus every page any
        trace store can touch, so the kernel never needs to allocate.
        """
        pages = pipeline.memory._pages
        pool = self.pool
        pool.load(sorted(set(pages) | self._store_pages), pages)
        self.arr.update(pool.arrays)
        self.sc[SC["NPOOL"]] = pool.count
        self.sc[SC["PH_MASK"]] = pool.mask

    # ------------------------------------------------------------------
    # Marshal out (only after the kernel returns ERR_OK)
    # ------------------------------------------------------------------

    def marshal_out(self, pipeline) -> None:
        """Copy the flat buffers back into the live simulation state.

        Mirrors everything the python loop's exit path writes, including
        the loop-exit mirror (cursors, issue-queue counters) and the
        ``_flush_loop_stats`` / component-counter routing.
        """
        sc = self.sc
        a = self.arr
        window = pipeline.window
        iq = pipeline.issue_queue

        # -- cursors + loop-exit mirror --------------------------------
        cycle = sc[SC["CYCLE"]]
        committed = sc[SC["COMMITTED"]]
        fetch_index = sc[SC["FETCH_INDEX"]]
        pipeline._cycle = cycle
        pipeline._committed = committed
        pipeline._fetch_index = fetch_index
        pipeline._fetch_resume_cycle = sc[SC["FETCH_RESUME"]]
        pipeline._waiting_branch = sc[SC["WAITING_BRANCH"]]
        pipeline._last_fetch_block = sc[SC["LAST_FETCH_BLOCK"]]
        pipeline._fetch_stall_reason = sc[SC["STALL_REASON"]]
        iq._count = sc[SC["IQ_COUNT"]]
        iq._ready_total = sc[SC["IQ_READY_TOTAL"]]

        # -- statistics ------------------------------------------------
        stats = pipeline.stats
        for name, attr in _DELTA_STATS:
            setattr(stats, attr, getattr(stats, attr) + sc[SC[name]])
        for name, attr in _ABS_STATS:
            setattr(stats, attr, sc[SC[name]])
        stats.cycles = cycle
        stats.committed = committed

        branch = pipeline.branch_unit
        branch.conditional_branches = sc[SC["BR_COND"]]
        branch.mispredictions = sc[SC["BR_MISPRED"]]
        branch.btb_misses = sc[SC["BTB_MISSES"]]
        branch.ras_mispredictions = sc[SC["RAS_MISPRED"]]
        for short, cache, _cfg in self._cache_map(pipeline):
            cache.hits = sc[SC[f"{short}_HITS"]]
            cache.misses = sc[SC[f"{short}_MISSES"]]
        store_sets = pipeline.store_sets
        store_sets.violations_trained = sc[SC["SS_TRAINED"]]
        store_sets._next_set_id = sc[SC["SS_NEXT_ID"]]

        # -- window (structure of arrays) ------------------------------
        for column in self.window_columns:
            getattr(window, column.name)[:] = a[column.pointer].tolist()

        # -- physical register file ------------------------------------
        pipeline.prf.values[:] = a["PRF_VAL"].tolist()
        pipeline.prf.ready_cycle[:] = a["PRF_RDY"].tolist()

        # -- scheduler -------------------------------------------------
        rlen, ready_flat = a["RLEN"], a["READY"]
        for cls in range(4):
            base = cls * self.rstride
            iq._ready[cls][:] = ready_flat[base:base + rlen[cls]].tolist()
        node_seq, node_next = a["NODE_SEQ"], a["NODE_NEXT"]

        def read_chain(node):
            seqs = []
            while node >= 0:
                seqs.append(node_seq[node])
                node = node_next[node]
            return seqs

        waiters = iq._waiters  # pipeline._iq_waiters aliases this dict
        waiters.clear()
        wt_head = a["WT_HEAD"]
        for preg in range(self.num_pregs):
            node = wt_head[preg]
            if node >= 0:
                waiters[preg] = read_chain(node)
        wakeups = iq._wakeups
        wakeups.clear()
        heap = a["HEAP"][:sc[SC["HEAP_LEN"]]].tolist()
        wk_head = a["WK_HEAD"]
        for ready_cycle in heap:
            wakeups[ready_cycle] = read_chain(wk_head[ready_cycle & self.wk_mask])
        # The kernel keeps its heap as a sorted array; a sorted list is a
        # valid binary heap, so it can be adopted directly.
        iq._wakeup_heap[:] = heap

        # -- store / load queues ---------------------------------------
        sq = pipeline.store_queue
        head, length = sc[SC["SQ_HEAD"]], sc[SC["SQ_LEN"]]
        entries = []
        for k in range(length):
            i = (head + k) % self.sq_cap
            entry = StoreQueueEntry(
                seq=a["SQ_SEQ"][i], pc=a["SQ_PC"][i], size=a["SQ_SIZE"][i],
                trace_addr=a["SQ_TADDR"][i],
                addr=a["SQ_ADDR"][i] if a["SQ_AHAS"][i] else None,
                value=a["SQ_VAL"][i] if a["SQ_AHAS"][i] else None,
                executed=bool(a["SQ_EXEC"][i]),
                complete_cycle=a["SQ_COMP"][i],
            )
            entries.append(entry)
        sq.entries[:] = entries
        sq._by_seq.clear()
        sq._by_seq.update((entry.seq, entry) for entry in entries)
        lq = pipeline.load_queue
        lq.entries.clear()
        trace_ops = pipeline._trace_ops
        w_elim, mask = window.elim_info, self.wmask
        lq.entries.update(
            seq for seq in range(committed, fetch_index)
            if trace_ops[seq][0] & DF_LOAD and not w_elim[seq & mask])

        # -- renaming --------------------------------------------------
        renamer = pipeline.renamer
        head, length = sc[SC["FREE_HEAD"]], sc[SC["FREE_LEN"]]
        ring = a["FREE_RING"]
        cap = len(ring)
        free_pregs = [ring[(head + k) % cap] for k in range(length)]
        if not self.reno:
            renamer.map_table[:] = a["BMAP"][:32].tolist()
            renamer.free_list.clear()
            renamer.free_list.extend(free_pregs)
        else:
            rn_stats = renamer.stats
            for name, key in zip(_RN_SCALARS, _RN_STAT_KEYS):
                rn_stats[key] = sc[SC[name]]
            rc = renamer.refcounts
            rc.counts[:] = a["RC_COUNTS"].tolist()
            rc.max_observed_count = sc[SC["RC_MAXOBS"]]
            rc.total_allocations = sc[SC["RC_ALLOCS"]]
            rc.total_shares = sc[SC["RC_SHARES"]]
            rc._free.clear()  # renamer._free_list aliases this deque
            rc._free.extend(free_pregs)
            map_entries = renamer.map_table._entries
            zero_maps = renamer._zero_maps
            rn_preg, rn_disp = a["RN_PREG"], a["RN_DISP"]
            for i in range(len(map_entries)):
                preg, disp = rn_preg[i], rn_disp[i]
                map_entries[i] = (zero_maps[preg] if disp == 0
                                  else Mapping(preg, disp))
            group = renamer._group_eliminated_logicals
            group.clear()
            group_mask = sc[SC["GROUP_MASK"]]
            logical = 0
            while group_mask:
                if group_mask & 1:
                    group.add(logical)
                group_mask >>= 1
                logical += 1
            if renamer.integration_table is not None:
                self._marshal_out_it(renamer.integration_table)

        # -- branch prediction -----------------------------------------
        predictor = branch.direction
        predictor.bimodal._counters[:] = a["BP_BIM"].tolist()
        predictor.gshare._counters[:] = a["BP_GSH"].tolist()
        predictor.chooser._counters[:] = a["BP_CHOOSER"].tolist()
        predictor.history = sc[SC["BP_HIST"]]
        btb_tag, btb_tgt, btb_thas = a["BTB_TAG"], a["BTB_TGT"], a["BTB_THAS"]
        btb_sets = branch.btb._sets
        btb_len = a["BTB_LEN"]
        assoc = self.btb_assoc
        for set_index in _occupied(btb_sets, btb_len):
            base = set_index * assoc
            btb_sets[set_index][:] = [
                (btb_tag[base + way],
                 btb_tgt[base + way] if btb_thas[base + way] else None)
                for way in range(btb_len[set_index])
            ]
        branch.ras._stack[:] = a["RAS_STACK"][:sc[SC["RAS_LEN"]]].tolist()

        # -- caches + MSHR ---------------------------------------------
        for short, cache, cfg in self._cache_map(pipeline):
            tags, lens = a[f"CT_{short}"], a[f"CL_{short}"]
            sets = cache._sets
            cassoc = cfg.associativity
            for set_index in _occupied(sets, lens):
                base = set_index * cassoc
                sets[set_index][:] = tags[base:base + lens[set_index]].tolist()
        mshr = pipeline.caches._mshr
        mshr.completion_times[:] = a["MSHR_T"][:sc[SC["MSHR_LEN"]]].tolist()

        # -- store sets / violation log --------------------------------
        store_sets._ssit[:] = [
            None if entry < 0 else entry for entry in a["SSIT"]]
        vio_log = a["VIO_LOG"]
        pipeline._violated_loads.update(
            vio_log[i] for i in range(sc[SC["VIO_LEN"]]))

        # -- memory page write-back ------------------------------------
        pages = pipeline.memory._pages
        page_num, page_dirty = a["PAGE_NUM"], a["PAGE_DIRTY"]
        for i in compress(range(self.pool.count), page_dirty):
            data = self.pool.page(i)
            existing = pages.get(page_num[i])
            if existing is None:
                pages[page_num[i]] = bytearray(data)
            else:
                existing[:] = data

        # -- timing records --------------------------------------------
        if self.timing:
            self._marshal_out_timing(pipeline, committed)

        # -- occupancy -------------------------------------------------
        if self.record_stats:
            read_occupancy(stats.occupancy, sc, a)

    def _marshal_out_timing(self, pipeline, committed) -> None:
        """Copy back ``_preg_writer`` and the ``TR_*`` entries of every seq
        committed in the slice into the pipeline's
        :attr:`~repro.uarch.core.Pipeline.timing_columns`."""
        a = self.arr
        pipeline._preg_writer[:] = a["PREG_WRITER"].tolist()
        low = self._in_committed
        columns = pipeline.timing_columns
        for name, output in TIMING_COLUMNS.items():
            columns[name][low:committed] = a[output][low:committed].tolist()

    def _marshal_out_it(self, table) -> None:
        """Rebuild the integration table object graph from the flat arrays."""
        sc, a = self.sc, self.arr
        assoc = self.it_assoc
        it_len = a["IT_LEN"]
        kop_a, imm_a, n_a = a["IT_KOP"], a["IT_IMM"], a["IT_N"]
        p0_a, d0_a = a["IT_P0"], a["IT_D0"]
        p1_a, d1_a = a["IT_P1"], a["IT_D1"]
        outp_a, outd_a, orig_a = a["IT_OUTP"], a["IT_OUTD"], a["IT_ORIG"]
        val_a, vhas_a = a["IT_VAL"], a["IT_VHAS"]
        for set_index, ways in enumerate(table._sets):
            base = set_index * assoc
            rebuilt = []
            for way in range(it_len[set_index]):
                j = base + way
                n = n_a[j]
                if n == 0:
                    inputs = ()
                elif n == 1:
                    inputs = ((p0_a[j], d0_a[j]),)
                else:
                    inputs = ((p0_a[j], d0_a[j]), (p1_a[j], d1_a[j]))
                rebuilt.append(IntegrationEntry(
                    key=(emit.OPCODES[kop_a[j]].value, imm_a[j], inputs),
                    out_preg=outp_a[j], out_disp=outd_a[j],
                    origin=_ORIGINS[orig_a[j]],
                    value=val_a[j] if vhas_a[j] else None,
                ))
            ways[:] = rebuilt
        index = table._preg_index
        index.clear()
        phas, pbits = a["IT_PHAS"], a["IT_PBITS"]
        pbw = self.it_pbw
        for preg in range(self.num_pregs):
            if not phas[preg]:
                continue
            indices = set()
            base = preg * pbw
            for word in range(pbw):
                bits = pbits[base + word]
                while bits:
                    low = bits & -bits
                    indices.add((word << 6) + low.bit_length() - 1)
                    bits ^= low
            index[preg] = indices
        table.lookups = sc[SC["ITC_LOOKUPS"]]
        table.hits = sc[SC["ITC_HITS"]]
        table.insertions = sc[SC["ITC_INS"]]
        table.invalidations = sc[SC["ITC_INVAL"]]

    @staticmethod
    def _cache_map(pipeline):
        """(short name, live cache, config) triples, fetched per call.

        Component objects are looked up through the pipeline on every
        marshal because a snapshot restore replaces them wholesale; only
        the geometry (fixed by the config digest) is safe to cache.
        """
        caches = pipeline.caches
        config = pipeline.config
        return (("L1I", caches.l1i, config.l1i),
                ("L1D", caches.l1d, config.l1d),
                ("L2", caches.l2, config.l2))
