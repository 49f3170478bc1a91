"""Marshalling between the :class:`~repro.uarch.core.Pipeline` object graph
and the compiled kernel's flat int64 ABI.

The static columns — the dynamic trace, the decoded-op tables and the
per-opcode tables — are gathered once per trace into a
:class:`KernelTables` that every pipeline replaying that trace shares
(a trace from the compiled functional run already is columns).
One :class:`KernelState` is built per pipeline (cached by the backend in a
``WeakKeyDictionary``): it registers pointers to the shared columns, writes
the machine geometry and allocates every dynamic buffer once, so a
``run_cycles`` call only copies the *live* simulation state in and out.

The contract that makes the no-side-effects-on-error strategy work:
:meth:`KernelState.marshal_in` never mutates any Python object — it only
reads the pipeline and writes the flat buffers.  When the kernel returns a
nonzero error code the backend simply replays the slice with the python
reference loop and the outcome (including the exception the reference
raises) is exactly what an all-python run would have produced.

Two deliberate, behaviourally invisible normalisations happen at
marshal-out:

* window slots whose ``value`` entry was still the construction-time
  ``None`` read back as ``0`` (the pipeline only reads ``value`` for slots
  whose instruction executed, which always overwrites it first);
* in-flight ``RenameResult`` objects rebuilt from the flattened arrays
  carry an empty ``sources`` list (sources are consumed at dispatch, which
  already happened; the commit path reads only the destination fields).
"""

from __future__ import annotations

import ctypes
import functools
from array import array
from itertools import compress

from repro.core.integration import IntegrationEntry
from repro.core.maptable import Mapping
from repro.functional.trace import trace_columns
from repro.isa.instruction import DF_CONTROL, DF_LOAD, DF_STORE
from repro.uarch.compiled import emit
from repro.uarch.compiled.emit import PT, POINTERS, SC, SCALARS, VALUE_TO_ID
from repro.uarch.compiled.pages import PagePool, fill_neg1, fill_zero
from repro.uarch.inflight import STATIC_COLUMNS, TIMING_COLUMNS, timing_records
from repro.uarch.lsq import StoreQueueEntry
from repro.uarch.rename import RenameResult

#: RN_* scalar names, index-aligned with :data:`_RN_STAT_KEYS`.
_RN_SCALARS = (
    "RN_MOVES", "RN_FOLDS", "RN_CSE", "RN_RA", "RN_OVERFLOW",
    "RN_DEP_BLOCKS", "RN_IT_LOOKUPS", "RN_IT_HITS", "RN_IT_INS",
    "RN_IT_VALMIS",
)

#: Wakeup-ring size exponent.  The ring must give every outstanding wakeup
#: cycle a distinct slot; pending ready cycles span at most one worst-case
#: memory round trip (far below 2**13), and a collision is caught — at
#: marshal-in by :class:`MarshalError`, inside the kernel by ERR_INTERNAL —
#: and delegated to the python loop, so this is a size/perf knob, not a
#: correctness bound.
_WK_BITS = 13

#: Kernel elimination-kind ids back to RenameResult.elim_kind strings.
_ELIM_KINDS = {1: "move", 2: "cf", 3: "cse", 4: "ra"}
#: IntegrationEntry.origin encodings (index == kernel id).
_ORIGINS = ("load", "store", "alu")
_ORIGIN_IDS = {name: i for i, name in enumerate(_ORIGINS)}

#: Per-slot producer columns of the timing-record state, in order.
_W_PRODUCERS = ("W_PROD0", "W_PROD1", "W_PROD2")
#: The per-seq timing-record output columns, index-aligned with
#: :data:`~repro.uarch.inflight.TIMING_COLUMNS`.
TR_COLUMNS = (
    "TR_DISPATCH", "TR_ISSUE", "TR_COMPLETE", "TR_RETIRE", "TR_DCACHE",
    "TR_LATENCY", "TR_MISPRED", "TR_ELIM", "TR_NPROD", "TR_PROD0",
    "TR_PROD1", "TR_PROD2",
)

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
    """The live state cannot be expressed in the kernel ABI.

    Raised only for representational corner cases (e.g. two outstanding
    wakeup cycles colliding in the ring).  The backend catches it and runs
    the slice on the python loop instead; marshal-in has no side effects,
    so no cleanup is needed.
    """


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


def violation_log_size(total: int) -> int:
    """``VIO_CAP``, the violation log's length, for a trace of ``total``
    records."""
    return max(64, min(total + 1, 1 << 16))


def timing_columns(arrays: dict, static: "KernelTables") -> dict:
    """Name -> column of a :class:`~repro.uarch.inflight.TimingColumns`:
    the ``TR_*`` buffers among ``arrays`` (not copied) and the per-seq
    static fields of ``static``'s trace."""
    columns = dict(zip(TIMING_COLUMNS, map(arrays.__getitem__, TR_COLUMNS)))
    columns.update(zip(STATIC_COLUMNS, static.record_columns))
    return columns


class KernelTables:
    """The kernel's read-only columns for one trace, shared by its cells.

    ``T_*`` (one entry per trace record), ``S_*`` (one per static
    instruction) and ``O_*`` (one per opcode) are never written by the
    kernel, so every :class:`KernelState` replaying the same
    :class:`~repro.uarch.tables.TraceTables` registers pointers to these
    arrays instead of building its own.

    Attributes:
        arrays: Pointer-block name -> array for every ``T_*``, ``S_*`` and
            ``O_*`` member (the ``T_*`` arrays are the trace's own columns).
        store_pages: Every page any store in the trace can create or
            dirty, so each marshal-in can build a page pool covering all
            pages the kernel might write, including straddles.
    """

    def __init__(self, tables):
        """Adopt the trace columns; build the decoded-op and per-opcode ones."""
        columns = trace_columns(tables.trace)
        self.arrays = {**columns.arrays, **static_columns(tables.decoded),
                       **opcode_columns()}
        self.store_pages = columns.store_pages
        self._decoded = tables.decoded

    @functools.cached_property
    def record_columns(self) -> tuple[list, list, list, list]:
        """The :data:`~repro.uarch.inflight.STATIC_COLUMNS` by seq: opcode
        value, is_load, is_store, is_branch (built on first use by a timed
        cell, and shared by the timing columns of every timed cell on this
        trace)."""
        decoded = self._decoded
        by_static = ([op[6].value for op in decoded],
                     [bool(op[0] & DF_LOAD) for op in decoded],
                     [bool(op[0] & DF_STORE) for op in decoded],
                     [bool(op[0] & DF_CONTROL) for op in decoded])
        indices = self.arrays["T_SIDX"].tolist()
        return tuple(list(map(values.__getitem__, indices))
                     for values in by_static)

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
        self._static = static
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
        for name in ("W_DISPATCH", "W_COMPLETE", "W_LATENCY", "W_DCACHE",
                     "W_REPLAYED", "W_MISPRED", "W_CLASS", "W_WAITING",
                     "W_DEST", "W_PREV", "W_ELIM", "W_FEXTRA", "W_NSRC",
                     "W_S0P", "W_S0D", "W_S1P", "W_S1D", "RRE_P", "RRE_D"):
            self._new(name, "q", ws)
        self._new("W_VALUE", "Q", ws)
        self._new("W_EFF", "Q", ws)
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
        # Timing-record state and output columns: real buffers only for
        # collect_timing pipelines (the kernel skips them when TIMING=0).
        timing = self.timing
        for name in ("W_ISSUE", "W_RETIRE", "W_NPROD", *_W_PRODUCERS):
            self._new(name, "q", ws if timing else 1)
        self._new("PREG_WRITER", "q", np_ if timing else 1)
        for name in TR_COLUMNS:
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

        Never mutates the pipeline.  Raises :class:`MarshalError` when the
        state has no ABI representation (the caller falls back to python).
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
        self._in_fetch_index = pipeline._fetch_index

        # -- window (structure of arrays) ------------------------------
        a["W_DISPATCH"][:] = array("q", window.dispatch_cycle)
        a["W_COMPLETE"][:] = array("q", window.complete_cycle)
        a["W_LATENCY"][:] = array("q", window.latency)
        a["W_VALUE"][:] = array(
            "Q", (0 if v is None else v for v in window.value))
        a["W_EFF"][:] = array("Q", window.eff_addr)
        a["W_DCACHE"][:] = array("q", window.dcache_latency)
        a["W_REPLAYED"][:] = array("q", map(int, window.replayed))
        a["W_MISPRED"][:] = array("q", map(int, window.mispredicted))
        a["W_CLASS"][:] = array("q", window.class_id)
        a["W_WAITING"][:] = array("q", window.waiting_ops)
        a["W_DEST"][:] = array("q", window.dest_preg)
        a["W_PREV"][:] = array("q", window.prev_dest)
        a["W_ELIM"][:] = array("q", window.elim_info)
        a["W_FEXTRA"][:] = array("q", window.fusion_extra)
        a["W_NSRC"][:] = array("q", window.nsrc)
        a["W_S0P"][:] = array("q", window.src0_preg)
        a["W_S0D"][:] = array("q", window.src0_disp)
        a["W_S1P"][:] = array("q", window.src1_preg)
        a["W_S1D"][:] = array("q", window.src1_disp)
        rre_p, rre_d = a["RRE_P"], a["RRE_D"]
        for i, rename in enumerate(window.rename):
            if rename is not None and rename.eliminated:
                rre_p[i] = rename.dest_preg
                rre_d[i] = rename.dest_disp
            else:
                rre_p[i] = 0
                rre_d[i] = 0

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
                raise MarshalError("ready list exceeds its stride")
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
                    raise MarshalError("waiter/wakeup node pool exhausted")
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
                raise MarshalError("wakeup-ring collision at marshal-in")
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
        sc[SC["D_ALLOC_BASE"]] = 0

        # -- memory page pool ------------------------------------------
        self._marshal_in_pages(pipeline)

        # -- timing-record state ---------------------------------------
        if self.timing:
            self._marshal_in_timing(pipeline)

        # -- occupancy -------------------------------------------------
        if self.record_stats:
            occ = pipeline.stats.occupancy
            a["OC_ROB"][:] = array("q", occ.rob)
            a["OC_IQ"][:] = array("q", occ.iq)
            a["OC_PRF"][:] = array("q", occ.prf)
            a["OC_SQ"][:] = array("q", occ.sq)
            a["OC_LQ"][:] = array("q", occ.lq)
            oc_ready = a["OC_READY"]
            hist_len = len(occ.ready[0])
            for cls in range(4):
                base = cls * self.rstride
                oc_ready[base:base + hist_len] = array("q", occ.ready[cls])
            a["OC_ISSUED"][:] = array("q", occ.issued)
            a["OC_CLASS"][:] = array("q", occ.issued_by_class)
            a["OC_STALL"][:] = array("q", occ.fetch_stall_reasons)

        self._register_pointers()

    def _marshal_in_timing(self, pipeline) -> None:
        """Stage the window's issue/retire cycles, ``_preg_writer`` and the
        in-flight instructions' ``_producers``."""
        a = self.arr
        window = pipeline.window
        a["W_ISSUE"][:] = array("q", window.issue_cycle)
        a["W_RETIRE"][:] = array("q", window.retire_cycle)
        writer = a["PREG_WRITER"]
        fill_neg1(writer)
        for preg, seq in pipeline._preg_writer.items():
            writer[preg] = seq
        producers = pipeline._producers
        committed, fetch_index = pipeline._committed, pipeline._fetch_index
        if len(producers) != fetch_index - committed:
            raise MarshalError("producers do not cover the in-flight window")
        nprod = a["W_NPROD"]
        columns = [a[name] for name in _W_PRODUCERS]
        mask = self.wmask
        for seq in range(committed, fetch_index):
            sources = producers.get(seq)
            if sources is None:
                raise MarshalError(f"no producers recorded for #{seq}")
            slot = seq & mask
            nprod[slot] = len(sources)
            for column, producer in zip(columns, sources):
                column[slot] = producer

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
        the loop-exit mirror (ROB head/tail, issue-queue counters) and the
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
        pipeline.rob.head_seq = committed
        pipeline.rob.tail_seq = fetch_index
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
        window.dispatch_cycle[:] = a["W_DISPATCH"].tolist()
        window.complete_cycle[:] = a["W_COMPLETE"].tolist()
        window.latency[:] = a["W_LATENCY"].tolist()
        window.value[:] = a["W_VALUE"].tolist()
        window.eff_addr[:] = a["W_EFF"].tolist()
        window.dcache_latency[:] = a["W_DCACHE"].tolist()
        window.replayed[:] = [bool(v) for v in a["W_REPLAYED"]]
        window.mispredicted[:] = [bool(v) for v in a["W_MISPRED"]]
        window.class_id[:] = a["W_CLASS"].tolist()
        window.waiting_ops[:] = a["W_WAITING"].tolist()
        window.dest_preg[:] = a["W_DEST"].tolist()
        window.prev_dest[:] = a["W_PREV"].tolist()
        window.elim_info[:] = a["W_ELIM"].tolist()
        window.fusion_extra[:] = a["W_FEXTRA"].tolist()
        window.nsrc[:] = a["W_NSRC"].tolist()
        window.src0_preg[:] = a["W_S0P"].tolist()
        window.src0_disp[:] = a["W_S0D"].tolist()
        window.src1_preg[:] = a["W_S1P"].tolist()
        window.src1_disp[:] = a["W_S1D"].tolist()

        # Slots (re)dispatched during the slice get their object-graph
        # companions rebuilt: the decoded tuple and, under RENO, a
        # RenameResult carrying the commit-relevant fields.
        trace_ops = pipeline._trace_ops
        mask = self.wmask
        w_elim = window.elim_info
        rre_p, rre_d = a["RRE_P"], a["RRE_D"]
        w_dest, w_prev = window.dest_preg, window.prev_dest
        w_fextra = window.fusion_extra
        first = max(self._in_fetch_index, fetch_index - self.wsize)
        for seq in range(first, fetch_index):
            slot = seq & mask
            window.decoded[slot] = trace_ops[seq]
            if not self.reno:
                window.rename[slot] = None
                continue
            elim = w_elim[slot]
            kind = elim & 15
            if kind:
                result = RenameResult(
                    dest_preg=rre_p[slot], dest_disp=rre_d[slot],
                    eliminated=True, elim_kind=_ELIM_KINDS[kind],
                    needs_reexecution=bool(elim & 16),
                )
            else:
                dest = w_dest[slot]
                result = RenameResult(
                    dest_preg=dest if dest >= 0 else None,
                    allocated=dest >= 0,
                    fusion_extra_latency=w_fextra[slot],
                )
            prev = w_prev[slot]
            result.prev_dest_preg = prev if prev >= 0 else None
            window.rename[slot] = result

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
            renamer.allocations += sc[SC["D_ALLOC_BASE"]]
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
            self._marshal_out_timing(pipeline, committed, fetch_index)

        # -- occupancy -------------------------------------------------
        if self.record_stats:
            occ = stats.occupancy
            occ.cycles = cycle
            occ.rob[:] = a["OC_ROB"].tolist()
            occ.iq[:] = a["OC_IQ"].tolist()
            occ.prf[:] = a["OC_PRF"].tolist()
            occ.sq[:] = a["OC_SQ"].tolist()
            occ.lq[:] = a["OC_LQ"].tolist()
            oc_ready = a["OC_READY"]
            hist_len = len(occ.ready[0])
            for cls in range(4):
                base = cls * self.rstride
                occ.ready[cls][:] = oc_ready[base:base + hist_len].tolist()
            occ.issued[:] = a["OC_ISSUED"].tolist()
            occ.issued_by_class[:] = a["OC_CLASS"].tolist()
            occ.fetch_stall_reasons[:] = a["OC_STALL"].tolist()

    def _marshal_out_timing(self, pipeline, committed, fetch_index) -> None:
        """Rebuild the timing-record state and append one
        :class:`~repro.uarch.inflight.TimingRecord` per instruction
        committed in the slice."""
        a = self.arr
        window = pipeline.window
        window.issue_cycle[:] = a["W_ISSUE"].tolist()
        window.retire_cycle[:] = a["W_RETIRE"].tolist()
        writer = pipeline._preg_writer
        writer.clear()
        writer.update((preg, seq) for preg, seq
                      in enumerate(a["PREG_WRITER"]) if seq >= 0)
        producers = pipeline._producers
        producers.clear()
        nprod = a["W_NPROD"]
        prod0, prod1, prod2 = (a[name] for name in _W_PRODUCERS)
        mask = self.wmask
        for seq in range(committed, fetch_index):
            slot = seq & mask
            producers[seq] = (prod0[slot], prod1[slot],
                              prod2[slot])[:nprod[slot]]

        pipeline.timing_records.extend(timing_records(
            self._in_committed, committed,
            timing_columns(self.arr, self._static)))

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
