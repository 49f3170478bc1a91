"""C source emission for the compiled cycle-loop backend.

This module is the single source of truth for the compiled kernel's ABI:

* :data:`SCALARS` / :data:`POINTERS` name every slot of the two flat
  parameter blocks the kernel receives (``int64_t *sc`` and
  ``int64_t **pt``).  The generated ``#define`` prelude gives the C side
  the same indices, so Python and C can never disagree about layout.
* The in-flight window's members and the timing-record output columns are
  spliced in from :data:`repro.uarch.inflight.WINDOW_COLUMNS` and
  :data:`repro.uarch.inflight.TIMING_COLUMNS`, as the trace columns are
  from :data:`repro.functional.trace.TRACE_COLUMNS`: a name the C code
  uses that no table defines has no ``PT_`` define, so the kernel does not
  compile.
* :func:`kernel_source` returns the complete C translation unit: a
  generated prelude of index/constant defines followed by the
  hand-written code, which exports two entries over the same two blocks:

  - ``repro_run``, a cycle-exact port of
    :meth:`repro.uarch.core.Pipeline._run_cycles`;
  - ``repro_functional``, a port of the functional simulator's
    interpreter (:class:`repro.functional.simulator.FunctionalSimulator`)
    that writes the trace straight into the ``T_*`` columns
    (:data:`repro.functional.trace.TRACE_COLUMNS`);

  and, with small blocks of their own, ``repro_critpath`` (the walk of
  :func:`repro.analysis.critpath.python_walk`) and ``repro_gather`` (it
  fills :attr:`repro.uarch.tables.TraceTables.record_columns`).

No entry mutates Python state or allocates: every buffer is provided
by :mod:`repro.uarch.compiled.marshal` or
:mod:`repro.uarch.compiled.functional`.  On any error ``repro_run``
returns a nonzero code *without* side effects visible to Python, so the
backend can replay the cell through the reference loop to reproduce the
exact Python behaviour (including exception messages).
``repro_functional`` is resumable instead: it returns :data:`FN_NEED_PAGE`
or :data:`FN_FULL` when the page pool or the columns must grow, and the
caller grows them and calls it again; :data:`FN_FAIL` (instruction budget
spent, pc outside the code segment, an instruction it cannot run) makes
the caller rerun the program on the python interpreter, which raises the
reference's exception.
"""

from __future__ import annotations

import zlib

from repro.functional.trace import TRACE_COLUMNS
from repro.isa.opcodes import Opcode, OpClass, spec_for
from repro.uarch.inflight import TIMING_COLUMNS, WINDOW_COLUMNS

#: Stable opcode numbering used by the kernel (position in declaration order).
OPCODES: tuple[Opcode, ...] = tuple(Opcode)

#: Opcode -> kernel id.
OP_ID: dict[Opcode, int] = {op: i for i, op in enumerate(OPCODES)}

#: Opcode value string -> kernel id (integration-table keys store strings).
VALUE_TO_ID: dict[str, int] = {op.value: i for op, i in OP_ID.items()}

#: Kernel error codes (return value of ``repro_run``).  Any nonzero code
#: is replayed once in Python, which raises (``marshal.kernel_failed``).
ERR_OK = 0
ERR_MAX_CYCLES = 1
ERR_LOAD_ADDR = 2
ERR_STORE_ADDR = 3
ERR_BRANCH_DIR = 4
ERR_VALUE_CHECK = 5
ERR_INTERNAL = 6

#: ``repro_functional`` return codes.  Only :data:`FN_OK` (the program
#: halted) ends a run; the caller answers :data:`FN_NEED_PAGE` (a store
#: needs page ``F_PAGE``, absent from the pool) and :data:`FN_FULL` (the
#: columns hold ``F_CAP`` records) by growing the buffers and calling
#: again, and :data:`FN_FAIL` by rerunning on the python interpreter.
FN_OK = 0
FN_NEED_PAGE = 1
FN_FULL = 2
FN_FAIL = 3

#: Functional kinds of the ``F_KIND`` column (how ``repro_functional``
#: executes a static instruction); :data:`FK_UNSUPPORTED` makes it fail.
FK_UNSUPPORTED = -1
FK_ALU = 0
FK_LOAD = 1
FK_STORE = 2
FK_BRANCH = 3
FK_JUMP = 4
FK_CALL = 5
FK_RET = 6
FK_NONE = 7
FK_HALT = 8

#: Scalar block layout (``int64_t *sc``).  Three groups: static geometry
#: and configuration, loop cursors (read and written), and statistics
#: (D_* are deltas seeded with zero, the rest absolute values seeded from
#: a fresh pipeline's objects and read out on success).
SCALARS: tuple[str, ...] = (
    # -- geometry / static configuration ------------------------------
    "TOTAL", "WSIZE", "WMASK", "NUM_PREGS", "COMMIT_WIDTH", "RENAME_WIDTH",
    "RETIRE_PORTS", "TAKEN_LIMIT", "SCHED_LAT", "FE_DEPTH", "VIO_PENALTY",
    "MAX_CYCLES", "MODE", "RECORD_STATS", "TIMING", "FB_SHIFT",
    "TOTAL_ISSUE", "W_INT", "W_LOAD", "W_STORE", "W_FP",
    "IQ_CAP", "SQ_CAP", "LQ_CAP", "RSTRIDE",
    "L1I_SETS", "L1I_ASSOC", "L1I_LAT", "L1I_BSHIFT",
    "L1D_SETS", "L1D_ASSOC", "L1D_LAT", "L1D_BSHIFT",
    "L2_SETS", "L2_ASSOC", "L2_LAT", "L2_BSHIFT",
    "MEM_LAT", "MSHR_CAP",
    "BP_MASK", "BTB_SETS", "BTB_ASSOC", "RAS_CAP", "SS_MASK",
    "IT_SETS", "IT_ASSOC", "IT_PBW", "IT_ON",
    "ELIG_MASK", "FOLD_MOVES", "FOLD_ADDS", "ALLOW_DEP", "DISP_BITS",
    "POLICY_FULL", "FUSE_ALL", "FUSE_NONADD", "FUSE_DDISP",
    "NODE_CAP", "WK_MASK", "HEAP_CAP", "VIO_CAP", "NPOOL", "PH_MASK",
    # -- loop cursors (mirrored back on success) ----------------------
    "CYCLE", "COMMITTED", "FETCH_INDEX", "FETCH_RESUME", "WAITING_BRANCH",
    "LAST_FETCH_BLOCK", "STALL_REASON", "IQ_COUNT", "IQ_READY_TOTAL",
    "SQ_HEAD", "SQ_LEN", "LQ_LEN", "FREE_HEAD", "FREE_LEN", "HEAP_LEN",
    "NODE_FREE", "RAS_LEN", "MSHR_LEN", "BP_HIST", "SS_NEXT_ID",
    "VIO_LEN", "GROUP_MASK",
    # -- delta statistics (seeded 0, applied with "+=" on success) ----
    "D_ISSUED", "D_FETCHED", "D_FETCH_STALLS", "D_PREGS_ALLOC", "D_FUSED",
    "D_FUSE_PEN", "D_STORE_FWD", "D_ELIM_MOVES", "D_ELIM_FOLDS",
    "D_ELIM_CSE", "D_ELIM_RA",
    # -- absolute statistics (seeded live, written back on success) ---
    "ROB_STALL", "IQ_STALL", "LSQ_STALL", "RENAME_STALL",
    "MEM_ORDER_VIO", "LOAD_REPLAYS", "REEXEC_LOADS", "INT_VAL_MISMATCH",
    "MAX_PREGS",
    "BR_COND", "BR_MISPRED", "BTB_MISSES", "RAS_MISPRED",
    "L1I_HITS", "L1I_MISSES", "L1D_HITS", "L1D_MISSES",
    "L2_HITS", "L2_MISSES",
    "RN_MOVES", "RN_FOLDS", "RN_CSE", "RN_RA", "RN_OVERFLOW",
    "RN_DEP_BLOCKS", "RN_IT_LOOKUPS", "RN_IT_HITS", "RN_IT_INS",
    "RN_IT_VALMIS",
    "ITC_LOOKUPS", "ITC_HITS", "ITC_INS", "ITC_INVAL",
    "RC_MAXOBS", "RC_ALLOCS", "RC_SHARES", "SS_TRAINED",
    # -- functional run (repro_functional; NPOOL/PH_MASK as above) -----
    # Cursors (pc, records written), the instruction budget, the code
    # length, the column capacity, and the page a store is missing.
    "F_PC", "F_SEQ", "F_BUDGET", "F_NCODE", "F_CAP", "F_PAGE",
)

SC: dict[str, int] = {name: i for i, name in enumerate(SCALARS)}

#: Pointer block layout (``int64_t **pt``).  All arrays are int64 (values
#: that are semantically unsigned 64-bit are stored two's-complement).
POINTERS: tuple[str, ...] = (
    # -- in-flight window (structure of arrays), the columns only timed
    #    runs write last (1-element dummies when TIMING is 0) ----------
    *(column.pointer for column in WINDOW_COLUMNS),
    # The preg -> writer-seq array Pipeline._preg_writer (-1 = no writer;
    # a 1-element dummy when TIMING is 0).
    "PREG_WRITER",
    # -- physical register file --------------------------------------
    "PRF_VAL", "PRF_RDY",
    # -- scheduler: ready lists, wakeup ring, waiter chains -----------
    "READY", "RLEN", "WK_CYCLE", "WK_HEAD", "WK_TAIL",
    "WT_HEAD", "WT_TAIL", "NODE_SEQ", "NODE_NEXT", "HEAP",
    "SELBUF", "KEPTBUF",
    # -- store queue (ring of field arrays) ---------------------------
    "SQ_SEQ", "SQ_PC", "SQ_SIZE", "SQ_TADDR", "SQ_ADDR", "SQ_AHAS",
    "SQ_VAL", "SQ_EXEC", "SQ_COMP",
    # -- renaming -----------------------------------------------------
    "FREE_RING", "BMAP", "RN_PREG", "RN_DISP", "RC_COUNTS",
    # -- integration table --------------------------------------------
    "IT_KOP", "IT_IMM", "IT_N", "IT_P0", "IT_D0", "IT_P1", "IT_D1",
    "IT_OUTP", "IT_OUTD", "IT_ORIG", "IT_VAL", "IT_VHAS", "IT_LEN",
    "IT_PBITS", "IT_PHAS",
    # -- branch prediction --------------------------------------------
    "BP_BIM", "BP_GSH", "BP_CHOOSER",
    "BTB_TAG", "BTB_TGT", "BTB_THAS", "BTB_LEN", "RAS_STACK",
    # -- caches + MSHR ------------------------------------------------
    "CT_L1I", "CL_L1I", "CT_L1D", "CL_L1D", "CT_L2", "CL_L2", "MSHR_T",
    # -- store sets / violation log -----------------------------------
    "SSIT", "VIO_LOG",
    # -- memory page pool ---------------------------------------------
    "PAGE_NUM", "PAGE_DIRTY", "PH_KEY", "PH_VAL",
    # -- trace columns (read by repro_run, written by repro_functional)
    *TRACE_COLUMNS,
    # -- decoded-op arrays (static per program) -----------------------
    "S_FLAGS", "S_CLASS", "S_LAT", "S_MEMB", "S_DEST", "S_IMM", "S_OPC",
    "S_FOLD", "S_MMASK", "S_NSRC", "S_SRC0", "S_SRC1",
    # -- per-opcode static tables -------------------------------------
    "O_CRC", "O_FUSECAT", "O_S2L", "O_BRANCH", "O_CTL",
    # -- occupancy histograms (1-element dummies when record_stats off)
    "OC_ROB", "OC_IQ", "OC_PRF", "OC_SQ", "OC_LQ", "OC_READY",
    "OC_ISSUED", "OC_CLASS", "OC_STALL",
    # -- functional run: the register file, and per static instruction
    #    its FK_* kind, the registers it reads (-1: reads 0), the
    #    register it writes (-1: none) and its control target pc ------
    "F_REGS", "F_KIND", "F_RS1", "F_RS2", "F_RD", "F_TGT",
    # -- timing records (output only, indexed by seq, one entry per
    #    trace record; 1-element dummies when TIMING is 0) -------------
    *TIMING_COLUMNS.values(),
)

PT: dict[str, int] = {name: i for i, name in enumerate(POINTERS)}

#: Conditional-branch kernel kinds, in :data:`O_BRANCH` encoding order.
_BRANCH_KINDS = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
                 Opcode.BLE, Opcode.BGT)

#: Non-conditional control kinds for :data:`O_CTL`.
_CTL_KINDS = {OpClass.JUMP: 1, OpClass.CALL: 2, OpClass.RET: 3}


def opcode_tables() -> dict[str, list[int]]:
    """Per-opcode static tables, indexed by kernel opcode id.

    Returns:
        ``crc``: zlib.crc32 of the opcode value string (the integration
        table's key hash seed); ``fusecat``: fusion category
        (0 free / 1 non-additive / 2 additive); ``s2l``: matching load
        opcode id for store opcodes (-1 otherwise); ``branch``:
        conditional-branch kind (0..5, -1 otherwise); ``ctl``:
        non-conditional control kind (1 jump / 2 call / 3 ret, else 0).
    """
    from repro.core.fusion import _CATEGORIES
    from repro.core.renamer import _STORE_TO_LOAD

    crc, fusecat, s2l, branch, ctl = [], [], [], [], []
    branch_kind = {op: i for i, op in enumerate(_BRANCH_KINDS)}
    for op in OPCODES:
        crc.append(zlib.crc32(op.value.encode("ascii")))
        fusecat.append(_CATEGORIES.get(op, 0))
        load_op = _STORE_TO_LOAD.get(op)
        s2l.append(-1 if load_op is None else OP_ID[load_op])
        branch.append(branch_kind.get(op, -1))
        ctl.append(_CTL_KINDS.get(spec_for(op).op_class, 0))
    return {"crc": crc, "fusecat": fusecat, "s2l": s2l, "branch": branch,
            "ctl": ctl}


def _prelude() -> str:
    """The generated ``#define`` prelude binding indices and constants."""
    from repro.isa.instruction import (
        CLASS_FP, CLASS_INT, CLASS_LOAD, CLASS_STORE, DF_CALL,
        DF_COND_BRANCH, DF_CONTROL, DF_IT_ALU, DF_LOAD, DF_MEM_SIGNED,
        DF_MOVE, DF_NO_EXECUTE, DF_REG_IMM_ADD, DF_STORE,
    )
    from repro.analysis.critpath import WALK_COLUMNS, _MEMORY_LATENCY_THRESHOLD
    from repro.isa.program import CODE_BASE, INSTRUCTION_BYTES

    lines = ["/* Generated prelude -- do not edit; see repro.uarch."
             "compiled.emit */"]
    for name, index in SC.items():
        lines.append(f"#define SC_{name} {index}")
    for name, index in PT.items():
        lines.append(f"#define PT_{name} {index}")
    for op, opid in OP_ID.items():
        lines.append(f"#define OPID_{op.name} {opid}")
    consts = {
        "DF_LOAD": DF_LOAD, "DF_STORE": DF_STORE,
        "DF_COND_BRANCH": DF_COND_BRANCH, "DF_CONTROL": DF_CONTROL,
        "DF_CALL": DF_CALL, "DF_NO_EXECUTE": DF_NO_EXECUTE,
        "DF_MEM_SIGNED": DF_MEM_SIGNED, "DF_MOVE": DF_MOVE,
        "DF_REG_IMM_ADD": DF_REG_IMM_ADD, "DF_IT_ALU": DF_IT_ALU,
        "CLASS_INT": CLASS_INT, "CLASS_LOAD": CLASS_LOAD,
        "CLASS_STORE": CLASS_STORE, "CLASS_FP": CLASS_FP,
        "ERR_OK": ERR_OK,
        "ERR_MAX_CYCLES": ERR_MAX_CYCLES, "ERR_LOAD_ADDR": ERR_LOAD_ADDR,
        "ERR_STORE_ADDR": ERR_STORE_ADDR, "ERR_BRANCH_DIR": ERR_BRANCH_DIR,
        "ERR_VALUE_CHECK": ERR_VALUE_CHECK, "ERR_INTERNAL": ERR_INTERNAL,
        "FN_OK": FN_OK, "FN_NEED_PAGE": FN_NEED_PAGE, "FN_FULL": FN_FULL,
        "FN_FAIL": FN_FAIL,
        "FK_ALU": FK_ALU, "FK_LOAD": FK_LOAD, "FK_STORE": FK_STORE,
        "FK_BRANCH": FK_BRANCH, "FK_JUMP": FK_JUMP, "FK_CALL": FK_CALL,
        "FK_RET": FK_RET, "FK_NONE": FK_NONE, "FK_HALT": FK_HALT,
        "CODE_BASE": CODE_BASE, "INSTRUCTION_BYTES": INSTRUCTION_BYTES,
        "MEMORY_LATENCY_THRESHOLD": _MEMORY_LATENCY_THRESHOLD,
    }
    for name, value in consts.items():
        lines.append(f"#define {name} {value}")
    for index, name in enumerate(WALK_COLUMNS):
        lines.append(f"#define CP_{name.upper()} {index}")
    return "\n".join(lines) + "\n"


def kernel_source() -> str:
    """The complete C translation unit: every entry and their prelude."""
    return _prelude() + _KERNEL


_KERNEL = r"""
#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef __int128 i128;
typedef unsigned __int128 u128;

#define NOT_READY   ((i64)1 << 60)
#define NO_COMPLETE ((i64)1 << 60)
#define STALLED_SENTINEL ((i64)1 << 60)
#define NO_BRANCH   (-1)
#define STALL_BRANCH 0
#define STALL_ICACHE 1
#define STALL_FRONTEND 2
#define ELIM_REEXEC 16

typedef struct {
    i64 *sc;
    i64 **pt;
    uint8_t *pages;
} Ctx;

#define SC(f) (c->sc[SC_##f])
#define P(f)  (c->pt[PT_##f])

static inline u64 sextb(u64 v, int bits) {
    int sh = 64 - bits;
    return (u64)(((i64)(v << sh)) >> sh);
}

static inline int bitlen64(u64 x) {
    return x ? 64 - __builtin_clzll(x) : 0;
}

/* ---------------- memory page pool ---------------- */

static inline i64 pool_find(Ctx *c, i64 page) {
    i64 mask = SC(PH_MASK);
    i64 *keys = P(PH_KEY);
    i64 *vals = P(PH_VAL);
    i64 h = (i64)((((u64)page * 0x9E3779B97F4A7C15ULL) >> 40) & (u64)mask);
    for (;;) {
        i64 k = keys[h];
        if (k == page) return vals[h];
        if (k == -1) return -1;
        h = (h + 1) & mask;
    }
}

static inline u64 mem_read(Ctx *c, u64 addr, i64 size) {
    i64 off = (i64)(addr & 4095);
    if (off + size <= 4096) {
        i64 idx = pool_find(c, (i64)(addr >> 12));
        if (idx < 0) return 0;
        const uint8_t *p = c->pages + idx * 4096 + off;
        u64 v = 0;
        for (i64 i = size - 1; i >= 0; i--) v = (v << 8) | p[i];
        return v;
    }
    u64 v = 0;
    for (i64 i = 0; i < size; i++) {
        u64 a = addr + (u64)i;
        i64 idx = pool_find(c, (i64)(a >> 12));
        u64 byte = idx < 0 ? 0 : c->pages[idx * 4096 + (i64)(a & 4095)];
        v |= byte << (8 * i);
    }
    return v;
}

static inline int mem_write(Ctx *c, u64 addr, i64 size, u64 value) {
    i64 off = (i64)(addr & 4095);
    if (off + size <= 4096) {
        i64 idx = pool_find(c, (i64)(addr >> 12));
        if (idx < 0) return 1;
        uint8_t *p = c->pages + idx * 4096 + off;
        for (i64 i = 0; i < size; i++) p[i] = (uint8_t)(value >> (8 * i));
        P(PAGE_DIRTY)[idx] = 1;
        return 0;
    }
    for (i64 i = 0; i < size; i++) {
        u64 a = addr + (u64)i;
        i64 idx = pool_find(c, (i64)(a >> 12));
        if (idx < 0) return 1;
        c->pages[idx * 4096 + (i64)(a & 4095)] = (uint8_t)(value >> (8 * i));
        P(PAGE_DIRTY)[idx] = 1;
    }
    return 0;
}

/* ---------------- 64-bit signed division, Python float semantics -----
 * Python computes int(to_signed(a) / sb): the exact rational quotient,
 * correctly rounded to the nearest IEEE double (ties to even), then
 * truncated toward zero.  Reproduced in integer arithmetic: build the
 * 53-bit round-to-nearest-even mantissa with a sticky bit, then shift.
 */
static u64 alu_div(u64 a, u64 b) {
    i64 sb = (i64)b;
    if (sb == 0) return 0;
    i64 sa = (i64)a;
    int neg = (sa < 0) != (sb < 0);
    u64 ua = sa < 0 ? (u64)0 - (u64)sa : (u64)sa;
    u64 ub = sb < 0 ? (u64)0 - (u64)sb : (u64)sb;
    if (!ua) return 0;
    int n = bitlen64(ua), m = bitlen64(ub);
    u64 q;
    int sticky;
    i64 e;
    int s = m - n + 54;
    if (s >= 0) {
        u128 t = (u128)ua << s;
        q = (u64)(t / ub);
        sticky = (t % ub) != 0;
        e = -(i64)s;
    } else {
        q = ua / ub;
        sticky = (ua % ub) != 0;
        e = 0;
    }
    int drop = bitlen64(q) - 53;          /* >= 1 by construction */
    u64 rem = q & (((u64)1 << drop) - 1);
    u64 half = (u64)1 << (drop - 1);
    u64 r = q >> drop;
    e += drop;
    if (rem > half || (rem == half && (sticky || (r & 1)))) r += 1;
    if (r >> 53) { r >>= 1; e += 1; }
    u64 mag;
    if (e >= 0) mag = (u64)((u128)r << e);
    else {
        i64 sh = -e;
        mag = sh >= 64 ? 0 : (r >> sh);
    }
    return neg ? (u64)0 - mag : mag;
}

static inline u64 alu_eval_c(i64 opid, u64 a, u64 b, i64 imm) {
    switch (opid) {
    case OPID_ADDI:   return a + (u64)imm;
    case OPID_ADD:    return a + b;
    case OPID_MOV:    return a;
    case OPID_SUBI:   return a - (u64)imm;
    case OPID_SUB:    return a - b;
    case OPID_AND:    return a & b;
    case OPID_OR:     return a | b;
    case OPID_XOR:    return a ^ b;
    case OPID_SLL:    return a << (b & 63);
    case OPID_SRL:    return a >> (b & 63);
    case OPID_SRA:    return (u64)((i64)a >> (b & 63));
    case OPID_MUL:    return a * b;
    case OPID_DIV:    return alu_div(a, b);
    case OPID_CMPEQ:  return a == b;
    case OPID_CMPLT:  return (i64)a < (i64)b;
    case OPID_CMPLE:  return (i64)a <= (i64)b;
    case OPID_CMPULT: return a < b;
    case OPID_ANDI:   return a & (u64)imm;
    case OPID_ORI:    return a | (u64)imm;
    case OPID_XORI:   return a ^ (u64)imm;
    case OPID_SLLI:   return a << (imm & 63);
    case OPID_SRLI:   return a >> (imm & 63);
    case OPID_SRAI:   return (u64)((i64)a >> (imm & 63));
    case OPID_MULI:   return a * (u64)imm;
    case OPID_CMPEQI: return (i64)a == imm;
    case OPID_CMPLTI: return (i64)a < imm;
    case OPID_CMPLEI: return (i64)a <= imm;
    case OPID_CMPULTI:return a < (u64)imm;
    case OPID_LDAH:   return a + ((u64)imm << 16);
    default:          return 0;   /* unreachable for executed ALU ops */
    }
}

static inline int branch_taken_c(i64 kind, u64 a) {
    i64 sa = (i64)a;
    switch (kind) {
    case 0: return sa == 0;   /* beq */
    case 1: return sa != 0;   /* bne */
    case 2: return sa < 0;    /* blt */
    case 3: return sa >= 0;   /* bge */
    case 4: return sa <= 0;   /* ble */
    case 5: return sa > 0;    /* bgt */
    }
    return 0;
}
"""

_KERNEL += r"""
/* ---------------- caches + MSHR ---------------- */

/* One set-associative lookup: MRU-ordered tag list per set, python's
 * Cache.lookup inlined (tag = block // num_sets, set = block % num_sets,
 * both via shifts because set counts are validated powers of two). */
static inline int cache_access_c(i64 *tags, i64 *lens, i64 nsets,
                                 i64 assoc, i64 block) {
    i64 set = block & (nsets - 1);
    i64 tag = block >> __builtin_ctzll((u64)nsets);
    i64 *ways = tags + set * assoc;
    i64 len = lens[set];
    if (len && ways[0] == tag) return 1;
    for (i64 i = 1; i < len; i++) {
        if (ways[i] == tag) {
            memmove(ways + 1, ways, (size_t)i * sizeof(i64));
            ways[0] = tag;
            return 1;
        }
    }
    i64 nl = len < assoc ? len + 1 : assoc;
    memmove(ways + 1, ways, (size_t)(nl - 1) * sizeof(i64));
    ways[0] = tag;
    lens[set] = nl;
    return 0;
}

/* CacheHierarchy._access: L1 (instruction or data), then L2, then the
 * MSHR-throttled memory path.  Returns the latency; *l1_hit mirrors the
 * MemoryAccessResult field the dispatch stage consults. */
static i64 hier_access(Ctx *c, int is_l1i, u64 addr, i64 now, int *l1_hit) {
    i64 lat, hit;
    if (is_l1i) {
        hit = cache_access_c(P(CT_L1I), P(CL_L1I), SC(L1I_SETS),
                             SC(L1I_ASSOC), (i64)(addr >> SC(L1I_BSHIFT)));
        lat = SC(L1I_LAT);
        if (hit) { SC(L1I_HITS)++; *l1_hit = 1; return lat; }
        SC(L1I_MISSES)++;
    } else {
        hit = cache_access_c(P(CT_L1D), P(CL_L1D), SC(L1D_SETS),
                             SC(L1D_ASSOC), (i64)(addr >> SC(L1D_BSHIFT)));
        lat = SC(L1D_LAT);
        if (hit) { SC(L1D_HITS)++; *l1_hit = 1; return lat; }
        SC(L1D_MISSES)++;
    }
    *l1_hit = 0;
    hit = cache_access_c(P(CT_L2), P(CL_L2), SC(L2_SETS), SC(L2_ASSOC),
                         (i64)(addr >> SC(L2_BSHIFT)));
    if (hit) { SC(L2_HITS)++; return lat + SC(L2_LAT); }
    SC(L2_MISSES)++;
    i64 miss_lat = SC(L2_LAT) + SC(MEM_LAT);
    /* _Mshr.acquire: drop completed, if full wait for (and retire) the
     * earliest outstanding miss, then register our completion time. */
    i64 *mt = P(MSHR_T);
    i64 ml = SC(MSHR_LEN), w = 0;
    for (i64 i = 0; i < ml; i++) if (mt[i] > now) mt[w++] = mt[i];
    ml = w;
    i64 stall = 0;
    if (ml >= SC(MSHR_CAP)) {
        i64 ei = 0;
        for (i64 i = 1; i < ml; i++) if (mt[i] < mt[ei]) ei = i;
        stall = mt[ei] - now;
        if (stall < 0) stall = 0;
        memmove(mt + ei, mt + ei + 1, (size_t)(ml - 1 - ei) * sizeof(i64));
        ml--;
    }
    mt[ml++] = now + stall + miss_lat;
    SC(MSHR_LEN) = ml;
    return lat + miss_lat + stall;
}

/* ---------------- branch prediction ---------------- */

/* HybridPredictor.predict_and_update, exactly: chooser picks bimodal vs
 * gshare, counters train toward the outcome, 16-bit global history. */
static int bp_predict_update(Ctx *c, u64 pc, int taken) {
    i64 mask = SC(BP_MASK);
    i64 history = SC(BP_HIST);
    i64 base = (i64)((pc >> 2) & (u64)mask);
    i64 gidx = base ^ (history & mask);
    i64 *bim = P(BP_BIM), *gsh = P(BP_GSH), *cho = P(BP_CHOOSER);
    i64 bc = bim[base], gc = gsh[gidx], cc = cho[base];
    int bim_taken = bc >= 2, gsh_taken = gc >= 2;
    int predicted = cc >= 2 ? gsh_taken : bim_taken;
    int bim_ok = bim_taken == taken, gsh_ok = gsh_taken == taken;
    if (bim_ok != gsh_ok) {
        if (gsh_ok) { if (cc < 3) cho[base] = cc + 1; }
        else        { if (cc > 0) cho[base] = cc - 1; }
    }
    if (taken) {
        if (bc < 3) bim[base] = bc + 1;
        if (gc < 3) gsh[gidx] = gc + 1;
    } else {
        if (bc > 0) bim[base] = bc - 1;
        if (gc > 0) gsh[gidx] = gc - 1;
    }
    SC(BP_HIST) = ((history << 1) | taken) & 0xFFFF;
    return predicted;
}

/* BTB predict-then-update (_check_target): returns 0 when the predicted
 * target (or its absence) matched the actual one.  Counts btb_misses. */
static int btb_check_target(Ctx *c, u64 pc, i64 tgt, int tgt_has) {
    i64 nsets = SC(BTB_SETS), assoc = SC(BTB_ASSOC);
    i64 set = (i64)((pc >> 2) % (u64)nsets);
    i64 *tags = P(BTB_TAG) + set * assoc;
    i64 *tgts = P(BTB_TGT) + set * assoc;
    i64 *thas = P(BTB_THAS) + set * assoc;
    i64 len = P(BTB_LEN)[set];
    i64 pred = 0;
    int pred_has = 0, found = 0;
    for (i64 i = 0; i < len; i++) {
        if (tags[i] == (i64)pc) {
            pred = tgts[i];
            pred_has = (int)thas[i];
            found = 1;
            /* MRU move (predict side). */
            memmove(tags + 1, tags, (size_t)i * sizeof(i64));
            memmove(tgts + 1, tgts, (size_t)i * sizeof(i64));
            memmove(thas + 1, thas, (size_t)i * sizeof(i64));
            tags[0] = (i64)pc; tgts[0] = pred; thas[0] = pred_has;
            break;
        }
    }
    /* BTB.update: drop any entry for pc, insert MRU, clip to assoc. */
    for (i64 i = 0; i < len; i++) {
        if (tags[i] == (i64)pc) {
            memmove(tags + i, tags + i + 1, (size_t)(len - 1 - i) * sizeof(i64));
            memmove(tgts + i, tgts + i + 1, (size_t)(len - 1 - i) * sizeof(i64));
            memmove(thas + i, thas + i + 1, (size_t)(len - 1 - i) * sizeof(i64));
            len--;
            break;
        }
    }
    i64 nl = len < assoc ? len + 1 : assoc;
    memmove(tags + 1, tags, (size_t)(nl - 1) * sizeof(i64));
    memmove(tgts + 1, tgts, (size_t)(nl - 1) * sizeof(i64));
    memmove(thas + 1, thas, (size_t)(nl - 1) * sizeof(i64));
    tags[0] = (i64)pc; tgts[0] = tgt; thas[0] = tgt_has;
    P(BTB_LEN)[set] = nl;
    int mismatch = !found ? tgt_has || 0
                 : (pred_has != tgt_has) || (pred_has && pred != tgt);
    if (!found && !tgt_has) mismatch = 0;
    if (!found && tgt_has) mismatch = 1;
    if (mismatch) SC(BTB_MISSES)++;
    return mismatch;
}

/* ---------------- integration table ---------------- */

static inline i64 floormod(i64 x, i64 s) { i64 r = x % s; return r < 0 ? r + s : r; }

/* Incremental floor-mod port of IntegrationTable._set_index's unbounded
 * Python integer hash: mixed = crc; mixed = mixed*1000003 + imm; then
 * per operand mixed = mixed*1000003 + preg*8191 + disp; mod num_sets.
 * S = 2**k: wrapping u64 keeps the low k bits exact; else each term is
 * reduced mod S in i64 (S < 2**31 for IT_* to fit; pregs are small). */
static inline i64 it_set_index(Ctx *c, i64 kop, i64 imm, i64 n,
                               i64 p0, i64 d0, i64 p1, i64 d1) {
    i64 S = SC(IT_SETS);
    if ((S & (S - 1)) == 0) {
        u64 h = (u64)P(O_CRC)[kop] * 1000003u + (u64)imm;
        if (n > 0) h = h * 1000003u + (u64)p0 * 8191u + (u64)d0;
        if (n > 1) h = h * 1000003u + (u64)p1 * 8191u + (u64)d1;
        return (i64)(h & (u64)(S - 1));
    }
    i64 mul = 1000003 % S, m = (P(O_CRC)[kop] % S * mul + floormod(imm, S)) % S;
    if (n > 0) m = (m * mul + p0 * (8191 % S) + floormod(d0, S)) % S;
    if (n > 1) m = (m * mul + p1 * (8191 % S) + floormod(d1, S)) % S;
    return m;
}

static inline void it_register_preg(Ctx *c, i64 preg, i64 set) {
    i64 pbw = SC(IT_PBW);
    P(IT_PBITS)[preg * pbw + (set >> 6)] |= (i64)((u64)1 << (set & 63));
    P(IT_PHAS)[preg] = 1;
}

/* IntegrationTable.lookup: count the probe, compare full keys in MRU
 * order, refresh MRU on hit.  Returns the way index or -1. */
static i64 it_lookup(Ctx *c, i64 set, i64 kop, i64 imm, i64 n,
                     i64 p0, i64 d0, i64 p1, i64 d1) {
    SC(ITC_LOOKUPS)++;
    i64 assoc = SC(IT_ASSOC);
    i64 base = set * assoc;
    i64 len = P(IT_LEN)[set];
    for (i64 i = 0; i < len; i++) {
        i64 j = base + i;
        if (P(IT_KOP)[j] != kop || P(IT_IMM)[j] != imm || P(IT_N)[j] != n)
            continue;
        if (n > 0 && (P(IT_P0)[j] != p0 || P(IT_D0)[j] != d0)) continue;
        if (n > 1 && (P(IT_P1)[j] != p1 || P(IT_D1)[j] != d1)) continue;
        if (i) {
            /* MRU move: rotate ways [0, i] right by one. */
            i64 kop_, imm_, n_, p0_, d0_, p1_, d1_, op_, od_, or_, v_, vh_;
            kop_ = P(IT_KOP)[j]; imm_ = P(IT_IMM)[j]; n_ = P(IT_N)[j];
            p0_ = P(IT_P0)[j]; d0_ = P(IT_D0)[j];
            p1_ = P(IT_P1)[j]; d1_ = P(IT_D1)[j];
            op_ = P(IT_OUTP)[j]; od_ = P(IT_OUTD)[j]; or_ = P(IT_ORIG)[j];
            v_ = P(IT_VAL)[j]; vh_ = P(IT_VHAS)[j];
            for (i64 k = i; k > 0; k--) {
                i64 dst = base + k, src = base + k - 1;
                P(IT_KOP)[dst] = P(IT_KOP)[src];
                P(IT_IMM)[dst] = P(IT_IMM)[src];
                P(IT_N)[dst] = P(IT_N)[src];
                P(IT_P0)[dst] = P(IT_P0)[src];
                P(IT_D0)[dst] = P(IT_D0)[src];
                P(IT_P1)[dst] = P(IT_P1)[src];
                P(IT_D1)[dst] = P(IT_D1)[src];
                P(IT_OUTP)[dst] = P(IT_OUTP)[src];
                P(IT_OUTD)[dst] = P(IT_OUTD)[src];
                P(IT_ORIG)[dst] = P(IT_ORIG)[src];
                P(IT_VAL)[dst] = P(IT_VAL)[src];
                P(IT_VHAS)[dst] = P(IT_VHAS)[src];
            }
            P(IT_KOP)[base] = kop_; P(IT_IMM)[base] = imm_;
            P(IT_N)[base] = n_;
            P(IT_P0)[base] = p0_; P(IT_D0)[base] = d0_;
            P(IT_P1)[base] = p1_; P(IT_D1)[base] = d1_;
            P(IT_OUTP)[base] = op_; P(IT_OUTD)[base] = od_;
            P(IT_ORIG)[base] = or_;
            P(IT_VAL)[base] = v_; P(IT_VHAS)[base] = vh_;
        }
        SC(ITC_HITS)++;
        return base;
    }
    return -1;
}
"""

_KERNEL += r"""
/* ---------------- scheduler plumbing ---------------- */

#define ELIM_MOVE 1
#define ELIM_CF   2
#define ELIM_CSE  3
#define ELIM_RA   4

#define ORIGIN_LOAD  0
#define ORIGIN_STORE 1
#define ORIGIN_ALU   2

/* Pending-cycle "heap" kept as a sorted ascending array; python's heapq
 * contract is behavioural (pop-min / push), so this is equivalent. */
static int heap_insert(Ctx *c, i64 cyc) {
    i64 len = SC(HEAP_LEN);
    if (len >= SC(HEAP_CAP)) return 1;
    i64 *h = P(HEAP);
    i64 lo = 0, hi = len;
    while (lo < hi) { i64 mid = (lo + hi) >> 1; if (h[mid] < cyc) lo = mid + 1; else hi = mid; }
    memmove(h + lo + 1, h + lo, (size_t)(len - lo) * sizeof(i64));
    h[lo] = cyc;
    SC(HEAP_LEN) = len + 1;
    return 0;
}

static inline i64 node_alloc(Ctx *c) {
    i64 n = SC(NODE_FREE);
    if (n >= 0) SC(NODE_FREE) = P(NODE_NEXT)[n];
    return n;  /* -1 when exhausted: caller bails with ERR_INTERNAL */
}

static inline void node_free(Ctx *c, i64 n) {
    P(NODE_NEXT)[n] = SC(NODE_FREE);
    SC(NODE_FREE) = n;
}

/* Append one seq to the wakeup bucket for `cyc` (IssueQueue._schedule /
 * wakeup): claim the ring slot and push the cycle on the heap when the
 * bucket is new, else append to the existing chain. */
static int wakeup_push(Ctx *c, i64 cyc, i64 seq) {
    i64 idx = cyc & SC(WK_MASK);
    i64 n = node_alloc(c);
    if (n < 0) return 1;
    P(NODE_SEQ)[n] = seq;
    P(NODE_NEXT)[n] = -1;
    if (P(WK_CYCLE)[idx] == cyc) {
        P(NODE_NEXT)[P(WK_TAIL)[idx]] = n;
        P(WK_TAIL)[idx] = n;
        return 0;
    }
    if (P(WK_CYCLE)[idx] != -1) return 1;  /* ring collision */
    P(WK_CYCLE)[idx] = cyc;
    P(WK_HEAD)[idx] = n;
    P(WK_TAIL)[idx] = n;
    return heap_insert(c, cyc);
}

/* Move a whole waiter chain into the wakeup bucket for `ready`
 * (the "dest in waiters" branch after a register write).  Order is
 * preserved exactly as python's list extend. */
static int waiter_chain_to_wakeups(Ctx *c, i64 dest, i64 ready) {
    i64 head = P(WT_HEAD)[dest];
    if (head < 0) return 0;
    i64 tail = P(WT_TAIL)[dest];
    P(WT_HEAD)[dest] = -1;
    P(WT_TAIL)[dest] = -1;
    i64 idx = ready & SC(WK_MASK);
    if (P(WK_CYCLE)[idx] == ready) {
        P(NODE_NEXT)[P(WK_TAIL)[idx]] = head;
        P(WK_TAIL)[idx] = tail;
        return 0;
    }
    if (P(WK_CYCLE)[idx] != -1) return 1;
    P(WK_CYCLE)[idx] = ready;
    P(WK_HEAD)[idx] = head;
    P(WK_TAIL)[idx] = tail;
    return heap_insert(c, ready);
}

static int waiter_append(Ctx *c, i64 preg, i64 seq) {
    i64 n = node_alloc(c);
    if (n < 0) return 1;
    P(NODE_SEQ)[n] = seq;
    P(NODE_NEXT)[n] = -1;
    if (P(WT_HEAD)[preg] < 0) P(WT_HEAD)[preg] = n;
    else P(NODE_NEXT)[P(WT_TAIL)[preg]] = n;
    P(WT_TAIL)[preg] = n;
    return 0;
}

/* Insert seq into its class's sorted ready list (python appends when the
 * seq is larger than the current tail, else bisect-inserts). */
static int ready_push(Ctx *c, i64 cls, i64 seq) {
    i64 *lst = P(READY) + cls * SC(RSTRIDE);
    i64 len = P(RLEN)[cls];
    if (len >= SC(RSTRIDE)) return 1;
    if (len == 0 || seq > lst[len - 1]) {
        lst[len] = seq;
    } else {
        i64 lo = 0, hi = len;
        while (lo < hi) { i64 mid = (lo + hi) >> 1; if (lst[mid] < seq) lo = mid + 1; else hi = mid; }
        memmove(lst + lo + 1, lst + lo, (size_t)(len - lo) * sizeof(i64));
        lst[lo] = seq;
    }
    P(RLEN)[cls] = len + 1;
    SC(IQ_READY_TOTAL)++;
    return 0;
}

/* The wakeup drain at the top of IssueQueue.select: retire every bucket
 * whose cycle has come, decrementing waiting counts and promoting
 * finished ops to ready. */
static int drain_wakeups(Ctx *c, i64 cycle) {
    while (SC(HEAP_LEN) && P(HEAP)[0] <= cycle) {
        i64 cyc = P(HEAP)[0];
        SC(HEAP_LEN)--;
        memmove(P(HEAP), P(HEAP) + 1, (size_t)SC(HEAP_LEN) * sizeof(i64));
        i64 idx = cyc & SC(WK_MASK);
        i64 n = P(WK_HEAD)[idx];
        P(WK_CYCLE)[idx] = -1;
        P(WK_HEAD)[idx] = -1;
        P(WK_TAIL)[idx] = -1;
        while (n >= 0) {
            i64 seq = P(NODE_SEQ)[n];
            i64 nx = P(NODE_NEXT)[n];
            node_free(c, n);
            n = nx;
            i64 slot = seq & SC(WMASK);
            i64 w = P(W_WAITING)[slot] - 1;
            P(W_WAITING)[slot] = w;
            if (w == 0 && ready_push(c, P(W_CLASS)[slot], seq)) return 1;
        }
    }
    return 0;
}

/* ---------------- store sets + load/store disambiguation ------------ */

/* StoreSets.train_violation. */
static void train_violation(Ctx *c, u64 load_pc, u64 store_pc) {
    SC(SS_TRAINED)++;
    i64 li = (i64)((load_pc >> 2) & (u64)SC(SS_MASK));
    i64 si = (i64)((store_pc >> 2) & (u64)SC(SS_MASK));
    i64 a = P(SSIT)[li], b = P(SSIT)[si];
    if (a < 0 && b < 0) {
        i64 nid = SC(SS_NEXT_ID);
        P(SSIT)[li] = nid;
        P(SSIT)[si] = nid;
        SC(SS_NEXT_ID) = nid + 1;
    } else if (a < 0) {
        P(SSIT)[li] = b;
    } else if (b < 0) {
        P(SSIT)[si] = a;
    } else {
        i64 m = a < b ? a : b;
        P(SSIT)[li] = m;
        P(SSIT)[si] = m;
    }
}

#define LSQ_MEMORY    0
#define LSQ_FORWARD   1
#define LSQ_VIOLATION 2
#define LSQ_WAIT      3

/* StoreQueue.check_load: newest-to-oldest walk over older stores. */
static int check_load_c(Ctx *c, i64 load_seq, u64 addr, i64 size,
                        i64 *fwd_value, i64 *viol_pos) {
    u128 end = (u128)addr + (u64)size;
    i64 head = SC(SQ_HEAD), len = SC(SQ_LEN), cap = SC(SQ_CAP);
    for (i64 k = len - 1; k >= 0; k--) {
        i64 pos = (head + k) % cap;
        if (P(SQ_SEQ)[pos] >= load_seq) continue;
        if (!P(SQ_EXEC)[pos]) {
            u64 ta = (u64)P(SQ_TADDR)[pos];
            u128 tend = (u128)ta + (u64)P(SQ_SIZE)[pos];
            if (!(tend <= (u128)addr || (u128)ta >= end)) {
                *viol_pos = pos;
                return LSQ_VIOLATION;
            }
            continue;
        }
        if (!P(SQ_AHAS)[pos]) continue;
        u64 ea = (u64)P(SQ_ADDR)[pos];
        u128 eend = (u128)ea + (u64)P(SQ_SIZE)[pos];
        if (eend <= (u128)addr || (u128)ea >= end) continue;
        if (ea <= addr && eend >= end) {
            u64 v = (u64)P(SQ_VAL)[pos] >> (8 * (addr - ea));
            if (size < 8) v &= ((u64)1 << (8 * size)) - 1;
            *fwd_value = (i64)v;
            return LSQ_FORWARD;
        }
        return LSQ_WAIT;
    }
    return LSQ_MEMORY;
}

/* Pipeline._load_can_issue, the select-stage gate for loads.  Returns
 * 1 issueable, 0 blocked, -1 internal error (violation log full). */
static int load_gate(Ctx *c, i64 seq, i64 cycle) {
    (void)cycle;
    if (!SC(SQ_LEN)) return 1;
    u64 pc = (u64)P(T_PC)[seq];
    i64 ls = P(SSIT)[(pc >> 2) & (u64)SC(SS_MASK)];
    if (ls >= 0) {
        i64 head = SC(SQ_HEAD), len = SC(SQ_LEN), cap = SC(SQ_CAP);
        for (i64 k = 0; k < len; k++) {
            i64 pos = (head + k) % cap;
            if (P(SQ_SEQ)[pos] < seq && !P(SQ_EXEC)[pos]
                && P(SSIT)[(((u64)P(SQ_PC)[pos]) >> 2) & (u64)SC(SS_MASK)] == ls)
                return 0;
        }
    }
    i64 fwd = 0, vpos = -1;
    i64 sidx = P(T_SIDX)[seq];
    int r = check_load_c(c, seq, (u64)P(T_EFF)[seq], P(S_MEMB)[sidx],
                         &fwd, &vpos);
    if (r == LSQ_MEMORY || r == LSQ_FORWARD) return 1;
    if (r == LSQ_VIOLATION) {
        i64 slot = seq & SC(WMASK);
        if (!P(W_REPLAYED)[slot]) {   /* seq not in _violated_loads */
            if (SC(VIO_LEN) >= SC(VIO_CAP)) return -1;
            P(VIO_LOG)[SC(VIO_LEN)] = seq;
            SC(VIO_LEN)++;
            SC(MEM_ORDER_VIO)++;
            SC(LOAD_REPLAYS)++;
            P(W_REPLAYED)[slot] = 1;
            train_violation(c, pc, (u64)P(SQ_PC)[vpos]);
        }
        return 0;
    }
    return 0;  /* wait_store */
}
"""

_KERNEL += r"""
/* ---------------- integration table: insert / invalidate ------------ */

static inline void it_copy(Ctx *c, i64 dst, i64 src) {
    P(IT_KOP)[dst] = P(IT_KOP)[src];
    P(IT_IMM)[dst] = P(IT_IMM)[src];
    P(IT_N)[dst] = P(IT_N)[src];
    P(IT_P0)[dst] = P(IT_P0)[src];
    P(IT_D0)[dst] = P(IT_D0)[src];
    P(IT_P1)[dst] = P(IT_P1)[src];
    P(IT_D1)[dst] = P(IT_D1)[src];
    P(IT_OUTP)[dst] = P(IT_OUTP)[src];
    P(IT_OUTD)[dst] = P(IT_OUTD)[src];
    P(IT_ORIG)[dst] = P(IT_ORIG)[src];
    P(IT_VAL)[dst] = P(IT_VAL)[src];
    P(IT_VHAS)[dst] = P(IT_VHAS)[src];
}

/* IntegrationTable.insert + RenoRenamer._insert (both counters bump on
 * every insertion): evict same-key, insert MRU, clip to assoc, then
 * register the output preg and the input pregs in the per-preg index. */
static void it_insert(Ctx *c, i64 kop, i64 imm, i64 n, i64 p0, i64 d0,
                      i64 p1, i64 d1, i64 outp, i64 outd, i64 orig,
                      i64 val, i64 vhas) {
    i64 set = it_set_index(c, kop, imm, n, p0, d0, p1, d1);
    SC(ITC_INS)++;
    SC(RN_IT_INS)++;
    i64 assoc = SC(IT_ASSOC), base = set * assoc;
    i64 len = P(IT_LEN)[set];
    for (i64 i = 0; i < len; i++) {
        i64 j = base + i;
        if (P(IT_KOP)[j] != kop || P(IT_IMM)[j] != imm || P(IT_N)[j] != n)
            continue;
        if (n > 0 && (P(IT_P0)[j] != p0 || P(IT_D0)[j] != d0)) continue;
        if (n > 1 && (P(IT_P1)[j] != p1 || P(IT_D1)[j] != d1)) continue;
        for (i64 k = i; k < len - 1; k++) it_copy(c, base + k, base + k + 1);
        len--;
        break;
    }
    i64 nl = len < assoc ? len + 1 : assoc;
    for (i64 k = nl - 1; k > 0; k--) it_copy(c, base + k, base + k - 1);
    P(IT_KOP)[base] = kop; P(IT_IMM)[base] = imm; P(IT_N)[base] = n;
    P(IT_P0)[base] = p0; P(IT_D0)[base] = d0;
    P(IT_P1)[base] = p1; P(IT_D1)[base] = d1;
    P(IT_OUTP)[base] = outp; P(IT_OUTD)[base] = outd;
    P(IT_ORIG)[base] = orig;
    P(IT_VAL)[base] = val; P(IT_VHAS)[base] = vhas;
    P(IT_LEN)[set] = nl;
    it_register_preg(c, outp, set);
    if (n > 0 && p0 != outp) it_register_preg(c, p0, set);
    if (n > 1 && p1 != outp) it_register_preg(c, p1, set);
}

/* IntegrationTable.invalidate_preg: drop every entry in the preg's
 * registered sets that names it (output or key input). */
static void it_invalidate(Ctx *c, i64 preg) {
    if (!SC(IT_ON) || !P(IT_PHAS)[preg]) return;
    P(IT_PHAS)[preg] = 0;
    i64 pbw = SC(IT_PBW), assoc = SC(IT_ASSOC);
    i64 *bits = P(IT_PBITS) + preg * pbw;
    for (i64 w = 0; w < pbw; w++) {
        u64 word = (u64)bits[w];
        if (!word) continue;
        bits[w] = 0;
        while (word) {
            i64 set = w * 64 + __builtin_ctzll(word);
            word &= word - 1;
            i64 base = set * assoc, len = P(IT_LEN)[set], wpos = 0;
            for (i64 i = 0; i < len; i++) {
                i64 j = base + i;
                int names = P(IT_OUTP)[j] == preg
                    || (P(IT_N)[j] > 0 && P(IT_P0)[j] == preg)
                    || (P(IT_N)[j] > 1 && P(IT_P1)[j] == preg);
                if (names) { SC(ITC_INVAL)++; continue; }
                if (wpos != i) it_copy(c, base + wpos, j);
                wpos++;
            }
            P(IT_LEN)[set] = wpos;
        }
    }
}

/* ---------------- RENO elimination ---------------- */

/* RenoRenamer._try_integrate.  Outputs (kind, preg, disp, reexec). */
static int try_integrate(Ctx *c, i64 seq, i64 sidx, i64 n,
                         i64 p0, i64 d0, i64 p1, i64 d1,
                         i64 *okind, i64 *opreg, i64 *odisp, i64 *oreexec) {
    i64 flags = P(S_FLAGS)[sidx];
    i64 kop, imm;
    if (flags & DF_REG_IMM_ADD) { kop = OPID_ADDI; imm = P(S_FOLD)[sidx]; }
    else { kop = P(S_OPC)[sidx]; imm = P(S_IMM)[sidx]; }
    SC(RN_IT_LOOKUPS)++;
    i64 set = it_set_index(c, kop, imm, n, p0, d0, p1, d1);
    i64 j = it_lookup(c, set, kop, imm, n, p0, d0, p1, d1);
    if (j < 0) return 0;
    if (P(RC_COUNTS)[P(IT_OUTP)[j]] <= 0) return 0;
    if (!P(IT_VHAS)[j] || !P(T_RHAS)[seq] || P(IT_VAL)[j] != P(T_RES)[seq]) {
        SC(RN_IT_VALMIS)++;
        return 0;
    }
    SC(RN_IT_HITS)++;
    *okind = P(IT_ORIG)[j] == ORIGIN_STORE ? ELIM_RA : ELIM_CSE;
    *opreg = P(IT_OUTP)[j];
    *odisp = P(IT_OUTD)[j];
    *oreexec = (flags & DF_LOAD) ? 1 : 0;
    return 1;
}

/* RenoRenamer._try_eliminate: move/fold first, integration fallback. */
static int try_eliminate(Ctx *c, i64 seq, i64 sidx, i64 n,
                         i64 p0, i64 d0, i64 p1, i64 d1, i64 arch_src0,
                         i64 *okind, i64 *opreg, i64 *odisp, i64 *oreexec) {
    i64 flags = P(S_FLAGS)[sidx];
    if (flags & DF_REG_IMM_ADD) {
        i64 fold_ok = (flags & DF_MOVE) ? SC(FOLD_MOVES) : SC(FOLD_ADDS);
        if (fold_ok) {
            if (((SC(GROUP_MASK) >> arch_src0) & 1) && !SC(ALLOW_DEP)) {
                SC(RN_DEP_BLOCKS)++;
            } else {
                i64 nd = d0 + P(S_FOLD)[sidx];
                i64 lim = (i64)1 << (SC(DISP_BITS) - 1);
                if (nd >= -lim && nd < lim) {
                    *okind = (flags & DF_MOVE) ? ELIM_MOVE : ELIM_CF;
                    *opreg = p0;
                    *odisp = nd;
                    *oreexec = 0;
                    return 1;
                }
                SC(RN_OVERFLOW)++;
            }
        }
    }
    if (SC(IT_ON)
        && ((flags & DF_LOAD) || (SC(POLICY_FULL) && (flags & DF_IT_ALU))))
        return try_integrate(c, seq, sidx, n, p0, d0, p1, d1,
                             okind, opreg, odisp, oreexec);
    return 0;
}

/* RenoRenamer._insert_it_entries (non-eliminated dispatch path). */
static void it_insert_entries(Ctx *c, i64 seq, i64 sidx, i64 n,
                              i64 p0, i64 d0, i64 p1, i64 d1,
                              i64 dest_preg) {
    i64 flags = P(S_FLAGS)[sidx];
    if (flags & DF_STORE) {
        it_insert(c, P(O_S2L)[P(S_OPC)[sidx]], P(S_IMM)[sidx], 1,
                  p0, d0, 0, 0, p1, d1, ORIGIN_STORE,
                  P(T_SV)[seq], P(T_SVHAS)[seq]);
        return;
    }
    i64 kop, imm;
    if (flags & DF_REG_IMM_ADD) { kop = OPID_ADDI; imm = P(S_FOLD)[sidx]; }
    else { kop = P(S_OPC)[sidx]; imm = P(S_IMM)[sidx]; }
    if ((flags & DF_LOAD) && dest_preg >= 0) {
        it_insert(c, kop, imm, n, p0, d0, p1, d1, dest_preg, 0,
                  ORIGIN_LOAD, P(T_RES)[seq], P(T_RHAS)[seq]);
        return;
    }
    if (!SC(POLICY_FULL) || dest_preg < 0) return;
    if (!(flags & DF_IT_ALU)) return;
    it_insert(c, kop, imm, n, p0, d0, p1, d1, dest_preg, 0,
              ORIGIN_ALU, P(T_RES)[seq], P(T_RHAS)[seq]);
    if (flags & DF_REG_IMM_ADD)
        it_insert(c, OPID_ADDI, -P(S_FOLD)[sidx], 1, dest_preg, 0, 0, 0,
                  p0, d0, ORIGIN_ALU, P(T_RS1)[seq], P(T_RS1HAS)[seq]);
}
"""

_KERNEL += r"""
/* ---------------- branch unit: non-conditional control -------------- */

/* BranchUnit.process for JUMP (1) / CALL (2) / RET (3).
 * Returns 0 correct, 1 btb bubble, 2 full mispredict (ras). */
static int branch_process_c(Ctx *c, i64 ctl, u64 pc, i64 tgt, int tgt_has) {
    if (ctl == 3) {
        i64 len = SC(RAS_LEN);
        i64 pred = 0;
        int pred_has = 0;
        if (len) {
            pred = P(RAS_STACK)[len - 1];
            SC(RAS_LEN) = len - 1;
            pred_has = 1;
        }
        if ((pred_has != tgt_has) || (pred_has && pred != tgt)) {
            SC(RAS_MISPRED)++;
            return 2;
        }
        return 0;
    }
    int mis = btb_check_target(c, pc, tgt, tgt_has);
    if (ctl == 2) {
        /* ReturnAddressStack.push: append, drop the oldest past capacity. */
        i64 len = SC(RAS_LEN), cap = SC(RAS_CAP);
        if (len >= cap) {
            memmove(P(RAS_STACK), P(RAS_STACK) + 1,
                    (size_t)(cap - 1) * sizeof(i64));
            P(RAS_STACK)[cap - 1] = (i64)(pc + 4);
        } else {
            P(RAS_STACK)[len] = (i64)(pc + 4);
            SC(RAS_LEN) = len + 1;
        }
    }
    return mis ? 1 : 0;
}

/* Store-queue lookup by seq (ring is seq-sorted: program order). */
static i64 sq_find(Ctx *c, i64 seq) {
    i64 head = SC(SQ_HEAD), len = SC(SQ_LEN), cap = SC(SQ_CAP);
    i64 lo = 0, hi = len - 1;
    while (lo <= hi) {
        i64 mid = (lo + hi) >> 1;
        i64 pos = (head + mid) % cap;
        i64 s = P(SQ_SEQ)[pos];
        if (s == seq) return pos;
        if (s < seq) lo = mid + 1; else hi = mid - 1;
    }
    return -1;
}

/* ---------------- the cycle loop ---------------- */

/* Cycle-exact port of Pipeline._run_cycles, run over a whole cell.
 * Returns 0 on success with the cursor/stat scalars updated; any nonzero
 * return leaves no Python-visible state change (the backend replays the
 * cell). */
__attribute__((visibility("default")))
i64 repro_run(i64 *sc_blk, i64 **pt_blk, uint8_t *pages_blk) {
    Ctx ctx = { sc_blk, pt_blk, pages_blk };
    Ctx *c = &ctx;
    const i64 total = SC(TOTAL);
    const i64 wmask = SC(WMASK);
    const i64 max_cycles = SC(MAX_CYCLES);
    const int reno = (int)SC(MODE);
    const int record = (int)SC(RECORD_STATS);
    const int timing = (int)SC(TIMING);
    i64 cycle = SC(CYCLE);
    i64 committed = SC(COMMITTED);
    i64 fetch_index = SC(FETCH_INDEX);
    i64 fetch_resume = SC(FETCH_RESUME);
    i64 waiting_branch = SC(WAITING_BRANCH);
    i64 last_fetch_block = SC(LAST_FETCH_BLOCK);
    i64 stall_reason = SC(STALL_REASON);
    i64 iq_count = SC(IQ_COUNT);

    while (committed < total) {
        if (cycle >= max_cycles) return ERR_MAX_CYCLES;

        /* ---------------- Commit ---------------- */
        i64 slot = committed & wmask;
        if (P(W_COMPLETE)[slot] < cycle) {
            i64 budget = SC(COMMIT_WIDTH);
            i64 ports = SC(RETIRE_PORTS);
            for (;;) {
                i64 sidx = P(T_SIDX)[committed];
                i64 flags = P(S_FLAGS)[sidx];
                i64 elim = P(W_ELIM)[slot];
                if (flags & DF_STORE) {
                    if (!ports) break;
                    u64 addr = (u64)P(W_EFF)[slot];
                    if (mem_write(c, addr, P(S_MEMB)[sidx],
                                  (u64)P(W_VALUE)[slot]))
                        return ERR_INTERNAL;
                    int hit;
                    hier_access(c, 0, addr, cycle, &hit);
                    if (!SC(SQ_LEN) || P(SQ_SEQ)[SC(SQ_HEAD)] != committed)
                        return ERR_INTERNAL;
                    SC(SQ_HEAD) = (SC(SQ_HEAD) + 1) % SC(SQ_CAP);
                    SC(SQ_LEN)--;
                    ports--;
                } else if (elim & ELIM_REEXEC) {
                    if (!ports) break;
                    u64 eff = (u64)P(T_EFF)[committed];
                    i64 mb = P(S_MEMB)[sidx];
                    u64 raw = mem_read(c, eff, mb);
                    u64 val = (flags & DF_MEM_SIGNED)
                        ? sextb(raw, (int)(8 * mb)) : raw;
                    u64 shared = (u64)P(PRF_VAL)[P(RRE_P)[slot]]
                        + (u64)P(RRE_D)[slot];
                    if (val != shared) SC(INT_VAL_MISMATCH)++;
                    SC(REEXEC_LOADS)++;
                    int hit;
                    hier_access(c, 0, eff, cycle, &hit);
                    ports--;
                }
                if (P(S_DEST)[sidx] >= 0 && P(T_RHAS)[committed]) {
                    if (elim) {
                        u64 produced = (u64)P(PRF_VAL)[P(RRE_P)[slot]]
                            + (u64)P(RRE_D)[slot];
                        if (produced != (u64)P(T_RES)[committed])
                            return ERR_VALUE_CHECK;
                    } else if ((u64)P(W_VALUE)[slot]
                               != (u64)P(T_RES)[committed]) {
                        return ERR_VALUE_CHECK;
                    }
                }
                if ((flags & DF_LOAD) && !elim) SC(LQ_LEN)--;
                i64 prev = P(W_PREV)[slot];
                if (prev >= 0) {
                    if (!reno) {
                        P(FREE_RING)[(SC(FREE_HEAD) + SC(FREE_LEN))
                                     % SC(NUM_PREGS)] = prev;
                        SC(FREE_LEN)++;
                    } else {
                        i64 cnt = P(RC_COUNTS)[prev];
                        if (cnt == 1) {
                            P(RC_COUNTS)[prev] = 0;
                            P(FREE_RING)[(SC(FREE_HEAD) + SC(FREE_LEN))
                                         % SC(NUM_PREGS)] = prev;
                            SC(FREE_LEN)++;
                            it_invalidate(c, prev);
                        } else if (cnt > 1) {
                            P(RC_COUNTS)[prev] = cnt - 1;
                        } else {
                            return ERR_INTERNAL;  /* refcount underflow */
                        }
                    }
                }
                if (elim) {
                    switch (elim & 15) {
                    case ELIM_MOVE: SC(D_ELIM_MOVES)++; break;
                    case ELIM_CF:   SC(D_ELIM_FOLDS)++; break;
                    case ELIM_CSE:  SC(D_ELIM_CSE)++; break;
                    case ELIM_RA:   SC(D_ELIM_RA)++; break;
                    }
                }
                if (timing) {
                    /* The TimingRecord fields, by seq (fetch == dispatch;
                     * the trace's tables hold the static ones). */
                    P(TR_DISPATCH)[committed] = P(W_DISPATCH)[slot];
                    P(TR_ISSUE)[committed] = P(W_ISSUE)[slot];
                    P(TR_COMPLETE)[committed] = P(W_COMPLETE)[slot];
                    P(TR_RETIRE)[committed] = cycle;
                    P(TR_DCACHE)[committed] = P(W_DCACHE)[slot];
                    P(TR_LATENCY)[committed] = P(W_LATENCY)[slot];
                    P(TR_MISPRED)[committed] = P(W_MISPRED)[slot];
                    P(TR_ELIM)[committed] = elim != 0;
                    i64 np = P(W_NPROD)[slot];
                    P(TR_NPROD)[committed] = np;
                    if (np > 0) P(TR_PROD0)[committed] = P(W_PROD0)[slot];
                    if (np > 1) P(TR_PROD1)[committed] = P(W_PROD1)[slot];
                    if (np > 2) P(TR_PROD2)[committed] = P(W_PROD2)[slot];
                }
                P(W_COMPLETE)[slot] = NO_COMPLETE;
                committed++;
                if (!--budget || committed >= fetch_index) break;
                slot = committed & wmask;
                if (P(W_COMPLETE)[slot] >= cycle) break;
            }
        }

        /* ---------------- Wakeup + select ---------------- */
        i64 nsel = 0;
        i64 *sel = P(SELBUF);
        if (drain_wakeups(c, cycle)) return ERR_INTERNAL;
        if (SC(IQ_READY_TOTAL)) {
            i64 idx4[4] = {0, 0, 0, 0}, klen4[4] = {0, 0, 0, 0};
            i64 lim4[4] = { SC(W_INT), SC(W_LOAD), SC(W_STORE), SC(W_FP) };
            int act[4], nact = 0;
            for (int k = 0; k < 4; k++) {
                act[k] = lim4[k] && P(RLEN)[k];
                if (act[k]) nact++;
            }
            i64 remaining = SC(TOTAL_ISSUE);
            while (remaining && nact) {
                int bi = -1;
                i64 best = 0;
                for (int k = 0; k < 4; k++) {
                    if (!act[k]) continue;
                    i64 v = P(READY)[k * SC(RSTRIDE) + idx4[k]];
                    if (bi < 0 || v < best) { best = v; bi = k; }
                }
                i64 seq = best;
                idx4[bi]++;
                int veto = P(W_DISPATCH)[seq & wmask] >= cycle;
                if (!veto && bi == CLASS_LOAD) {
                    int g = load_gate(c, seq, cycle);
                    if (g < 0) return ERR_INTERNAL;
                    veto = !g;
                }
                if (veto) {
                    P(KEPTBUF)[bi * SC(RSTRIDE) + klen4[bi]++] = seq;
                } else {
                    sel[nsel++] = seq;
                    remaining--;
                    if (--lim4[bi] == 0) { act[bi] = 0; nact--; continue; }
                }
                if (idx4[bi] == P(RLEN)[bi]) { act[bi] = 0; nact--; }
            }
            for (int k = 0; k < 4; k++) {
                if (!idx4[k]) continue;
                i64 *lst = P(READY) + k * SC(RSTRIDE);
                i64 len = P(RLEN)[k], kl = klen4[k], ix = idx4[k];
                memmove(lst + kl, lst + ix, (size_t)(len - ix) * sizeof(i64));
                memcpy(lst, P(KEPTBUF) + k * SC(RSTRIDE),
                       (size_t)kl * sizeof(i64));
                P(RLEN)[k] = kl + (len - ix);
            }
            iq_count -= nsel;
            SC(IQ_READY_TOTAL) -= nsel;
        }
"""

_KERNEL += r"""
        /* ---------------- Execute ---------------- */
        if (nsel) {
            SC(D_ISSUED) += nsel;
            for (i64 i = 0; i < nsel; i++) {
                i64 seq = sel[i];
                i64 eslot = seq & wmask;
                i64 sidx = P(T_SIDX)[seq];
                i64 flags = P(S_FLAGS)[sidx];
                i64 cls = P(S_CLASS)[sidx];
                i64 ns = P(W_NSRC)[eslot];
                u64 value0 = 0, value1 = 0;
                i64 fextra = 0;
                if (reno) {
                    int fused = 0;
                    if (ns) {
                        value0 = (u64)P(PRF_VAL)[P(W_S0P)[eslot]];
                        i64 d = P(W_S0D)[eslot];
                        if (d) { value0 += (u64)d; fused = 1; }
                        if (ns > 1) {
                            value1 = (u64)P(PRF_VAL)[P(W_S1P)[eslot]];
                            d = P(W_S1D)[eslot];
                            if (d) { value1 += (u64)d; fused = 1; }
                        }
                    }
                    fextra = P(W_FEXTRA)[eslot];
                    if (fused) { SC(D_FUSED)++; SC(D_FUSE_PEN) += fextra; }
                } else if (ns) {
                    value0 = (u64)P(PRF_VAL)[P(W_S0P)[eslot]];
                    if (ns > 1) value1 = (u64)P(PRF_VAL)[P(W_S1P)[eslot]];
                }
                if (timing) P(W_ISSUE)[eslot] = cycle;
                if (cls == CLASS_LOAD) {
                    u64 address = value0 + (u64)P(S_IMM)[sidx];
                    if (address != (u64)P(T_EFF)[seq]) return ERR_LOAD_ADDR;
                    P(W_EFF)[eslot] = (i64)address;
                    i64 mb = P(S_MEMB)[sidx];
                    u64 raw = 0;
                    int fwd = 0;
                    i64 dlat = 0;
                    if (SC(SQ_LEN)) {
                        i64 fv = 0, vp = -1;
                        if (check_load_c(c, seq, address, mb, &fv, &vp)
                                == LSQ_FORWARD) {
                            raw = (u64)fv;
                            dlat = SC(L1D_LAT);
                            SC(D_STORE_FWD)++;
                            fwd = 1;
                        }
                    }
                    if (!fwd) {
                        raw = mem_read(c, address, mb);
                        int hit;
                        dlat = hier_access(c, 0, address, cycle, &hit);
                    }
                    u64 value = (flags & DF_MEM_SIGNED)
                        ? sextb(raw, (int)(8 * mb)) : raw;
                    if (value != (u64)P(T_RES)[seq]) {
                        SC(MEM_ORDER_VIO)++;
                        SC(LOAD_REPLAYS)++;
                        value = (u64)P(T_RES)[seq];
                        dlat += SC(VIO_PENALTY);
                    }
                    if (P(W_REPLAYED)[eslot]) dlat += SC(VIO_PENALTY);
                    P(W_VALUE)[eslot] = (i64)value;
                    P(W_DCACHE)[eslot] = dlat;
                    i64 tot = P(S_LAT)[sidx] + fextra + dlat;
                    P(W_LATENCY)[eslot] = tot;
                    P(W_COMPLETE)[eslot] = cycle + tot;
                    i64 dst = P(W_DEST)[eslot];
                    if (dst >= 0) {
                        i64 ready = cycle
                            + (tot > SC(SCHED_LAT) ? tot : SC(SCHED_LAT));
                        P(PRF_VAL)[dst] = (i64)value;
                        P(PRF_RDY)[dst] = ready;
                        if (waiter_chain_to_wakeups(c, dst, ready))
                            return ERR_INTERNAL;
                    }
                    continue;
                }
                if (cls == CLASS_STORE) {
                    u64 address = value0 + (u64)P(S_IMM)[sidx];
                    if (address != (u64)P(T_EFF)[seq]) return ERR_STORE_ADDR;
                    u64 value = value1 & (u64)P(S_MMASK)[sidx];
                    P(W_EFF)[eslot] = (i64)address;
                    P(W_VALUE)[eslot] = (i64)value;
                    i64 complete = cycle + P(S_LAT)[sidx] + fextra;
                    P(W_COMPLETE)[eslot] = complete;
                    i64 pos = sq_find(c, seq);
                    if (pos < 0) return ERR_INTERNAL;
                    P(SQ_ADDR)[pos] = (i64)address;
                    P(SQ_AHAS)[pos] = 1;
                    P(SQ_VAL)[pos] = (i64)value;
                    P(SQ_EXEC)[pos] = 1;
                    P(SQ_COMP)[pos] = complete;
                    continue;
                }
                i64 latency = P(S_LAT)[sidx] + fextra;
                i64 complete = cycle + latency;
                P(W_COMPLETE)[eslot] = complete;
                if (flags & DF_COND_BRANCH) {
                    int taken = branch_taken_c(P(O_BRANCH)[P(S_OPC)[sidx]],
                                               value0);
                    if (taken != (int)P(T_TAKEN)[seq]) return ERR_BRANCH_DIR;
                } else if (P(S_DEST)[sidx] >= 0) {
                    u64 value = (flags & DF_CALL)
                        ? (u64)P(T_PC)[seq] + 4
                        : alu_eval_c(P(S_OPC)[sidx], value0, value1,
                                     P(S_IMM)[sidx]);
                    P(W_VALUE)[eslot] = (i64)value;
                    i64 dst = P(W_DEST)[eslot];
                    if (dst >= 0) {
                        i64 ready = cycle
                            + (latency > SC(SCHED_LAT) ? latency
                               : SC(SCHED_LAT));
                        P(PRF_VAL)[dst] = (i64)value;
                        P(PRF_RDY)[dst] = ready;
                        if (waiter_chain_to_wakeups(c, dst, ready))
                            return ERR_INTERNAL;
                    }
                }
                if (P(W_MISPRED)[eslot] && waiting_branch == seq) {
                    fetch_resume = complete + SC(FE_DEPTH);
                    waiting_branch = NO_BRANCH;
                    stall_reason = STALL_BRANCH;
                }
            }
        }
"""

_KERNEL += r"""
        /* ---------------- Fetch + rename + dispatch ---------------- */
        if (fetch_index < total) {
            if (cycle < fetch_resume) {
                SC(D_FETCH_STALLS)++;
                if (record) P(OC_STALL)[stall_reason]++;
            } else {
                i64 rob_room = SC(WSIZE) - (fetch_index - committed);
                i64 iq_room = SC(IQ_CAP) - iq_count;
                i64 sq_room = SC(SQ_CAP) - SC(SQ_LEN);
                i64 lq_room = SC(LQ_CAP) - SC(LQ_LEN);
                i64 taken_branches = 0, dispatched = 0, pregs_allocated = 0;
                if (reno) SC(GROUP_MASK) = 0;   /* begin_group */
                while (dispatched < SC(RENAME_WIDTH) && fetch_index < total) {
                    i64 seq = fetch_index;
                    i64 sidx = P(T_SIDX)[seq];
                    i64 flags = P(S_FLAGS)[sidx];
                    if (!rob_room) { SC(ROB_STALL)++; break; }
                    if (!iq_room) { SC(IQ_STALL)++; break; }
                    if (flags & DF_STORE) {
                        if (!sq_room) { SC(LSQ_STALL)++; break; }
                    } else if ((flags & DF_LOAD) && !lq_room) {
                        SC(LSQ_STALL)++;
                        break;
                    }
                    u64 pc = (u64)P(T_PC)[seq];
                    i64 block = (i64)(pc >> SC(FB_SHIFT));
                    if (block != last_fetch_block) {
                        int hit;
                        i64 lat = hier_access(c, 1, pc, cycle, &hit);
                        last_fetch_block = block;
                        if (!hit) {
                            fetch_resume = cycle + lat;
                            stall_reason = STALL_ICACHE;
                            break;
                        }
                    }
                    int is_taken = (flags & DF_CONTROL)
                        && P(T_TAKEN)[seq] == 1;
                    if (is_taken && taken_branches >= SC(TAKEN_LIMIT)) break;
                    i64 dslot = seq & wmask;
                    i64 dest = P(S_DEST)[sidx];
                    i64 ns = P(S_NSRC)[sidx];
                    int eliminated = 0;
                    i64 p0 = -1, d0 = 0, p1 = -1, d1 = 0, fextra = 0;
                    i64 newp = -1, shared = -1;
                    if (!reno) {
                        /* Conventional renaming (BaselineRenamer). */
                        if (dest >= 0 && !SC(FREE_LEN)) {
                            SC(RENAME_STALL)++;
                            break;
                        }
                        if (ns) {
                            p0 = P(BMAP)[P(S_SRC0)[sidx]];
                            P(W_S0P)[dslot] = p0;
                            if (ns > 1) {
                                p1 = P(BMAP)[P(S_SRC1)[sidx]];
                                P(W_S1P)[dslot] = p1;
                            }
                        }
                        if (dest >= 0) {
                            newp = P(FREE_RING)[SC(FREE_HEAD)];
                            SC(FREE_HEAD) = (SC(FREE_HEAD) + 1)
                                % SC(NUM_PREGS);
                            SC(FREE_LEN)--;
                            P(W_PREV)[dslot] = P(BMAP)[dest];
                            P(BMAP)[dest] = newp;
                            P(PRF_RDY)[newp] = NOT_READY;
                            P(W_DEST)[dslot] = newp;
                            pregs_allocated++;
                        } else {
                            P(W_DEST)[dslot] = -1;
                            P(W_PREV)[dslot] = -1;
                        }
                    } else {
                        /* RENO renaming (inlined RenoRenamer.rename_next). */
                        if (ns) {
                            i64 a = P(S_SRC0)[sidx];
                            p0 = P(RN_PREG)[a];
                            d0 = P(RN_DISP)[a];
                            if (ns > 1) {
                                a = P(S_SRC1)[sidx];
                                p1 = P(RN_PREG)[a];
                                d1 = P(RN_DISP)[a];
                            }
                        }
                        i64 ekind = 0, epreg = 0, edisp = 0, ereex = 0;
                        int has_elim = 0;
                        if (dest >= 0) {
                            if (flags & SC(ELIG_MASK))
                                has_elim = try_eliminate(
                                    c, seq, sidx, ns, p0, d0, p1, d1,
                                    ns ? P(S_SRC0)[sidx] : 0,
                                    &ekind, &epreg, &edisp, &ereex);
                            if (!has_elim && !SC(FREE_LEN)) {
                                SC(RENAME_STALL)++;
                                break;
                            }
                        }
                        if (has_elim) {
                            i64 cnt = P(RC_COUNTS)[epreg];
                            if (cnt <= 0) return ERR_INTERNAL;
                            cnt++;
                            P(RC_COUNTS)[epreg] = cnt;
                            SC(RC_SHARES)++;
                            if (cnt > SC(RC_MAXOBS)) SC(RC_MAXOBS) = cnt;
                            i64 prevp = P(RN_PREG)[dest];
                            P(RN_PREG)[dest] = epreg;
                            P(RN_DISP)[dest] = edisp;
                            SC(GROUP_MASK) |= (i64)1 << dest;
                            switch (ekind) {
                            case ELIM_MOVE: SC(RN_MOVES)++; break;
                            case ELIM_CF:   SC(RN_FOLDS)++; break;
                            case ELIM_CSE:  SC(RN_CSE)++; break;
                            case ELIM_RA:   SC(RN_RA)++; break;
                            }
                            eliminated = 1;
                            shared = epreg;
                            P(W_PREV)[dslot] = prevp;
                            P(W_ELIM)[dslot] = ekind
                                | (ereex ? ELIM_REEXEC : 0);
                            P(W_DEST)[dslot] = -1;
                            P(RRE_P)[dslot] = epreg;
                            P(RRE_D)[dslot] = edisp;
                        } else {
                            if (dest >= 0) {
                                newp = P(FREE_RING)[SC(FREE_HEAD)];
                                SC(FREE_HEAD) = (SC(FREE_HEAD) + 1)
                                    % SC(NUM_PREGS);
                                SC(FREE_LEN)--;
                                if (P(RC_COUNTS)[newp] != 0)
                                    return ERR_INTERNAL;
                                P(RC_COUNTS)[newp] = 1;
                                SC(RC_ALLOCS)++;
                                i64 prevp = P(RN_PREG)[dest];
                                P(RN_PREG)[dest] = newp;
                                P(RN_DISP)[dest] = 0;
                                P(PRF_RDY)[newp] = NOT_READY;
                                P(W_DEST)[dslot] = newp;
                                P(W_PREV)[dslot] = prevp;
                                pregs_allocated++;
                            } else {
                                P(W_DEST)[dslot] = -1;
                                P(W_PREV)[dslot] = -1;
                            }
                            P(W_ELIM)[dslot] = 0;
                            if ((ns && d0) || (ns > 1 && d1)) {
                                if (SC(FUSE_ALL)) {
                                    fextra = SC(FUSE_ALL);
                                } else {
                                    i64 cat =
                                        P(O_FUSECAT)[P(S_OPC)[sidx]];
                                    if (cat == 1) {
                                        fextra = SC(FUSE_NONADD);
                                    } else if (cat == 2) {
                                        int displaced = (ns && d0 != 0)
                                            + (ns > 1 && d1 != 0);
                                        fextra = displaced >= 2
                                            ? SC(FUSE_DDISP) : 0;
                                    }
                                }
                            }
                            if (SC(IT_ON)
                                && ((flags & (DF_LOAD | DF_STORE))
                                    || SC(POLICY_FULL)))
                                it_insert_entries(c, seq, sidx, ns,
                                                  p0, d0, p1, d1, newp);
                        }
                    }
                    if (timing) {
                        /* As the python loop: each source's writer, then
                         * an eliminated instruction's shared destination's;
                         * then the fresh destination's writer is this seq. */
                        i64 *writer = P(PREG_WRITER);
                        i64 *prod[3] = { P(W_PROD0), P(W_PROD1), P(W_PROD2) };
                        i64 np = 0;
                        if (ns) {
                            prod[np++][dslot] = writer[p0];
                            if (ns > 1) prod[np++][dslot] = writer[p1];
                        }
                        if (eliminated) prod[np++][dslot] = writer[shared];
                        P(W_NPROD)[dslot] = np;
                        if (newp >= 0) writer[newp] = seq;
                        P(W_ISSUE)[dslot] = -1;
                        P(W_DCACHE)[dslot] = 0;
                        P(W_MISPRED)[dslot] = 0;
                        P(W_LATENCY)[dslot] = P(S_LAT)[sidx];
                    }
                    P(W_DISPATCH)[dslot] = cycle;
                    if (is_taken) taken_branches++;

                    /* Branch prediction (inlined BranchUnit.process). */
                    int stop_after = 0;
                    if (flags & DF_CONTROL) {
                        if (flags & DF_COND_BRANCH) {
                            SC(BR_COND)++;
                            int predicted = bp_predict_update(c, pc,
                                                              is_taken);
                            if (predicted != is_taken) {
                                SC(BR_MISPRED)++;
                                P(W_MISPRED)[dslot] = 1;
                                waiting_branch = seq;
                                fetch_resume = STALLED_SENTINEL;
                                stall_reason = STALL_BRANCH;
                                stop_after = 1;
                            } else if (is_taken) {
                                if (btb_check_target(c, pc, P(T_TGT)[seq],
                                                     (int)P(T_THAS)[seq])) {
                                    fetch_resume = cycle + 2;
                                    stall_reason = STALL_FRONTEND;
                                    stop_after = 1;
                                }
                            }
                        } else {
                            int r = branch_process_c(
                                c, P(O_CTL)[P(S_OPC)[sidx]], pc,
                                P(T_TGT)[seq], (int)P(T_THAS)[seq]);
                            if (r == 1) {
                                fetch_resume = cycle + 2;
                                stall_reason = STALL_FRONTEND;
                                stop_after = 1;
                            } else if (r == 2) {
                                P(W_MISPRED)[dslot] = 1;
                                waiting_branch = seq;
                                fetch_resume = STALLED_SENTINEL;
                                stall_reason = STALL_BRANCH;
                                stop_after = 1;
                            }
                        }
                    }

                    /* Insertion. */
                    rob_room--;
                    if (eliminated || (flags & DF_NO_EXECUTE)) {
                        P(W_COMPLETE)[dslot] = cycle;
                    } else {
                        i64 cls = P(S_CLASS)[sidx];
                        P(W_CLASS)[dslot] = cls;
                        if (reno) {
                            P(W_FEXTRA)[dslot] = fextra;
                            if (ns) {
                                P(W_S0P)[dslot] = p0;
                                P(W_S0D)[dslot] = d0;
                                if (ns > 1) {
                                    P(W_S1P)[dslot] = p1;
                                    P(W_S1D)[dslot] = d1;
                                }
                            }
                        }
                        P(W_NSRC)[dslot] = ns;
                        i64 pending = 0;
                        for (i64 si = 0; si < ns; si++) {
                            i64 preg = si ? p1 : p0;
                            i64 ra = P(PRF_RDY)[preg];
                            if (ra <= cycle) continue;
                            pending++;
                            if (ra == NOT_READY) {
                                if (waiter_append(c, preg, seq))
                                    return ERR_INTERNAL;
                            } else if (wakeup_push(c, ra, seq)) {
                                return ERR_INTERNAL;
                            }
                        }
                        if (pending) P(W_WAITING)[dslot] = pending;
                        else if (ready_push(c, cls, seq)) return ERR_INTERNAL;
                        iq_count++;
                        if (cls == CLASS_STORE) {
                            i64 pos = (SC(SQ_HEAD) + SC(SQ_LEN)) % SC(SQ_CAP);
                            P(SQ_SEQ)[pos] = seq;
                            P(SQ_PC)[pos] = (i64)pc;
                            P(SQ_SIZE)[pos] = P(S_MEMB)[sidx];
                            P(SQ_TADDR)[pos] = P(T_EFF)[seq];
                            P(SQ_ADDR)[pos] = 0;
                            P(SQ_AHAS)[pos] = 0;
                            P(SQ_VAL)[pos] = 0;
                            P(SQ_EXEC)[pos] = 0;
                            P(SQ_COMP)[pos] = -1;
                            SC(SQ_LEN)++;
                            sq_room--;
                        } else if (cls == CLASS_LOAD) {
                            SC(LQ_LEN)++;
                            lq_room--;
                            P(W_REPLAYED)[dslot] = 0;
                        }
                        P(W_COMPLETE)[dslot] = NO_COMPLETE;
                        iq_room--;
                    }
                    fetch_index++;
                    dispatched++;
                    if (stop_after) break;
                }
                if (dispatched) SC(D_FETCHED) += dispatched;
                if (pregs_allocated) {
                    SC(D_PREGS_ALLOC) += pregs_allocated;
                    i64 in_use = SC(NUM_PREGS) - SC(FREE_LEN);
                    if (in_use > SC(MAX_PREGS)) SC(MAX_PREGS) = in_use;
                }
            }
        }

        /* ---------------- Observability (opt-in) ---------------- */
        if (record) {
            P(OC_ROB)[fetch_index - committed]++;
            P(OC_IQ)[iq_count]++;
            P(OC_PRF)[SC(NUM_PREGS) - SC(FREE_LEN)]++;
            P(OC_SQ)[SC(SQ_LEN)]++;
            P(OC_LQ)[SC(LQ_LEN)]++;
            for (int k = 0; k < 4; k++)
                P(OC_READY)[k * SC(RSTRIDE) + P(RLEN)[k]]++;
            P(OC_ISSUED)[nsel]++;
            for (i64 i = 0; i < nsel; i++)
                P(OC_CLASS)[P(W_CLASS)[sel[i] & wmask]]++;
        }
        cycle++;

        /* ---------------- Event-driven fast-forward ---------------- */
        if (committed >= total) continue;
        if (SC(IQ_READY_TOTAL)) continue;
        i64 idle = SC(HEAP_LEN) ? P(HEAP)[0] : NOT_READY;
        if (idle <= cycle) continue;
        i64 tgt = idle;
        int fetching = fetch_index < total;
        if (fetching) {
            if (fetch_resume <= cycle) continue;
            if (fetch_resume < tgt) tgt = fetch_resume;
        }
        i64 head_ready = P(W_COMPLETE)[committed & wmask] + 1;
        if (head_ready < tgt) tgt = head_ready;
        if (tgt <= cycle) continue;
        if (tgt > max_cycles) tgt = max_cycles;
        if (fetching) SC(D_FETCH_STALLS) += tgt - cycle;
        if (record) {
            i64 sk = tgt - cycle;
            if (fetching) P(OC_STALL)[stall_reason] += sk;
            P(OC_ROB)[fetch_index - committed] += sk;
            P(OC_IQ)[iq_count] += sk;
            P(OC_PRF)[SC(NUM_PREGS) - SC(FREE_LEN)] += sk;
            P(OC_SQ)[SC(SQ_LEN)] += sk;
            P(OC_LQ)[SC(LQ_LEN)] += sk;
            for (int k = 0; k < 4; k++) P(OC_READY)[k * SC(RSTRIDE)] += sk;
            P(OC_ISSUED)[0] += sk;
        }
        cycle = tgt;
    }

    SC(CYCLE) = cycle;
    SC(COMMITTED) = committed;
    SC(FETCH_INDEX) = fetch_index;
    SC(FETCH_RESUME) = fetch_resume;
    SC(WAITING_BRANCH) = waiting_branch;
    SC(LAST_FETCH_BLOCK) = last_fetch_block;
    SC(STALL_REASON) = stall_reason;
    SC(IQ_COUNT) = iq_count;
    return ERR_OK;
}
"""

_KERNEL += r"""
/* ---------------- the functional run ---------------- */

/* Port of FunctionalSimulator's interpreter.  Executes from pc F_PC with
 * the registers in F_REGS and the memory in the page pool, writing record
 * F_SEQ onward into the T_* columns.  Every cursor lives in the blocks, so
 * after FN_NEED_PAGE or FN_FULL the caller grows the pool or the columns
 * and calls again: an instruction that returns early has changed nothing
 * (a store checks both of its pages before writing a byte).  FN_FAIL
 * leaves the rerun to the python interpreter: the budget is spent, the pc
 * left the code segment, an access wraps past 2**64 (python's memory does
 * not wrap there), or the instruction is FK_UNSUPPORTED. */
__attribute__((visibility("default")))
i64 repro_functional(i64 *sc_blk, i64 **pt_blk, uint8_t *pages_blk) {
    Ctx ctx = { sc_blk, pt_blk, pages_blk };
    Ctx *c = &ctx;
    u64 *regs = (u64 *)P(F_REGS);
    const i64 *kind = P(F_KIND), *src1 = P(F_RS1), *src2 = P(F_RS2);
    const i64 *dest = P(F_RD), *target = P(F_TGT);
    const i64 *opc = P(S_OPC), *imm = P(S_IMM), *memb = P(S_MEMB);
    const i64 *flags = P(S_FLAGS), *branch_kind = P(O_BRANCH);
    i64 *t_pc = P(T_PC), *t_sidx = P(T_SIDX), *t_rs1 = P(T_RS1);
    i64 *t_rs1has = P(T_RS1HAS), *t_rs2 = P(T_RS2), *t_res = P(T_RES);
    i64 *t_rhas = P(T_RHAS), *t_eff = P(T_EFF), *t_ehas = P(T_EHAS);
    i64 *t_sv = P(T_SV), *t_svhas = P(T_SVHAS), *t_taken = P(T_TAKEN);
    i64 *t_npc = P(T_NPC), *t_tgt = P(T_TGT), *t_thas = P(T_THAS);
    const i64 budget = SC(F_BUDGET), ncode = SC(F_NCODE), cap = SC(F_CAP);
    u64 pc = (u64)SC(F_PC);
    i64 seq = SC(F_SEQ);
    i64 code;

    for (;;) {
        if (seq >= budget
            || pc < CODE_BASE
            || (pc - CODE_BASE) / INSTRUCTION_BYTES >= (u64)ncode) {
            code = FN_FAIL;
            break;
        }
        if (seq >= cap) { code = FN_FULL; break; }
        i64 sidx = (i64)((pc - CODE_BASE) / INSTRUCTION_BYTES);
        i64 k = kind[sidx];
        u64 a = src1[sidx] < 0 ? 0 : regs[src1[sidx]];
        u64 b = src2[sidx] < 0 ? 0 : regs[src2[sidx]];
        u64 fall = pc + INSTRUCTION_BYTES, next = fall;
        u64 res = 0, eff = 0, tgt = 0;
        i64 rhas = 0, ehas = 0, taken = -1;
        if (k == FK_ALU) {
            res = alu_eval_c(opc[sidx], a, b, imm[sidx]);
            rhas = 1;
        } else if (k == FK_LOAD || k == FK_STORE) {
            i64 mb = memb[sidx];
            eff = a + (u64)imm[sidx];
            ehas = 1;
            if (eff > ~(u64)0 - (u64)(mb - 1)) { code = FN_FAIL; break; }
            if (k == FK_LOAD) {
                u64 raw = mem_read(c, eff, mb);
                res = (flags[sidx] & DF_MEM_SIGNED)
                    ? sextb(raw, (int)(8 * mb)) : raw;
                rhas = 1;
            } else {
                i64 first = (i64)(eff >> 12);
                i64 last = (i64)((eff + (u64)(mb - 1)) >> 12);
                i64 missing = pool_find(c, first) < 0 ? first
                    : pool_find(c, last) < 0 ? last : -1;
                if (missing >= 0) {
                    SC(F_PAGE) = missing;
                    code = FN_NEED_PAGE;
                    break;
                }
                mem_write(c, eff, mb, b);
            }
        } else if (k == FK_BRANCH) {
            taken = branch_taken_c(branch_kind[opc[sidx]], a);
            tgt = (u64)target[sidx];
            next = taken ? tgt : fall;
        } else if (k == FK_JUMP || k == FK_CALL) {
            taken = 1;
            tgt = next = (u64)target[sidx];
            if (k == FK_CALL) { res = fall; rhas = 1; }
        } else if (k == FK_RET) {
            taken = 1;
            tgt = next = a;
        } else if (k != FK_NONE && k != FK_HALT) {
            code = FN_FAIL;
            break;
        }
        if (rhas && dest[sidx] >= 0) regs[dest[sidx]] = res;
        t_pc[seq] = (i64)pc;
        t_sidx[seq] = sidx;
        t_rs1[seq] = (i64)a;
        t_rs1has[seq] = 1;
        t_rs2[seq] = (i64)b;
        t_res[seq] = (i64)res;
        t_rhas[seq] = rhas;
        t_eff[seq] = (i64)eff;
        t_ehas[seq] = ehas;
        t_sv[seq] = k == FK_STORE ? (i64)b : 0;
        t_svhas[seq] = k == FK_STORE;
        t_taken[seq] = taken;
        t_npc[seq] = (i64)next;
        t_tgt[seq] = (i64)tgt;
        t_thas[seq] = taken >= 0;
        seq++;
        if (k == FK_HALT) { code = FN_OK; break; }
        pc = next;
    }
    SC(F_PC) = (i64)pc;
    SC(F_SEQ) = seq;
    return code;
}
"""

_KERNEL += r"""
/* ---------------- report reduction ---------------- */

/* Port of repro.analysis.critpath.python_walk, line for line.  sc: the
 * record count (positive), then the outputs fetch, alu_exec, load_exec,
 * load_mem, commit, path_length; pt: critpath.WALK_COLUMNS (CP_*). */
__attribute__((visibility("default")))
i64 repro_critpath(i64 *sc, i64 **pt, uint8_t *unused) {
    const i64 count = sc[0], *complete = pt[CP_COMPLETE_CYCLE];
    const i64 *prods[3] = { pt[CP_PROD0], pt[CP_PROD1], pt[CP_PROD2] };
    i64 seq = count - 1, done = complete[seq];
    i64 commit = pt[CP_RETIRE_CYCLE][seq] - done;
    i64 fetch = 0, alu_exec = 0, load_exec = 0, load_mem = 0, path_length = 0;

    for (i64 step = 0; step < count + 8; step++) {
        /* The producer whose result arrived last (the first on a tie). */
        i64 data_pred = -1, arrival = 0, sources = pt[CP_NPROD][seq];
        for (int k = 0; k < sources && k < 3; k++) {
            i64 producer = prods[k][seq];
            if (0 <= producer && producer < count
                && (data_pred < 0 || complete[producer] > arrival)) {
                data_pred = producer;
                arrival = complete[producer];
            }
        }
        path_length++;
        if (data_pred >= 0 && arrival >= pt[CP_DISPATCH_CYCLE][seq]) {
            if (data_pred >= seq) { fetch += done > 0 ? done : 0; break; }
            i64 edge_cost = done - arrival;
            if (edge_cost > 0) {
                if (!pt[CP_IS_LOAD][seq] || pt[CP_ELIMINATED][seq])
                    alu_exec += edge_cost;
                else if (pt[CP_DCACHE_LATENCY][seq] > MEMORY_LATENCY_THRESHOLD)
                    load_mem += edge_cost;
                else load_exec += edge_cost;
            }
            seq = data_pred;
            done = arrival;
        } else {
            if (seq == 0) { fetch += done > 0 ? done : 0; break; }
            seq--;
            if (done > complete[seq]) fetch += done - complete[seq];
            done = complete[seq];
        }
    }
    sc[1] = fetch; sc[2] = alu_exec; sc[3] = load_exec; sc[4] = load_mem;
    sc[5] = commit > 0 ? commit : 0; sc[6] = path_length;
    return 0;
}

/* TraceTables.record_columns: for each of sc[0] records, through its
 * static index pt[0], the opcode id (pt[1], S_OPC) and the load, store
 * and control flags (pt[2], S_FLAGS) into pt[3]..pt[6]. */
__attribute__((visibility("default")))
i64 repro_gather(i64 *sc, i64 **pt, uint8_t *unused) {
    for (i64 i = 0; i < sc[0]; i++) {
        i64 sidx = pt[0][i], flags = pt[2][sidx];
        pt[3][i] = pt[1][sidx];
        pt[4][i] = (flags & DF_LOAD) != 0;
        pt[5][i] = (flags & DF_STORE) != 0;
        pt[6][i] = (flags & DF_CONTROL) != 0;
    }
    return 0;
}
"""
