"""Fresh cells: a whole cell in the kernel, with no pipeline.

A cell that runs to completion in one call (no slice boundary, no
snapshot) starts from the state a freshly constructed
:class:`~repro.uarch.core.Pipeline` holds.  Apart from a few values its
trace owns, that state depends only on the machine and RENO
configurations and on its two switches (timing records, occupancy),
so it is marshalled once per such key and kept as a :class:`FreshImage`:

* the image is what :meth:`~repro.uarch.compiled.marshal.KernelState.marshal_in`
  writes for a fresh pipeline, built on the first cell's trace and then
  dropped, so the Python constructors stay the one definition of initial
  state;
* it is one arena laid out at capture: the arrays of one value, grouped
  by value and kept as fill runs, then the other arrays, kept as one copy;
* the trace's values are not in it (:data:`_TRACE_SCALARS`, the
  violation log, the ``T_*``/``S_*``/``O_*`` columns, the page pool and,
  for a timed cell, the trace-sized ``TR_*`` output columns).

A cell costs one zeroed arena, a fill per run, one copy of the tail and
copies of its trace's pointer-block template and page pool
(:class:`~repro.uarch.compiled.marshal.KernelTables`); its ``TR_*``
outputs are buffers of their own, so a result never keeps an arena
alive.  Stats, final registers, occupancy and ``finished`` are read out
of the scalars and the arena; a timed cell's records are a
:class:`~repro.uarch.inflight.TimingColumns` over its ``TR_*`` buffers
and the trace's per-seq static fields
(:attr:`~repro.uarch.tables.TraceTables.record_columns`).
The images live in a per-process memo of :data:`IMAGE_SLOTS` entries keyed
by the configurations' digests and the two switches.
"""

from __future__ import annotations

import ctypes
import os
import threading
from array import array

from repro.isa.semantics import MASK64
from repro.uarch.compiled.emit import ERR_OK, PT, SC
from repro.uarch.compiled.marshal import (
    KernelState,
    KernelTables,
    PointerBlock,
    address_of,
    kernel_failed,
    read_occupancy,
    violation_log_size,
)
from repro.uarch.compiled.pages import PagePool
from repro.uarch.core import SimResult
from repro.uarch.inflight import TIMING_COLUMNS, TimingColumns
from repro.uarch.observe import OccupancyStats
from repro.uarch.stats import SimStats

#: How many configuration images one process keeps (the ``specint`` grid
#: experiments use 34 plain ones, ``fig9`` 3 timed, ``bottleneck`` 4 more).
IMAGE_SLOTS = 64

#: Scalars a cell's trace owns: zero in an image, written per cell.
_TRACE_SCALARS = ("TOTAL", "VIO_CAP", "NPOOL", "PH_MASK", "STOP")

#: ``STOP`` of a cell that runs to completion.
_NO_STOP = 1 << 62

#: ``(SimStats attribute, scalar indices)``: after a fresh cell each
#: attribute is the sum of its scalars.  Every counter started at zero, so
#: the kernel's delta and absolute counters read alike, and the component
#: counters land where ``Pipeline._merge_component_stats`` puts them
#: (``integration_value_mismatches`` is the renamer's count, which stays 0
#: in a baseline cell, as the pipeline's own count does).
_STATS = tuple((attribute, tuple(SC[name] for name in scalars))
               for attribute, *scalars in (
    ("cycles", "CYCLE"), ("committed", "COMMITTED"),
    ("eliminated_moves", "D_ELIM_MOVES"),
    ("eliminated_folds", "D_ELIM_FOLDS"),
    ("eliminated_cse", "D_ELIM_CSE"), ("eliminated_ra", "D_ELIM_RA"),
    ("reexecuted_loads", "REEXEC_LOADS"),
    ("integration_value_mismatches", "RN_IT_VALMIS"),
    ("pregs_allocated", "D_PREGS_ALLOC"), ("max_pregs_in_use", "MAX_PREGS"),
    ("rename_stall_cycles", "RENAME_STALL"),
    ("rob_stall_cycles", "ROB_STALL"), ("iq_stall_cycles", "IQ_STALL"),
    ("lsq_stall_cycles", "LSQ_STALL"), ("fetched", "D_FETCHED"),
    ("branch_mispredictions", "BR_MISPRED"), ("btb_misses", "BTB_MISSES"),
    ("ras_mispredictions", "RAS_MISPRED"),
    ("fetch_stall_cycles", "D_FETCH_STALLS"),
    ("icache_misses", "L1I_MISSES"),
    ("dcache_accesses", "L1D_HITS", "L1D_MISSES"),
    ("dcache_misses", "L1D_MISSES"), ("l2_misses", "L2_MISSES"),
    ("store_forwards", "D_STORE_FWD"),
    ("memory_order_violations", "MEM_ORDER_VIO"),
    ("load_replays", "LOAD_REPLAYS"), ("issued", "D_ISSUED"),
    ("fused_operations", "D_FUSED"), ("fusion_penalty_cycles", "D_FUSE_PEN"),
    ("it_lookups", "RN_IT_LOOKUPS"), ("it_hits", "RN_IT_HITS"),
    ("it_insertions", "RN_IT_INS"),
))


class FreshImage:
    """The kernel's starting buffers for one image key, as one arena.

    Attributes:
        scalars: The scalar block, :data:`_TRACE_SCALARS` zeroed.
        layout: Name -> ``(typecode, offset, length)`` of every
            pointer-block member the trace does not own: arrays of one
            value first, grouped by value, then the arrays kept as copies.
        size: The arena's size in bytes.
        fills: ``(offset, length, 8-byte pattern)`` per non-zero value.
        tail: The copied arrays' bytes, which end the arena.
        timing: Whether the cell collects timing records (in ``TR_*``
            columns of the trace's length, allocated per cell).
    """

    __slots__ = ("scalars", "layout", "size", "fills", "tail", "timing",
                 "_slots")

    def __init__(self, state: KernelState, tables) -> None:
        """Lay out the buffers of ``state``, just marshalled in from a fresh
        pipeline over ``tables``, except what the trace owns."""
        self.scalars = state.sc[:]
        for name in _TRACE_SCALARS:
            self.scalars[SC[name]] = 0
        self.timing = state.timing
        owned = {*KernelTables.of(tables).arrays, *state.pool.arrays,
                 "VIO_LOG",
                 *(TIMING_COLUMNS.values() if self.timing else ())}
        zero = bytes(8)
        runs, copies = {zero: []}, []       # 8-byte pattern -> its arrays
        for name, column in state.arr.items():
            if name in owned:
                continue
            if column.count(column[0]) == len(column):
                pattern = array(column.typecode, column[:1]).tobytes()
                runs.setdefault(pattern, []).append((name, column))
            else:
                copies.append((name, column))
        self.layout, self.fills, offset = {}, [], 0
        for pattern, members in (*runs.items(), (None, copies)):
            start = offset
            for name, column in members:
                self.layout[name] = (column.typecode, offset, len(column))
                offset += 8 * len(column)
            if pattern not in (None, zero):
                self.fills.append((start, offset - start, pattern))
        self.size = offset
        self.tail = b"".join(column.tobytes() for _, column in copies)
        self._slots = tuple((PT[name], offset)
                            for name, (_, offset, _) in self.layout.items())

    def buffers(self, tables) -> tuple[array, bytearray, dict[str, array],
                                       PagePool, PointerBlock]:
        """New scalar block, arena, per-cell arrays (``VIO_LOG`` and a timed
        cell's ``TR_*`` outputs), page pool and pointer block for one cell
        over ``tables``: exactly what marshal-in writes for a fresh
        pipeline."""
        static = KernelTables.of(tables)
        arena = bytearray(self.size)
        for offset, length, pattern in self.fills:
            arena[offset:offset + length] = pattern * (length >> 3)
        arena[self.size - len(self.tail):] = self.tail
        pointers = PointerBlock.from_buffer_copy(static.pointers)
        base = address_of(arena)
        for index, offset in self._slots:
            pointers[index] = base + offset
        total = len(tables.trace)
        vio_cap = violation_log_size(total)
        arrays = {"VIO_LOG": array("q", bytes(8 * vio_cap))}
        if self.timing:
            arrays.update((name, array("q", bytes(8 * max(total, 1))))
                          for name in TIMING_COLUMNS.values())
        pool = static.pool.copy()
        arrays.update(pool.arrays)
        for name, column in arrays.items():
            pointers[PT[name]] = address_of(column)
        sc = self.scalars[:]
        sc[SC["TOTAL"]] = total
        sc[SC["VIO_CAP"]] = vio_cap
        sc[SC["NPOOL"]] = pool.count
        sc[SC["PH_MASK"]] = pool.mask
        sc[SC["STOP"]] = _NO_STOP
        return sc, arena, arrays, pool, pointers

    def view(self, arena: bytearray, name: str) -> memoryview:
        """Member ``name`` of a cell's ``arena``, as its typecode's items."""
        typecode, offset, length = self.layout[name]
        return memoryview(arena)[offset:offset + 8 * length].cast(typecode)


#: ``(machine digest, RENO digest or None, timing, occupancy) ->
#: FreshImage``, oldest first.
_images: dict[tuple, FreshImage] = {}
_images_lock = threading.Lock()


def _reset_images_lock() -> None:
    # A fork child inherits the lock in whatever state another parent
    # thread left it; the memo's dict itself is always consistent.
    global _images_lock
    _images_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_images_lock)


def image_of(machine, reno, timing: bool, occupancy: bool,
             capture) -> FreshImage:
    """The image of (``machine``, ``reno``) and the two switches, captured
    on first use.

    ``capture()`` builds the image; it runs only on a memo miss, and
    whatever it raises propagates.
    """
    key = (machine.digest(), None if reno is None else reno.digest(),
           timing, occupancy)
    with _images_lock:
        image = _images.get(key)
        if image is None:
            image = capture()
            if len(_images) >= IMAGE_SLOTS:
                del _images[next(iter(_images))]
            _images[key] = image
    return image


def run_cell(kernel, image: FreshImage, tables, machine,
             reference) -> SimResult:
    """Run one whole cell over ``tables`` in ``kernel`` from ``image``.

    A nonzero kernel return hands ``reference`` (the same cell on the
    python loop) to :func:`~repro.uarch.compiled.marshal.kernel_failed`,
    which raises.

    Returns:
        The cell's :class:`~repro.uarch.core.SimResult`.
    """
    sc, arena, arrays, pool, pointers = image.buffers(tables)
    sc_ptr = ctypes.cast(sc.buffer_info()[0], ctypes.POINTER(ctypes.c_int64))
    code = kernel(sc_ptr, pointers, pool.view)
    if code != ERR_OK:
        kernel_failed(code, reference)
    stats = SimStats()
    for attribute, indices in _STATS:
        setattr(stats, attribute, sum(sc[index] for index in indices))
    if sc[SC["RECORD_STATS"]]:
        stats.occupancy = OccupancyStats.for_config(machine)
        read_occupancy(stats.occupancy, sc, {
            name: image.view(arena, name) for name in image.layout
            if name.startswith("OC_")})
    values = image.view(arena, "PRF_VAL")
    if sc[SC["MODE"]]:
        registers = [(values[preg] + disp) & MASK64 for preg, disp
                     in zip(image.view(arena, "RN_PREG"),
                            image.view(arena, "RN_DISP"))]
    else:
        registers = [values[preg] for preg in image.view(arena, "BMAP")]
    committed = sc[SC["COMMITTED"]]
    records = None
    if image.timing:
        records = TimingColumns(
            {name: arrays[output] for name, output in TIMING_COLUMNS.items()}
            | tables.record_columns, committed)
    return SimResult(stats=stats, config=machine, final_registers=registers,
                     timing_records=records,
                     finished=committed >= sc[SC["TOTAL"]])
