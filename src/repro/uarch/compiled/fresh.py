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
* it is compact: an array holding one value is kept as its typecode,
  length and value, any other array as a copy;
* the trace's values are written per cell (:data:`_TRACE_SCALARS`, the
  violation log, the ``T_*``/``S_*``/``O_*`` columns, the page pool and,
  for a timed cell, the trace-sized ``TR_*`` output columns).

Every cell allocates its own buffers from the image, so no state outlives
the call and nothing refers to the trace's columns afterwards.  Stats,
final registers, occupancy and ``finished`` are read straight out of the
buffers; a timed cell's records are a
:class:`~repro.uarch.inflight.TimingColumns` over its own ``TR_*`` buffers
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
from repro.uarch.compiled.emit import ERR_OK, POINTERS, SC
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
    """The kernel's starting buffers for one image key.

    Attributes:
        scalars: The scalar block, :data:`_TRACE_SCALARS` zeroed.
        arrays: ``(name, array)`` for an array kept as a copy and
            ``(name, (typecode, length, value))`` for one holding a single
            value, for every pointer-block member the trace does not own.
        timing: Whether the cell collects timing records (its ``TR_*``
            columns are then the trace's length and allocated per cell).
    """

    __slots__ = ("scalars", "arrays", "timing")

    def __init__(self, state: KernelState, tables) -> None:
        """Keep the buffers of ``state``, just marshalled in from a fresh
        pipeline over ``tables``, except what the trace owns."""
        self.scalars = state.sc[:]
        for name in _TRACE_SCALARS:
            self.scalars[SC[name]] = 0
        self.timing = state.timing
        owned = {*KernelTables.of(tables).arrays, *state.pool.arrays,
                 "VIO_LOG",
                 *(TIMING_COLUMNS.values() if self.timing else ())}
        self.arrays = tuple((name, _compact(column))
                            for name, column in state.arr.items()
                            if name not in owned)

    def buffers(self, tables) -> tuple[array, dict[str, array], PagePool]:
        """New scalar block, arrays and page pool for one cell over
        ``tables``: exactly what marshal-in writes for a fresh pipeline."""
        static = KernelTables.of(tables)
        arrays = {name: (column[:] if isinstance(column, array)
                         else array(column[0], [column[2]]) * column[1])
                  for name, column in self.arrays}
        arrays.update(static.arrays)
        total = len(tables.trace)
        vio_cap = violation_log_size(total)
        arrays["VIO_LOG"] = array("q", bytes(8 * vio_cap))
        if self.timing:
            arrays.update((name, array("q", bytes(8 * max(total, 1))))
                          for name in TIMING_COLUMNS.values())
        image = tables.memory_image
        pool = PagePool()
        pool.load(sorted(set(image) | static.store_pages), image)
        arrays.update(pool.arrays)
        sc = self.scalars[:]
        sc[SC["TOTAL"]] = total
        sc[SC["VIO_CAP"]] = vio_cap
        sc[SC["NPOOL"]] = pool.count
        sc[SC["PH_MASK"]] = pool.mask
        sc[SC["STOP"]] = _NO_STOP
        return sc, arrays, pool


def _compact(column: array):
    """``column`` as ``(typecode, length, value)`` when it holds one value,
    else a copy."""
    value = column[0]
    if column.count(value) == len(column):
        return column.typecode, len(column), value
    return column[:]


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
    sc, arrays, pool = image.buffers(tables)
    pt = PointerBlock(*[address_of(arrays[name]) for name in POINTERS])
    sc_ptr = ctypes.cast(sc.buffer_info()[0], ctypes.POINTER(ctypes.c_int64))
    code = kernel(sc_ptr, pt, pool.view)
    if code != ERR_OK:
        kernel_failed(code, reference)
    stats = SimStats()
    for attribute, indices in _STATS:
        setattr(stats, attribute, sum(sc[index] for index in indices))
    if sc[SC["RECORD_STATS"]]:
        stats.occupancy = OccupancyStats.for_config(machine)
        read_occupancy(stats.occupancy, sc, arrays)
    values = arrays["PRF_VAL"]
    if sc[SC["MODE"]]:
        registers = [(values[preg] + disp) & MASK64 for preg, disp
                     in zip(arrays["RN_PREG"], arrays["RN_DISP"])]
    else:
        registers = [values[preg] for preg in arrays["BMAP"]]
    committed = sc[SC["COMMITTED"]]
    records = None
    if image.timing:
        records = TimingColumns(
            {name: arrays[output] for name, output in TIMING_COLUMNS.items()}
            | tables.record_columns, committed)
    return SimResult(stats=stats, config=machine, final_registers=registers,
                     timing_records=records,
                     finished=committed >= sc[SC["TOTAL"]])
