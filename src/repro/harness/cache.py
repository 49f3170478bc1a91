"""Content-addressed outcome caching: key material + the default tier.

Every grid point of an experiment — one (workload program, machine
configuration, RENO configuration, instruction budget) combination — is
deterministic, so its :class:`~repro.core.simulator.SimulationOutcome` can be
computed once and reused across figure experiments and repeated benchmark
runs.  The cache key is a SHA-256 over

* a digest of the assembled program (instructions, entry point, initial
  memory) — the workload name is deliberately *not* part of the key, so two
  workloads assembling the identical program share an entry;
* :meth:`MachineConfig.digest` and :meth:`RenoConfig.digest` (behavioural
  fields only; report labels are excluded);
* the functional-simulation instruction budget and whether per-instruction
  timing records were collected;
* a cache format version (bumped whenever the stored payload shape changes).

Storage itself lives in :mod:`repro.store`: this module computes the keys
(:func:`program_digest`, :func:`outcome_key`) and resolves the engine's
``cache=`` argument onto a store tier.  :class:`SimulationCache` — the
historical name every harness caller uses — *is* the local-disk tier
(:class:`repro.store.disk.DiskStore`); the sqlite and HTTP tiers speak
the same protocol and are selected by locator (``sqlite://<path>``,
``http://host:port``) or by the ``$REPRO_STORE`` environment variable.

The disk tier defaults to ``~/.cache/repro-reno`` and is overridden by
the ``REPRO_CACHE_DIR`` environment variable.  ``python -m repro cache``
prints the location and entry count; ``--clear`` wipes it.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.core.config import RenoConfig
from repro.isa.program import Program
from repro.store.base import (
    CACHE_FORMAT_VERSION,
    STORE_ENV,
    StoreStats,
    open_store,
)
from repro.store.disk import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    DiskStore,
    default_cache_root,
    file_lock,
)
from repro.uarch.config import MachineConfig

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "STORE_ENV",
    "SimulationCache",
    "default_cache_root",
    "file_lock",
    "outcome_key",
    "program_digest",
    "resolve_cache",
]

#: Historical names: the disk tier and its counters, re-exported so every
#: pre-store import site (tests, harness internals) keeps working.
SimulationCache = DiskStore
CacheStats = StoreStats


def program_digest(program: Program) -> str:
    """Content hash of an assembled program.

    Covers everything that influences simulation: the instruction stream
    (with resolved targets), the entry point and the initial memory image.
    The program *name* is a report label and is excluded.
    """
    hasher = hashlib.sha256()
    hasher.update(str(program.entry).encode())
    for instruction in program.instructions:
        hasher.update(
            f"{instruction.opcode.value}|{instruction.rd}|{instruction.rs1}|"
            f"{instruction.rs2}|{instruction.imm}|{instruction.target}\n".encode()
        )
    for address in sorted(program.initial_memory):
        hasher.update(f"@{address}={program.initial_memory[address]}".encode())
    return hasher.hexdigest()


def outcome_key(
    prog_digest: str,
    machine: MachineConfig,
    reno: RenoConfig | None,
    max_instructions: int,
    collect_timing: bool,
    record_stats: bool = False,
) -> str:
    """The cache key for one grid point."""
    reno_digest = reno.digest() if reno is not None else "baseline"
    material = "|".join([
        f"v{CACHE_FORMAT_VERSION}",
        prog_digest,
        machine.digest(),
        reno_digest,
        str(max_instructions),
        "timing" if collect_timing else "notiming",
        "stats" if record_stats else "nostats",
    ])
    return hashlib.sha256(material.encode()).hexdigest()


def resolve_cache(cache):
    """Normalise the ``cache=`` argument accepted by the experiment engine.

    * ``None`` (the default): a store is active only when ``$REPRO_STORE``
      names one (any locator) or ``$REPRO_CACHE_DIR`` is set (the disk
      tier there), so casual runs and the existing test suite touch no
      global state.
    * ``True`` / ``False``: force the default-location disk cache on or off.
    * a locator (``str`` / ``Path``): a path opens the disk tier there;
      ``sqlite://<path>`` and ``http(s)://host:port`` open the shared
      tiers (see :func:`repro.store.base.open_store`).
    * a store instance (:class:`SimulationCache` or any
      :class:`repro.store.base.ResultStore`): used as-is.
    """
    if cache is None:
        locator = os.environ.get(STORE_ENV)
        if locator:
            return open_store(locator)
        return SimulationCache() if os.environ.get(CACHE_DIR_ENV) else None
    if cache is False:
        return None
    if cache is True:
        return SimulationCache()
    if isinstance(cache, (str, Path)):
        return open_store(cache)
    if hasattr(cache, "get") and hasattr(cache, "put"):
        return cache
    raise TypeError(f"cache must be None, bool, a locator or a result store, "
                    f"got {cache!r}")
