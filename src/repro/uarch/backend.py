"""Pluggable cycle-loop backends.

A backend runs whole cells (:meth:`CycleLoopBackend.run_fresh`, what
:func:`repro.core.simulator.simulate` calls): a simulation is never cut
short and resumed.  Two backends ship with the repo:

* ``python`` — the reference implementation, the inlined interpreter-style
  loop in :meth:`repro.uarch.core.Pipeline._run_cycles`, always available;
  ``Pipeline.run()`` runs it.
* ``compiled`` — a generated-C kernel over the same structure-of-arrays
  state (:mod:`repro.uarch.compiled`), compiled on first use with the
  system C compiler; a whole cell runs in the kernel with no pipeline,
  and a kernel failure is never silent (see
  :mod:`repro.uarch.compiled.backend`).

Backends are cycle-exact by contract: for any (program, trace, config,
renamer) the statistics, final architectural registers, timing records
and occupancy histograms must be identical whichever backend ran the
cell.  The differential tests in ``tests/uarch/test_fuzz_routes.py`` and
``tests/uarch/test_backends.py`` enforce this.

Selection order: an explicit ``backend=`` argument (CLI ``--backend``,
``SweepSpec.backend``, fleet lease payloads ultimately land here), else the
``REPRO_BACKEND`` environment variable, else ``python``.  Requesting an
*unknown* name raises; requesting a known-but-unavailable backend degrades
to ``python`` without a warning, so the same command line works on hosts
with and without a C toolchain.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.uarch.core import Pipeline, SimResult

#: Environment variable consulted when no backend is requested explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The always-available reference backend every other backend must match.
DEFAULT_BACKEND = "python"


class CycleLoopBackend:
    """Interface for cycle-loop implementations.

    A backend runs whole cells (:meth:`run_fresh`), and its
    :meth:`run_cycles` is what ``Pipeline.run()`` calls on a pipeline
    built with it.  Results, the opt-in observability probes
    (``record_stats`` histograms, timing records) included, must be the
    reference loop's.

    Attributes:
        name: Lookup key and user-facing selector for this backend.
    """

    name: str = "abstract"

    def available(self) -> bool:
        """Whether this backend can run at all on this host.

        Called once per resolution; an unavailable backend resolves to
        ``python`` silently.  The base implementation says yes.
        """
        return True

    def fresh_pipeline(self, program, trace, tables, machine, reno,
                       collect_timing=False, record_stats=False) -> "Pipeline":
        """The fresh pipeline, on this backend, of ``program`` replaying
        ``trace`` (over its ``tables``) on ``machine``, with RENO when
        ``reno`` is given and the two switches of the same names."""
        from repro.core.renamer import RenoRenamer
        from repro.uarch.core import Pipeline

        renamer = (RenoRenamer(machine.num_physical_regs, reno)
                   if reno is not None else None)
        return Pipeline(program, trace, machine, renamer=renamer,
                        collect_timing=collect_timing,
                        record_stats=record_stats, backend=self,
                        tables=tables)

    def run_fresh(self, program, trace, tables, machine, reno,
                  collect_timing=False, record_stats=False) -> "SimResult":
        """Run one whole cell (see :meth:`fresh_pipeline`); the base
        implementation runs its fresh pipeline."""
        return self.fresh_pipeline(program, trace, tables, machine, reno,
                                   collect_timing, record_stats).run()

    def run_cycles(self, pipeline: "Pipeline") -> None:
        """Run a live pipeline's cycle loop until its trace retires, with
        the semantics and errors of
        :meth:`repro.uarch.core.Pipeline._run_cycles` (``RuntimeError``
        past ``max_cycles``, :class:`~repro.uarch.core.CommitMismatchError`
        on a value check)."""
        raise NotImplementedError


class PythonBackend(CycleLoopBackend):
    """The reference backend: a thin delegate to
    :meth:`repro.uarch.core.Pipeline._run_cycles`, which stays next to the
    pipeline state it mutates."""

    name = "python"

    def run_cycles(self, pipeline: "Pipeline") -> None:
        """Delegate to the pipeline's own interpreter loop."""
        pipeline._run_cycles()


_BACKENDS: "dict[str, CycleLoopBackend] | None" = None
_BACKENDS_LOCK = threading.Lock()


def _backends() -> dict[str, CycleLoopBackend]:
    """The built-in backends by name, one instance each per process.

    Built under a lock on first lookup.  The compiled backend is imported
    lazily, which keeps ``repro.uarch.core`` import-time free of the
    codegen machinery and avoids an import cycle.
    """
    global _BACKENDS
    if _BACKENDS is None:
        with _BACKENDS_LOCK:
            if _BACKENDS is None:
                from repro.uarch.compiled.backend import CompiledBackend

                _BACKENDS = {"python": PythonBackend(),
                             "compiled": CompiledBackend()}
    return _BACKENDS


def backend_names() -> list[str]:
    """Sorted names of every backend (available or not)."""
    return sorted(_backends())


def get_backend(name: str) -> CycleLoopBackend:
    """Look up a backend by name.

    Raises:
        ValueError: If no backend has that name.
    """
    backends = _backends()
    try:
        return backends[name]
    except KeyError:
        known = ", ".join(sorted(backends))
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None


def resolve_backend(
    requested: "str | CycleLoopBackend | None" = None,
) -> CycleLoopBackend:
    """Resolve a backend request to a usable backend object.

    Args:
        requested: An explicit backend object (returned as-is), a backend
            name, or None to consult ``REPRO_BACKEND`` and fall back to
            ``python``.

    Returns:
        The requested backend if it is available, else the ``python``
        reference (silent degradation — results are backend-independent,
        so falling back changes speed, never numbers).

    Raises:
        ValueError: If a backend *name* was given (directly or via the
            environment) that names no backend at all.
    """
    if isinstance(requested, CycleLoopBackend):
        return requested
    name = requested or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    backend = get_backend(name)
    if not backend.available():
        backend = _backends()[DEFAULT_BACKEND]
    return backend
