"""Pluggable cycle-loop backends.

:meth:`repro.uarch.core.Pipeline.run` does not hard-code the interpreter
loop: it dispatches each slice of cycles through a *backend* object
implementing :class:`CycleLoopBackend`.  Two backends ship with the repo:

* ``python`` — the reference implementation, the inlined interpreter-style
  loop in :meth:`repro.uarch.core.Pipeline._run_cycles` (byte-for-byte the
  pre-backend behaviour, always available).
* ``compiled`` — a generated-C kernel over the same structure-of-arrays
  state (:mod:`repro.uarch.compiled`), compiled on first use with the
  system C compiler and falling back to ``python`` silently when no
  toolchain is present.

Backends are cycle-exact by contract: for any (program, trace, config,
renamer) the statistics, final architectural registers, occupancy
histograms and the results of any sliced/snapshotted continuation must be
identical whichever backend ran the cycles, including across a mid-run
switch.  (Internal container *layout* with no behavioural meaning — e.g.
which valid binary-heap ordering the wakeup heap happens to be in — may
differ; everything observable may not.)  The equivalence property tests in
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
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.uarch.core import Pipeline

#: Environment variable consulted when no backend is requested explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The always-available reference backend every other backend must match.
DEFAULT_BACKEND = "python"


class CycleLoopBackend:
    """Interface for cycle-loop implementations.

    A backend runs slices of the simulation loop over a live
    :class:`~repro.uarch.core.Pipeline`'s mutable state (the
    :class:`~repro.uarch.inflight.InFlightWindow`, scheduler, renamer,
    memory system and statistics).  It must honor ``stop_cycle`` slice
    boundaries, leave every piece of snapshot-covered state exactly as the
    reference loop would, and keep the opt-in observability probes
    (``record_stats`` histograms, timeline rows) identical.

    Attributes:
        name: Registry key and user-facing selector for this backend.
    """

    name: str = "abstract"

    def available(self) -> bool:
        """Whether this backend can run at all on this host.

        Called once per resolution; an unavailable backend resolves to
        ``python`` silently.  The base implementation says yes.
        """
        return True

    def supports(self, pipeline: "Pipeline") -> bool:
        """Whether this backend can run *this* pipeline's cycles.

        Checked per :meth:`run_cycles` call by backends with partial
        feature coverage; a backend that answers False for a pipeline must
        delegate that pipeline's slices to the ``python`` reference.  The
        base implementation supports everything.
        """
        return True

    def prepare(self, pipeline: "Pipeline") -> None:
        """One-time per-pipeline hook, called from ``Pipeline.__init__``.

        Backends use this to build or fetch per-trace state before the
        first slice; it costs time in every cell, but the cycle-loop probes
        of ``scripts/benchmark_engine.py`` time :meth:`run_cycles` only.
        The base implementation does nothing.
        """

    def run_cycles(self, pipeline: "Pipeline", stop_cycle: int | None) -> None:
        """Run the cycle loop until the trace retires or ``stop_cycle``.

        Semantics are exactly those of
        :meth:`repro.uarch.core.Pipeline._run_cycles`: simulate whole
        cycles, cut the slice only at the top of a cycle once
        ``cycle >= stop_cycle``, mirror all cursors back onto the pipeline,
        and raise the same errors (``RuntimeError`` past ``max_cycles``,
        :class:`~repro.uarch.core.CommitMismatchError` on a value check).
        """
        raise NotImplementedError


class PythonBackend(CycleLoopBackend):
    """The reference backend: the inlined interpreter loop in ``core``.

    This is deliberately a thin delegate — the loop body itself stays in
    :meth:`repro.uarch.core.Pipeline._run_cycles`, unchanged, so the
    reference implementation remains next to the pipeline state it
    mutates.
    """

    name = "python"

    def run_cycles(self, pipeline: "Pipeline", stop_cycle: int | None) -> None:
        """Delegate to the pipeline's own interpreter loop."""
        pipeline._run_cycles(stop_cycle)


_REGISTRY: dict[str, CycleLoopBackend] = {}
_BUILTINS_LOADED = False


def register_backend(backend: CycleLoopBackend) -> None:
    """Add ``backend`` to the registry under ``backend.name``.

    Re-registering a name replaces the previous entry (used by tests to
    substitute instrumented backends).
    """
    _REGISTRY[backend.name] = backend


def _ensure_builtins() -> None:
    """Import the built-in non-reference backends exactly once.

    The compiled backend lives in its own package and registers itself on
    import; importing it lazily keeps ``repro.uarch.core`` import-time free
    of the codegen machinery and avoids an import cycle.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.uarch.compiled import backend as _compiled  # noqa: F401


def backend_names() -> list[str]:
    """Sorted names of every registered backend (available or not)."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def get_backend(name: str) -> CycleLoopBackend:
    """Look up a backend by name.

    Raises:
        ValueError: If no backend with that name is registered.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
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
            environment) that is not registered at all.
    """
    if isinstance(requested, CycleLoopBackend):
        return requested
    name = requested or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    backend = get_backend(name)
    if not backend.available():
        backend = _REGISTRY[DEFAULT_BACKEND]
    return backend


register_backend(PythonBackend())
