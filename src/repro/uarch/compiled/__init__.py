"""The compiled cycle-loop backend (generated C over the SoA state).

Package layout:

* :mod:`repro.uarch.compiled.emit` — the C-source template and the shared
  field tables (the ``backend_parity`` lint rule checks them against
  :class:`~repro.uarch.inflight.InFlightWindow`).
* :mod:`repro.uarch.compiled.build` — toolchain discovery and the
  digest-cached build of the shared object.
* :mod:`repro.uarch.compiled.marshal` — flat-buffer marshalling between
  the pipeline's Python objects and the kernel's int64 arrays.
* :mod:`repro.uarch.compiled.fresh` — whole unobserved cells started from
  a per-configuration image, with no pipeline.
* :mod:`repro.uarch.compiled.backend` — the
  :class:`~repro.uarch.backend.CycleLoopBackend` implementation that ties
  the above together; :mod:`repro.uarch.backend` serves it as
  ``compiled``.
"""
