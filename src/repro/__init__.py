"""repro: a from-scratch reproduction of RENO, the rename-based instruction optimizer.

The package is organised as:

* :mod:`repro.isa` — the AXP-lite instruction set and assembler DSL,
* :mod:`repro.functional` — architectural simulation and dynamic traces,
* :mod:`repro.workloads` — synthetic SPECint-like and MediaBench-like kernels,
* :mod:`repro.uarch` — the cycle-level dynamically scheduled superscalar core,
* :mod:`repro.core` — RENO itself (reference counting, extended map table,
  move elimination, constant folding, integration/CSE+RA),
* :mod:`repro.analysis` — critical-path analysis and reporting,
* :mod:`repro.harness` — experiment definitions that regenerate the paper's
  figures (declarative sweep specs, a registry, pluggable executors),
* :mod:`repro.api` — the stable public surface: the ``Session``/``Job``
  facade, the versioned wire schema, the ``repro serve`` HTTP service and
  the worker fleet,
* :mod:`repro.cli` — the unified ``python -m repro`` command line
  (``run`` / ``list`` / ``cache`` / ``serve`` / ``submit`` / ``status``).
"""

from time import time_ns as _time_ns

__version__ = "1.2.0"

#: When this process loaded the package, in ns since the epoch.  A source
#: file modified later is not the code the process runs, so such a file
#: turns the report memo off (:func:`repro.harness.spec.source_digest`).
LOADED_AT_NS = _time_ns()
