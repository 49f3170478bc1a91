"""``repro.lint`` — the AST-based invariant linter.

A plugin-style static-analysis framework enforcing the repo's
correctness invariants *as a class*, before any test runs:

* ``determinism`` — no builtin ``hash()``, wall-clock or RNG reads in
  simulation code, no unordered set iteration
  (:mod:`repro.lint.determinism`);
* ``lock-discipline`` — ``_GUARDED_BY_LOCK`` attributes only touched
  under ``with self._lock:`` (:mod:`repro.lint.locks`);
* ``schema-freeze`` — additive-only wire-schema evolution against the
  committed ``scripts/schema_baseline.json``
  (:mod:`repro.lint.schema_freeze`);
* ``store-schema`` — the result-store wire contract and auth constants
  are frozen against the baseline's ``"store"`` section
  (:mod:`repro.lint.store_schema`);

plus the folded-in documentation gates (``docstrings``, ``docs``).  Run
it with ``python -m repro lint [paths] [--rule R] [--json]``; see
``docs/linting.md`` for the rule catalog and suppression syntax.
"""

from repro.lint.base import (
    Checker,
    FileContext,
    Finding,
    all_checkers,
    get_checker,
    register_checker,
)
from repro.lint.runner import (
    LintUsageError,
    format_json,
    format_text,
    parse_report,
    run_lint,
    update_baseline,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "LintUsageError",
    "all_checkers",
    "format_json",
    "format_text",
    "get_checker",
    "parse_report",
    "register_checker",
    "run_lint",
    "update_baseline",
]
