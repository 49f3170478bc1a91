"""The ``store-schema`` checker: the result-store wire contract is frozen.

The store protocol (:mod:`repro.store.schema`) is what ``repro
store-serve`` servers, :class:`~repro.store.http.HTTPStore` clients and
cross-host fleet workers of different package versions speak to each
other.  This checker extracts every reply dataclass — field names,
annotations, defaults, order — plus ``STORE_SCHEMA_VERSION`` and the
auth constants (``AUTH_HEADER`` / ``AUTH_SCHEME``) from the module's AST
and diffs them against the ``"store"`` section of the committed baseline
(``scripts/schema_baseline.json``, shared with the ``schema-freeze``
rule):

* a **removed** class or field, a **type change**, a **default change**
  or a **reorder** always fails — deployed peers would misread replies;
* an **addition** is legal only together with a ``STORE_SCHEMA_VERSION``
  bump, recorded by regenerating the baseline (``python -m repro lint
  --update-baseline``) — the same evolution policy as the wire schema;
* a changed **auth header or scheme** *always* fails: every deployed
  client would silently start answering 401s, and no version bump makes
  that compatible.  Changing auth means a new header next to the old
  one, not an edit.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.base import Finding, register_checker
from repro.lint.schema_freeze import (
    SchemaFreezeChecker,
    dataclass_shapes,
    diff_schema,
    module_constants,
    shapes_to_baseline,
)

#: Repo-relative location of the store-schema module this checker freezes.
STORE_MODULE = "src/repro/store/schema.py"

#: The module-level constant naming the store protocol version.
VERSION_CONSTANT = "STORE_SCHEMA_VERSION"

#: Auth constants frozen *unconditionally* (no version-bump escape).
AUTH_CONSTANTS = ("AUTH_HEADER", "AUTH_SCHEME")

#: The baseline document key holding this contract's section.
BASELINE_KEY = "store"


def extract_store_schema(tree: ast.Module) -> dict:
    """The frozen view of the store-schema module.

    Returns ``{"store_schema_version": int | None, "auth": {name: str},
    "classes": {...}}`` with the same per-class shape as
    :func:`repro.lint.schema_freeze.extract_schema`.
    """
    constants = module_constants(
        tree, frozenset({VERSION_CONSTANT, *AUTH_CONSTANTS}))
    version = constants.get(VERSION_CONSTANT)
    return {
        "store_schema_version": version if isinstance(version, int) else None,
        "auth": {name: constants.get(name) for name in AUTH_CONSTANTS},
        "classes": dataclass_shapes(tree),
    }


def store_schema_to_baseline(schema: dict) -> dict:
    """Strip volatile line numbers; the committed ``"store"`` section."""
    return {
        "store_schema_version": schema["store_schema_version"],
        "auth": dict(schema["auth"]),
        "classes": shapes_to_baseline(schema["classes"]),
    }


def load_store_schema(root: Path) -> tuple[dict, str] | None:
    """Parse the repo's store-schema module (None when absent)."""
    path = root / STORE_MODULE
    if not path.is_file():
        return None
    return extract_store_schema(ast.parse(path.read_text())), STORE_MODULE


def diff_store_schema(current: dict, baseline: dict, rel: str,
                      rule: str) -> list[Finding]:
    """Every finding from comparing the live store contract to baseline."""
    findings = diff_schema(current, baseline, rel, rule,
                           version_key="store_schema_version",
                           version_constant=VERSION_CONSTANT)
    baseline_auth = baseline.get("auth", {})
    for name in AUTH_CONSTANTS:
        frozen = baseline_auth.get(name)
        live = current["auth"].get(name)
        if frozen is not None and live != frozen:
            findings.append(Finding(
                path=rel, line=1, rule=rule,
                message=(f"{name} changed {frozen!r} -> {live!r}; the auth "
                         f"header/scheme is frozen unconditionally — every "
                         f"deployed store client would start answering "
                         f"401s.  Introduce a new header alongside the old "
                         f"one instead of editing it")))
    return findings


@register_checker
class StoreSchemaChecker(SchemaFreezeChecker):
    """Diff the live store wire contract against the committed baseline
    (its ``"store"`` section, read through the ``schema-freeze``
    plumbing)."""

    name = "store-schema"
    description = ("store reply dataclasses and auth constants in "
                   "repro.store.schema evolve additively only, recorded "
                   "in the 'store' section of scripts/schema_baseline.json "
                   "next to a STORE_SCHEMA_VERSION bump; auth header/"
                   "scheme changes always fail")
    baseline_noun = "schema baseline"

    @staticmethod
    def load(root: Path) -> tuple[dict, str] | None:
        """The store contract's live view (None without a store module)."""
        return load_store_schema(root)

    def diff(self, current: dict, document: dict,
             rel: str) -> list[Finding]:
        """Every finding from comparing ``current`` to the document's
        ``"store"`` section."""
        section = document.get(BASELINE_KEY)
        if not isinstance(section, dict):
            return self.baseline_finding(
                f"baseline has no {BASELINE_KEY!r} section for the store "
                f"wire contract; regenerate it with `python -m repro lint "
                f"--update-baseline`")
        return diff_store_schema(current, section, rel, self.name)
