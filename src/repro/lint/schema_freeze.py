"""The ``schema-freeze`` checker: additive-only wire-schema evolution.

The versioned wire schema (:mod:`repro.api.schema`) is the compatibility
contract between servers, clients and fleet workers of different package
versions.  This checker extracts every ``@dataclass`` envelope — field
names, annotations, defaults, order — plus ``WIRE_SCHEMA_VERSION`` from
the schema module's AST and diffs it against the committed baseline
(``scripts/schema_baseline.json``):

* a **removed** class or field, a **type change**, a **default change**
  or a **reorder** always fails — deployed peers would misread payloads;
* an **addition** (new class or field) is legal only together with a
  ``WIRE_SCHEMA_VERSION`` bump, recorded by regenerating the baseline
  (``python -m repro lint --update-baseline``);
* a baseline whose recorded version differs from the module's fails until
  the baseline is regenerated.

The baseline file is committed, so the diff CI sees is exactly the diff a
reviewer sees.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.lint.base import Checker, Finding, register_checker

#: Repo-relative location of the schema module this checker freezes.
SCHEMA_MODULE = "src/repro/api/schema.py"

#: Repo-relative location of the committed baseline.
DEFAULT_BASELINE = "scripts/schema_baseline.json"

#: Version stamp of the baseline file format itself.
BASELINE_FORMAT_VERSION = 1

#: The module-level constant naming the wire version.
VERSION_CONSTANT = "WIRE_SCHEMA_VERSION"


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    """Whether a class carries a ``@dataclass`` decorator (any form)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else ""
        if name == "dataclass":
            return True
    return False


def dataclass_fields(node: ast.ClassDef) -> list[dict]:
    """The annotated fields of one dataclass, in declaration order."""
    fields = []
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            fields.append({
                "name": stmt.target.id,
                "type": ast.unparse(stmt.annotation),
                "default": (ast.unparse(stmt.value)
                            if stmt.value is not None else None),
                "line": stmt.lineno,
            })
    return fields


def module_constants(tree: ast.Module, names: frozenset[str]) -> dict:
    """Module-level ``NAME = <constant>`` assignments among ``names``."""
    found: dict[str, object] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = node.value.value
    return found


def dataclass_shapes(tree: ast.Module) -> dict[str, dict]:
    """Every module-level ``@dataclass`` of ``tree``: ``{name: {"line":
    int, "fields": [{"name", "type", "default", "line"}, ...]}}``."""
    return {node.name: {"line": node.lineno, "fields": dataclass_fields(node)}
            for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_dataclass_decorated(node)}


def shapes_to_baseline(classes: dict[str, dict]) -> dict[str, dict]:
    """:func:`dataclass_shapes` without the volatile line numbers, as the
    committed baseline stores them."""
    return {
        name: {"fields": [{key: field[key]
                           for key in ("name", "type", "default")}
                          for field in record["fields"]]}
        for name, record in classes.items()
    }


def extract_schema(tree: ast.Module) -> dict:
    """The frozen view of one schema module: version + dataclass shapes.

    Returns ``{"wire_schema_version": int | None, "classes": {...}}``
    (:func:`dataclass_shapes`) — exactly the structure stored in the
    baseline (minus the line numbers, which are stripped before writing).
    """
    constants = module_constants(tree, frozenset({VERSION_CONSTANT}))
    version = constants.get(VERSION_CONSTANT)
    return {"wire_schema_version": version if isinstance(version, int) else None,
            "classes": dataclass_shapes(tree)}


def schema_to_baseline(schema: dict) -> dict:
    """Strip volatile line numbers; the committed baseline document."""
    return {
        "baseline_format": BASELINE_FORMAT_VERSION,
        "wire_schema_version": schema["wire_schema_version"],
        "classes": shapes_to_baseline(schema["classes"]),
    }


def load_schema(root: Path) -> tuple[dict, str] | None:
    """Parse the repo's schema module under ``root`` (None when absent)."""
    path = root / SCHEMA_MODULE
    if not path.is_file():
        return None
    return extract_schema(ast.parse(path.read_text())), SCHEMA_MODULE


def diff_schema(current: dict, baseline: dict, rel: str,
                rule: str, *,
                version_key: str = "wire_schema_version",
                version_constant: str = VERSION_CONSTANT) -> list[Finding]:
    """Every finding produced by comparing ``current`` to ``baseline``.

    The class/field diff is contract-agnostic; ``version_key`` /
    ``version_constant`` let other frozen contracts (the store schema)
    reuse it with their own version stamp.
    """
    findings: list[Finding] = []

    def flag(line: int, message: str) -> None:
        findings.append(Finding(path=rel, line=line, rule=rule,
                                message=message))

    current_version = current[version_key]
    baseline_version = baseline.get(version_key)
    baseline_classes: dict = baseline.get("classes", {})
    additions: list[str] = []

    for name, record in baseline_classes.items():
        live = current["classes"].get(name)
        if live is None:
            flag(1, f"wire dataclass {name} was removed but the committed "
                    f"baseline still carries it; deployed peers would send "
                    f"payloads this package can no longer read")
            continue
        live_fields = {field["name"]: field for field in live["fields"]}
        for field in record["fields"]:
            live_field = live_fields.get(field["name"])
            if live_field is None:
                flag(live["line"],
                     f"{name}.{field['name']} was removed from the wire "
                     f"schema; removals break deployed peers — deprecate in "
                     f"place instead")
                continue
            if live_field["type"] != field["type"]:
                flag(live_field["line"],
                     f"{name}.{field['name']} changed type "
                     f"{field['type']!r} -> {live_field['type']!r}; wire "
                     f"field types are frozen")
            if live_field["default"] != field["default"]:
                flag(live_field["line"],
                     f"{name}.{field['name']} changed default "
                     f"{field['default']!r} -> {live_field['default']!r}; "
                     f"defaults are part of the wire contract (absent "
                     f"fields decode through them)")
        baseline_order = [field["name"] for field in record["fields"]
                          if field["name"] in live_fields]
        live_order = [field["name"] for field in live["fields"]
                      if any(field["name"] == b["name"]
                             for b in record["fields"])]
        if baseline_order != live_order:
            flag(live["line"],
                 f"{name} reordered its wire fields "
                 f"({baseline_order} -> {live_order}); positional "
                 f"construction and docs depend on the frozen order")
        for field in live["fields"]:
            if field["name"] not in {b["name"] for b in record["fields"]}:
                additions.append(f"{name}.{field['name']}")

    for name, live in current["classes"].items():
        if name not in baseline_classes:
            additions.append(name)

    if current_version != baseline_version:
        flag(1, f"{version_constant} is {current_version} but the committed "
                f"baseline records {baseline_version}; regenerate it with "
                f"`python -m repro lint --update-baseline`")
    elif additions:
        flag(1, f"additive schema change ({', '.join(sorted(additions))}) "
                f"without a {version_constant} bump; bump the version and "
                f"regenerate the baseline with `python -m repro lint "
                f"--update-baseline`")
    return findings


@register_checker
class SchemaFreezeChecker(Checker):
    """Diff the live wire schema against the committed baseline.

    The baseline plumbing (a missing or unreadable file) is shared with
    :class:`~repro.lint.store_schema.StoreSchemaChecker`, which overrides
    :meth:`load`, :meth:`diff` and :attr:`baseline_noun`.
    """

    name = "schema-freeze"
    description = ("wire dataclasses in repro.api.schema evolve "
                   "additively only, with every addition recorded in "
                   "scripts/schema_baseline.json next to a version bump")
    scope = "project"
    #: What the finding for a missing baseline file calls it.
    baseline_noun = "wire-schema baseline"

    def __init__(self, baseline_path: str = DEFAULT_BASELINE):
        self.baseline_path = baseline_path

    @staticmethod
    def load(root: Path) -> tuple[dict, str] | None:
        """The frozen contract's live view under ``root`` (None when the
        module is absent)."""
        return load_schema(root)

    def diff(self, current: dict, document: dict,
             rel: str) -> list[Finding]:
        """Every finding from comparing ``current`` to the baseline
        ``document``."""
        return diff_schema(current, document, rel, self.name)

    def baseline_finding(self, message: str) -> list[Finding]:
        """One finding about the baseline file itself."""
        return [Finding(path=self.baseline_path, line=0, rule=self.name,
                        message=message)]

    def check_project(self, root: Path) -> list[Finding]:
        """Compare ``root``'s module to its committed baseline."""
        loaded = self.load(root)
        if loaded is None:
            return []                    # fixture trees without the module
        current, rel = loaded
        baseline_file = root / self.baseline_path
        if not baseline_file.is_file():
            return self.baseline_finding(
                f"{self.baseline_noun} {self.baseline_path} is missing; "
                f"generate it with `python -m repro lint --update-baseline`")
        try:
            document = json.loads(baseline_file.read_text())
        except ValueError as error:
            return self.baseline_finding(
                f"baseline is not valid JSON ({error}); regenerate it with "
                f"`python -m repro lint --update-baseline`")
        return self.diff(current, document, rel)
