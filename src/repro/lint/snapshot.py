"""The ``snapshot-coverage`` checker: no mutable state escapes snapshots.

Incremental simulation (``snapshot()/restore()``, disk checkpoints) is
only byte-identical if ``_SNAPSHOT_STATE`` lists *every* piece of state
the cycle loop mutates.  A new ``self.<attr>``
added to ``Pipeline.__init__`` and forgotten in the tuple silently
produces snapshots that restore stale state — the worst kind of
determinism bug, because nothing crashes.

This checker closes that gap structurally.  For every class that declares
``_SNAPSHOT_STATE``, each ``self.<attr>`` assigned in ``__init__`` must
appear either in ``_SNAPSHOT_STATE`` or in an explicit
``_SNAPSHOT_EXEMPT`` tuple (immutable run inputs and config-derived
scalars, exempted *by name* so each exemption is a reviewed decision).
Two consistency checks ride along: names listed but never assigned in
``__init__`` (stale/typo entries would crash ``snapshot()`` at runtime),
and names listed in both tuples.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, FileContext, Finding, register_checker
from repro.lint.base import string_tuple

#: The tuple of attributes :meth:`snapshot` deep-copies.
STATE_ANNOTATION = "_SNAPSHOT_STATE"

#: The tuple of ``__init__`` attributes deliberately outside the snapshot.
EXEMPT_ANNOTATION = "_SNAPSHOT_EXEMPT"


def _class_string_tuple(class_node: ast.ClassDef,
                        name: str) -> tuple[str, ...] | None:
    """A class-level ``NAME = ("...", ...)`` tuple, or None when absent."""
    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return string_tuple(stmt.value)
    return None


def _init_assigned_attrs(class_node: ast.ClassDef) -> dict[str, int]:
    """``self.<attr>`` names assigned in ``__init__`` -> first line number."""
    attrs: dict[str, int] = {}
    for stmt in class_node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        attrs.setdefault(target.attr, target.lineno)
    return attrs


@register_checker
class SnapshotCoverageChecker(Checker):
    """Every ``__init__`` attribute is snapshotted or explicitly exempt."""

    name = "snapshot-coverage"
    description = ("each self.<attr> assigned in __init__ of a class with "
                   "_SNAPSHOT_STATE must be listed there or in "
                   "_SNAPSHOT_EXEMPT")
    scope = "file"

    def check_file(self, ctx: FileContext) -> list[Finding]:
        """Check every ``_SNAPSHOT_STATE``-annotated class in one file."""
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            state = _class_string_tuple(node, STATE_ANNOTATION)
            if state is None:
                continue
            exempt = _class_string_tuple(node, EXEMPT_ANNOTATION) or ()
            assigned = _init_assigned_attrs(node)
            covered = set(state) | set(exempt)
            for attr, line in sorted(assigned.items()):
                if attr not in covered:
                    findings.append(ctx.finding(
                        line,
                        f"{node.name}.__init__ assigns self.{attr} but it "
                        f"is in neither {STATE_ANNOTATION} nor "
                        f"{EXEMPT_ANNOTATION}; snapshot()/restore() would "
                        f"silently carry stale state across a resume",
                        self.name))
            for attr in state:
                if attr not in assigned:
                    findings.append(ctx.finding(
                        node,
                        f"{node.name}.{STATE_ANNOTATION} lists {attr!r} "
                        f"but __init__ never assigns it; snapshot() would "
                        f"raise AttributeError (stale or typo'd entry)",
                        self.name))
            for attr in sorted(set(state) & set(exempt)):
                findings.append(ctx.finding(
                    node,
                    f"{node.name}: {attr!r} appears in both "
                    f"{STATE_ANNOTATION} and {EXEMPT_ANNOTATION}; pick one",
                    self.name))
        return findings
