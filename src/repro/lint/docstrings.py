"""The ``docstrings`` checker: coverage gate over the hot-path packages.

An interrogate-style gate, registered as a lint checker so one
``python -m repro lint`` invocation runs every static gate.  Modules,
classes and public functions/methods (names not starting with ``_``;
``__init__`` exempt — its contract belongs to the class docstring) count
toward coverage; when a package set drops below the threshold, every
undocumented definition becomes a finding so the gate is actionable.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.base import Checker, Finding, register_checker

#: Packages the coverage gate walks (repo-relative).
DEFAULT_PACKAGES = ("src/repro/uarch", "src/repro/harness", "src/repro/api",
                    "src/repro/lint", "src/repro/store")

#: Minimum documented fraction (percent) before findings fire.
DEFAULT_THRESHOLD = 90.0


def iter_definitions(tree: ast.Module, module_name: str):
    """Yield ``(qualified name, node)`` for the module, classes, public defs."""
    yield module_name, tree
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield f"{module_name}.{node.name}", node
            for child in node.body:
                if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not child.name.startswith("_")):
                    yield f"{module_name}.{node.name}.{child.name}", child
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            yield f"{module_name}.{node.name}", node


def docstring_coverage(root: Path, packages=DEFAULT_PACKAGES):
    """Walk ``packages`` under ``root``.

    Returns ``(documented, missing)`` where ``documented`` is a list of
    qualified names and ``missing`` is a list of
    ``(qualified name, repo-relative path, line)`` tuples.
    """
    documented: list[str] = []
    missing: list[tuple[str, str, int]] = []
    for package in packages:
        package_path = root / package
        if not package_path.is_dir():
            continue
        base = root / "src" if (root / "src") in package_path.parents \
            or package_path == root / "src" else root
        for path in sorted(package_path.rglob("*.py")):
            module_name = str(path.relative_to(base)) \
                .removesuffix(".py").replace("/", ".")
            tree = ast.parse(path.read_text())
            rel = path.relative_to(root).as_posix()
            for name, node in iter_definitions(tree, module_name):
                if ast.get_docstring(node):
                    documented.append(name)
                else:
                    missing.append((name, rel, getattr(node, "lineno", 1)))
    return documented, missing


@register_checker
class DocstringChecker(Checker):
    """Fail when documented-definition coverage drops below the threshold."""

    name = "docstrings"
    description = (f"docstring coverage over {', '.join(DEFAULT_PACKAGES)} "
                   f"stays >= {DEFAULT_THRESHOLD:.0f}%")
    scope = "project"

    def __init__(self, packages=DEFAULT_PACKAGES,
                 threshold: float = DEFAULT_THRESHOLD):
        self.packages = tuple(packages)
        self.threshold = threshold

    def check_project(self, root: Path) -> list[Finding]:
        """One finding per undocumented definition when below threshold."""
        documented, missing = docstring_coverage(root, self.packages)
        total = len(documented) + len(missing)
        coverage = 100.0 * len(documented) / total if total else 100.0
        if coverage >= self.threshold:
            return []
        return [
            Finding(path=rel, line=line, rule=self.name,
                    message=(f"{name} has no docstring (package coverage "
                             f"{coverage:.1f}% is below the "
                             f"{self.threshold:.1f}% gate)"))
            for name, rel, line in missing
        ]
