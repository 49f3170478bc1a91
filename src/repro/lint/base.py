"""Core types of the invariant linter: findings, contexts, the registry.

The linter is a plugin framework over Python's ``ast``: each *checker*
enforces one repository invariant (rule) and yields structured
:class:`Finding` records.  Two checker scopes exist:

* **file** checkers receive one parsed :class:`FileContext` per Python
  file and inspect its AST (determinism, lock discipline, snapshot
  coverage);
* **project** checkers run once per lint invocation against the repo root
  (schema freeze against the committed baseline, docstring coverage,
  markdown docs).

Checkers are registered by :func:`register_checker` (usually as a class
decorator) and discovered through :func:`all_checkers`; the runner
(:mod:`repro.lint.runner`) drives them and applies suppressions.

Suppression syntax (per line, or per file with ``disable-file``)::

    risky_line()  # repro-lint: disable=determinism -- seeded RNG, stable
    # repro-lint: disable-file=lock-discipline -- single-threaded tool

A reason (the ``-- text`` tail) is **mandatory**: a bare suppression is
itself reported under the ``suppression`` rule, so silencing the linter
always leaves a grep-able justification behind.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: Version stamp of the ``--json`` report shape.
LINT_SCHEMA_VERSION = 1

#: Rule id under which malformed suppressions are reported.
SUPPRESSION_RULE = "suppression"

#: The wildcard rule name: suppresses every rule on the line/file.
ALL_RULES = "all"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[\w,\- ]+?)\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One structured lint finding (sortable by location, then rule)."""

    path: str          #: Repo-relative posix path of the offending file.
    line: int          #: 1-based line number (0 for file-level findings).
    rule: str          #: The checker's rule id.
    message: str       #: Human-readable description of the violation.

    def __str__(self) -> str:
        """The one-line text-report form: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        """JSON-safe form (one entry of the ``--json`` report)."""
        return {"path": self.path, "line": self.line,
                "rule": self.rule, "message": self.message}

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        return cls(path=payload["path"], line=int(payload["line"]),
                   rule=payload["rule"], message=payload["message"])


@dataclass
class Suppressions:
    """Parsed ``# repro-lint:`` directives of one source file."""

    #: line number -> set of rule names disabled on that line.
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: rule names disabled for the whole file.
    file_wide: set[str] = field(default_factory=set)
    #: (line, directive text) of suppressions missing the required reason.
    bare: list[tuple[int, str]] = field(default_factory=list)

    def allows(self, finding: Finding) -> bool:
        """Whether ``finding`` survives this file's suppressions.

        ``suppression`` findings themselves are never suppressible —
        otherwise a bare directive could silence its own rejection.
        """
        if finding.rule == SUPPRESSION_RULE:
            return True
        for rules in (self.file_wide, self.by_line.get(finding.line, ())):
            if finding.rule in rules or ALL_RULES in rules:
                return False
        return True


def parse_suppressions(source: str) -> Suppressions:
    """Extract every ``# repro-lint:`` directive from ``source``.

    The scan is line-based (directives live in comments, which the AST
    drops); a directive anywhere on a physical line covers that line.
    """
    result = Suppressions()
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {name.strip() for name in match.group("rules").split(",")
                 if name.strip()}
        if not match.group("reason"):
            result.bare.append((number, match.group(0).strip()))
            continue
        if match.group("kind") == "disable-file":
            result.file_wide |= rules
        else:
            result.by_line.setdefault(number, set()).update(rules)
    return result


@dataclass
class FileContext:
    """One parsed Python file handed to every file-scope checker."""

    path: Path                 #: Absolute path on disk.
    rel: str                   #: Repo-relative posix path (finding key).
    source: str                #: Raw file contents.
    tree: ast.Module           #: The parsed module.
    suppressions: Suppressions #: This file's ``# repro-lint:`` directives.

    @classmethod
    def load(cls, path: Path, root: Path) -> "FileContext":
        """Read and parse ``path`` (raises ``SyntaxError`` on bad source)."""
        source = path.read_text()
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path=path, rel=rel, source=source,
                   tree=ast.parse(source, filename=str(path)),
                   suppressions=parse_suppressions(source))

    def finding(self, node_or_line, message: str, rule: str) -> Finding:
        """Build a :class:`Finding` for an AST node (or raw line number)."""
        line = (node_or_line if isinstance(node_or_line, int)
                else getattr(node_or_line, "lineno", 0))
        return Finding(path=self.rel, line=line, rule=rule, message=message)


def string_tuple(node: ast.expr) -> tuple[str, ...] | None:
    """The value of a tuple/list-of-string-constants expression, else None.

    Shared by checkers that read class-level annotation tuples
    (``_GUARDED_BY_LOCK``, ``_SNAPSHOT_STATE``, ``_SNAPSHOT_EXEMPT``).
    """
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return tuple(names)


class Checker:
    """Base class every checker plugs in through.

    Subclasses set :attr:`name` (the rule id), :attr:`description` and
    :attr:`scope`, then override :meth:`check_file` (``scope="file"``) or
    :meth:`check_project` (``scope="project"``).
    """

    #: Rule id (used in findings, ``--rule`` filters and suppressions).
    name: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    description: str = ""
    #: ``"file"`` (per parsed Python file) or ``"project"`` (once per run).
    scope: str = "file"

    def check_file(self, ctx: FileContext) -> list[Finding]:
        """Yield findings for one parsed file (file-scope checkers)."""
        return []

    def check_project(self, root: Path) -> list[Finding]:
        """Yield findings for the whole tree (project-scope checkers)."""
        return []


_CHECKERS: dict[str, Checker] = {}


def register_checker(cls):
    """Class decorator: instantiate and register a :class:`Checker`.

    Re-registering a name replaces the previous instance (tests register
    throwaway checkers); the instance itself is returned unchanged when a
    pre-built object is passed instead of a class.
    """
    checker = cls() if isinstance(cls, type) else cls
    if not checker.name:
        raise ValueError(f"checker {cls!r} has no rule name")
    _CHECKERS[checker.name] = checker
    return cls


def all_checkers() -> list[Checker]:
    """Every registered checker, sorted by rule name (deterministic)."""
    return [_CHECKERS[name] for name in sorted(_CHECKERS)]


def get_checker(name: str) -> Checker:
    """Look one checker up by rule name (raises ``KeyError`` with hints)."""
    try:
        return _CHECKERS[name]
    except KeyError:
        known = ", ".join(sorted(_CHECKERS)) or "none"
        raise KeyError(f"unknown lint rule {name!r}; known rules: {known}")
