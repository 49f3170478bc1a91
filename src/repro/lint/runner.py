"""The lint runner: discovery, orchestration, suppressions, reports.

:func:`run_lint` is the one entry point behind ``python -m repro lint``
and the legacy gate scripts: it discovers Python files under the given
paths, parses each one once, drives every selected file-scope checker
over the shared ASTs, runs the project-scope checkers against the repo
root, applies ``# repro-lint:`` suppressions (rejecting bare ones), and
returns deterministically sorted findings.

Reports come in two shapes: :func:`format_text` (one finding per line,
grep/editor friendly) and :func:`format_json` (schema-stamped, exact
round-trip through :meth:`repro.lint.base.Finding.from_dict` — the CI
artifact format).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

# Importing the checker modules registers them; keep the imports explicit
# so a partial import cannot silently drop a gate.
import repro.lint.determinism   # noqa: F401  (registration import)
import repro.lint.docs          # noqa: F401  (registration import)
import repro.lint.docstrings    # noqa: F401  (registration import)
import repro.lint.locks         # noqa: F401  (registration import)
import repro.lint.schema_freeze # noqa: F401  (registration import)
import repro.lint.store_schema  # noqa: F401  (registration import)
from repro.lint.base import (
    LINT_SCHEMA_VERSION,
    SUPPRESSION_RULE,
    Checker,
    FileContext,
    Finding,
    all_checkers,
    get_checker,
)
from repro.lint.schema_freeze import (
    DEFAULT_BASELINE,
    SCHEMA_MODULE,
    SchemaFreezeChecker,
    load_schema,
    schema_to_baseline,
)
from repro.lint.store_schema import (
    BASELINE_KEY,
    STORE_MODULE,
    load_store_schema,
    store_schema_to_baseline,
)

#: The repo root this package was loaded from (``src/repro/lint`` -> repo).
REPO_ROOT = Path(__file__).resolve().parents[3]


class LintUsageError(ValueError):
    """A lint invocation is unusable (unknown rule, missing path, ...)."""


def discover_files(paths: list[Path]) -> list[Path]:
    """Every Python file under ``paths`` (files kept, dirs walked), sorted."""
    files: list[Path] = []
    for path in paths:
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    seen: dict[Path, None] = {}
    for path in files:
        seen.setdefault(path.resolve(), None)
    return list(seen)


def select_checkers(rules: list[str] | None) -> list[Checker]:
    """The checkers to run: all of them, or the ``--rule`` subset."""
    if not rules:
        return all_checkers()
    try:
        return [get_checker(name) for name in dict.fromkeys(rules)]
    except KeyError as error:
        raise LintUsageError(error.args[0]) from None


def run_lint(
    paths: list[Path | str] | None = None,
    *,
    rules: list[str] | None = None,
    root: Path | str | None = None,
    baseline: str | None = None,
) -> list[Finding]:
    """Run the selected checkers and return sorted, suppression-filtered
    findings.

    Args:
        paths: Files/directories to scan with the file-scope checkers
            (default: ``src/`` under ``root``).  Project-scope checkers
            always run against ``root`` regardless of ``paths``.
        rules: Rule-name subset (None = every registered checker).
        root: Repo root for relative paths, the schema module and the
            docs tree (default: this package's repo).
        baseline: Repo-relative schema-baseline path override.
    """
    root = Path(root).resolve() if root is not None else REPO_ROOT
    scan_paths = [Path(p) if Path(p).is_absolute() else root / p
                  for p in (paths or ["src"])]
    checkers = select_checkers(rules)
    if baseline is not None:
        # Both baseline rules (store-schema subclasses schema-freeze).
        checkers = [type(c)(baseline) if isinstance(c, SchemaFreezeChecker)
                    else c for c in checkers]
    file_checkers = [c for c in checkers if c.scope == "file"]
    project_checkers = [c for c in checkers if c.scope == "project"]

    findings: list[Finding] = []
    contexts: dict[str, FileContext] = {}
    for path in discover_files(scan_paths):
        try:
            ctx = FileContext.load(path, root)
        except SyntaxError as error:
            findings.append(Finding(
                path=_rel(path, root), line=error.lineno or 0, rule="parse",
                message=f"file does not parse: {error.msg}"))
            continue
        contexts[ctx.rel] = ctx
        for checker in file_checkers:
            findings.extend(checker.check_file(ctx))
    for checker in project_checkers:
        findings.extend(checker.check_project(root))

    kept = []
    for finding in findings:
        ctx = contexts.get(finding.path)
        if ctx is None or ctx.suppressions.allows(finding):
            kept.append(finding)
    selected = {c.name for c in checkers}
    if not rules or SUPPRESSION_RULE in selected:
        for ctx in contexts.values():
            for line, text in ctx.suppressions.bare:
                kept.append(Finding(
                    path=ctx.rel, line=line, rule=SUPPRESSION_RULE,
                    message=(f"suppression without a reason ({text!r}); "
                             f"append `-- <why this is a false positive>`")))
    return sorted(set(kept))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def format_text(findings: list[Finding]) -> str:
    """The human-readable report (one ``path:line: [rule] message`` line)."""
    if not findings:
        return "lint clean: no findings"
    lines = [str(finding) for finding in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def format_json(findings: list[Finding]) -> str:
    """The machine-readable report (CI artifact; exact round-trip)."""
    return json.dumps({
        "schema_version": LINT_SCHEMA_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
    }, indent=2, sort_keys=True)


def parse_report(text: str) -> list[Finding]:
    """Inverse of :func:`format_json` (tests and tooling)."""
    payload = json.loads(text)
    return [Finding.from_dict(entry) for entry in payload["findings"]]


# ---------------------------------------------------------------------------
# Baseline regeneration (``--update-baseline``)
# ---------------------------------------------------------------------------


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def schema_is_dirty(root: Path) -> bool | None:
    """Whether either frozen schema module has uncommitted edits
    (None = no git)."""
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--",
             SCHEMA_MODULE, STORE_MODULE],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return bool(result.stdout.strip())


def update_baseline(root: Path | str | None = None, *,
                    baseline: str = DEFAULT_BASELINE,
                    force: bool = False) -> Path:
    """Regenerate the committed schema baseline from the live modules.

    One document, two sections: the wire schema
    (:data:`~repro.lint.schema_freeze.SCHEMA_MODULE`) at the top level
    and the store contract (:data:`~repro.lint.store_schema.STORE_MODULE`)
    under ``"store"``.  Refuses to snapshot a schema with uncommitted
    edits (a dirty module would freeze unreviewed changes as "the
    contract") unless ``force``; also refuses an *additive* change that
    arrives without the matching version bump (``WIRE_SCHEMA_VERSION`` /
    ``STORE_SCHEMA_VERSION``) and any edit to the frozen store auth
    constants — exactly the drift the checkers exist to catch.  Returns
    the baseline path written.
    """
    root = Path(root).resolve() if root is not None else REPO_ROOT
    loaded = load_schema(root)
    if loaded is None:
        raise LintUsageError(f"no schema module at {root / SCHEMA_MODULE}")
    current, _ = loaded
    store_loaded = load_store_schema(root)
    if not force and schema_is_dirty(root):
        raise LintUsageError(
            f"{SCHEMA_MODULE} or {STORE_MODULE} has uncommitted edits; "
            f"refusing to freeze an unreviewed schema as the baseline "
            f"(commit first, or pass --force)")
    baseline_file = root / baseline
    old = None
    if baseline_file.is_file():
        try:
            old = json.loads(baseline_file.read_text())
        except ValueError:
            old = None
    if old is not None and not force:
        _check_unbumped_additions(
            old, current,
            version_key="wire_schema_version",
            version_constant="WIRE_SCHEMA_VERSION", module=SCHEMA_MODULE)
        if store_loaded is not None:
            old_store = old.get(BASELINE_KEY)
            if isinstance(old_store, dict):
                store_current, _ = store_loaded
                _check_unbumped_additions(
                    old_store, store_current,
                    version_key="store_schema_version",
                    version_constant="STORE_SCHEMA_VERSION",
                    module=STORE_MODULE)
                for name, frozen in old_store.get("auth", {}).items():
                    live = store_current["auth"].get(name)
                    if frozen is not None and live != frozen:
                        raise LintUsageError(
                            f"{name} changed {frozen!r} -> {live!r}; the "
                            f"store auth header/scheme is frozen "
                            f"unconditionally — add a new header alongside "
                            f"the old one instead (or pass --force)")
    document = schema_to_baseline(current)
    if store_loaded is not None:
        document[BASELINE_KEY] = store_schema_to_baseline(store_loaded[0])
    elif old is not None and isinstance(old.get(BASELINE_KEY), dict):
        document[BASELINE_KEY] = old[BASELINE_KEY]
    baseline_file.parent.mkdir(parents=True, exist_ok=True)
    baseline_file.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
    return baseline_file


def _check_unbumped_additions(old: dict, current: dict, *, version_key: str,
                              version_constant: str, module: str) -> None:
    """Refuse additive schema changes arriving without a version bump."""
    if old.get(version_key) != current[version_key]:
        return
    old_fields = {
        (name, field["name"])
        for name, record in old.get("classes", {}).items()
        for field in record["fields"]}
    new_fields = {
        (name, field["name"])
        for name, record in current["classes"].items()
        for field in record["fields"]}
    added = new_fields - old_fields
    if added:
        names = ", ".join(sorted(f"{c}.{f}" for c, f in added))
        raise LintUsageError(
            f"schema additions ({names}) without a {version_constant} bump; "
            f"bump the version in {module} first (or pass --force)")
