"""The ``docs`` checker: markdown links resolve, python fences parse.

The dependency-free stand-in for ``mkdocs build --strict``, registered
as a lint checker.  It walks every markdown file in ``docs/`` plus the
README and verifies that

* every relative markdown link/image points at an existing file
  (``http(s)``/``mailto`` targets are skipped — CI must not touch the
  network), including ``#anchor`` targets against the linked file's
  headings; and
* every fenced ``python`` code block parses (``ast.parse``), so cookbook
  examples cannot rot silently; fences tagged ``python noqa`` are skipped
  (intentional fragments).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint.base import Checker, Finding, register_checker

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root: Path) -> list[Path]:
    """``docs/**/*.md`` plus the top-level README, sorted."""
    files = sorted((root / "docs").rglob("*.md")) \
        if (root / "docs").is_dir() else []
    readme = root / "README.md"
    if readme.is_file():
        files.append(readme)
    return files


def anchors_of(path: Path) -> set[str]:
    """Every heading anchor slug one markdown file defines."""
    anchors = set()
    for line in path.read_text().splitlines():
        match = HEADING_RE.match(line)
        if match:
            anchors.add(slugify(match.group(1)))
    return anchors


def _check_links(path: Path, root: Path, rule: str,
                 findings: list[Finding]) -> None:
    rel = path.relative_to(root).as_posix()
    in_fence = False
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, anchor = target.partition("#")
            linked = path if not file_part else (path.parent / file_part).resolve()
            if file_part and not linked.exists():
                findings.append(Finding(path=rel, line=number, rule=rule,
                                        message=f"broken link {target!r}"))
                continue
            if anchor and linked.suffix == ".md" and linked.exists():
                if slugify(anchor) not in anchors_of(linked):
                    findings.append(Finding(
                        path=rel, line=number, rule=rule,
                        message=f"missing anchor {target!r}"))


def _check_python_fences(path: Path, root: Path, rule: str,
                         findings: list[Finding]) -> None:
    rel = path.relative_to(root).as_posix()
    in_fence = False
    fence_tag = ""
    fence_info = ""
    block: list[str] = []
    start = 0
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not in_fence and stripped.startswith("```"):
            in_fence = True
            parts = stripped[3:].split(None, 1)
            fence_tag = parts[0].lower() if parts else ""
            fence_info = parts[1] if len(parts) > 1 else ""
            block = []
            start = number
        elif in_fence and stripped == "```":
            in_fence = False
            if fence_tag == "python" and "noqa" not in fence_info:
                try:
                    ast.parse("\n".join(block))
                except SyntaxError as error:
                    findings.append(Finding(
                        path=rel, line=start, rule=rule,
                        message=(f"python example does not parse "
                                 f"({error.msg}, line {error.lineno})")))
        elif in_fence:
            block.append(line)


@register_checker
class DocsChecker(Checker):
    """Relative links resolve and python fences parse, docs/ + README."""

    name = "docs"
    description = ("markdown links in docs/ and README resolve (anchors "
                   "included) and fenced python examples parse")
    scope = "project"

    def check_project(self, root: Path) -> list[Finding]:
        """Check the whole docs tree under ``root``."""
        findings: list[Finding] = []
        for path in markdown_files(root):
            _check_links(path, root, self.name, findings)
            _check_python_fences(path, root, self.name, findings)
        return findings
