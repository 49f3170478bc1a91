"""Runner, suppression, report and CLI tests for ``repro.lint``.

Covers the suppression contract (reasoned line/file directives filter,
bare directives are themselves findings and cannot self-suppress), the
``--json`` report's exact round-trip, baseline-update refusals, the
``python -m repro lint`` exit codes, and the self-check that the linter
is clean over this repository's own ``src/`` tree.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    LintUsageError,
    format_json,
    format_text,
    parse_report,
    run_lint,
    update_baseline,
)

ROOT = Path(__file__).resolve().parent.parent.parent

HASHY = """\
    def cache_key(payload):
        return hash(payload)
"""


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def run_cli(*args, cwd=ROOT):
    env = {"PYTHONPATH": str(ROOT / "src")}
    import os

    env = {**os.environ, **env}
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def test_reasoned_line_suppression_filters_the_finding(tmp_path):
    write_tree(tmp_path, {"tools/keys.py": """\
        def cache_key(payload):
            return hash(payload)  # repro-lint: disable=determinism -- ints only, unsalted
    """})
    assert run_lint(["tools"], root=tmp_path) == []


def test_reasoned_file_suppression_filters_every_line(tmp_path):
    write_tree(tmp_path, {"tools/keys.py": """\
        # repro-lint: disable-file=determinism -- offline tool, int keys only

        def one(payload):
            return hash(payload)

        def two(payload):
            return hash(payload)
    """})
    assert run_lint(["tools"], root=tmp_path) == []


def test_suppression_for_another_rule_does_not_filter(tmp_path):
    write_tree(tmp_path, {"tools/keys.py": """\
        def cache_key(payload):
            return hash(payload)  # repro-lint: disable=docs -- wrong rule
    """})
    findings = run_lint(["tools"], root=tmp_path)
    assert [f.rule for f in findings] == ["determinism"]


def test_bare_suppression_is_rejected_and_keeps_the_finding(tmp_path):
    write_tree(tmp_path, {"tools/keys.py": """\
        def cache_key(payload):
            return hash(payload)  # repro-lint: disable=determinism
    """})
    findings = run_lint(["tools"], root=tmp_path)
    rules = sorted(f.rule for f in findings)
    assert rules == ["determinism", "suppression"]
    bare = next(f for f in findings if f.rule == "suppression")
    assert "without a reason" in bare.message


def test_bare_suppression_cannot_suppress_itself(tmp_path):
    write_tree(tmp_path, {"tools/quiet.py": """\
        # repro-lint: disable-file=all
        x = 1
    """})
    findings = run_lint(["tools"], root=tmp_path)
    assert [f.rule for f in findings] == ["suppression"]


def test_wildcard_suppression_covers_every_rule(tmp_path):
    write_tree(tmp_path, {"uarch/noisy.py": """\
        import time

        def stamp(payload):
            return hash(payload), time.time()  # repro-lint: disable=all -- fixture
    """})
    assert run_lint(["uarch"], root=tmp_path) == []


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_json_report_round_trips_exactly(tmp_path):
    write_tree(tmp_path, {"tools/keys.py": HASHY, "uarch/t.py": """\
        import time

        def stamp():
            return time.time()
    """})
    findings = run_lint(["tools", "uarch"], root=tmp_path)
    assert len(findings) == 2
    payload = json.loads(format_json(findings))
    assert payload["schema_version"] == 1
    assert payload["count"] == 2
    assert parse_report(format_json(findings)) == findings


def test_text_report_shapes():
    assert format_text([]) == "lint clean: no findings"
    finding = Finding(path="a.py", line=3, rule="determinism", message="boom")
    text = format_text([finding])
    assert "a.py:3: [determinism] boom" in text
    assert "1 finding(s)" in text


def test_findings_sort_deterministically(tmp_path):
    write_tree(tmp_path, {"b/mod.py": HASHY, "a/mod.py": HASHY})
    findings = run_lint(["b", "a"], root=tmp_path)
    assert [f.path for f in findings] == ["a/mod.py", "b/mod.py"]


def test_unknown_rule_and_missing_path_raise(tmp_path):
    with pytest.raises(LintUsageError, match="unknown lint rule"):
        run_lint(["."], root=tmp_path, rules=["no-such-rule"])
    with pytest.raises(LintUsageError, match="no such file"):
        run_lint(["nope"], root=tmp_path)


def test_syntax_error_becomes_a_parse_finding(tmp_path):
    write_tree(tmp_path, {"tools/broken.py": "def oops(:\n"})
    findings = run_lint(["tools"], root=tmp_path)
    assert [f.rule for f in findings] == ["parse"]


# ---------------------------------------------------------------------------
# Baseline update refusals
# ---------------------------------------------------------------------------


def git(*args, cwd):
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    *args], cwd=cwd, check=True, capture_output=True)


def test_update_baseline_refuses_uncommitted_schema_edits(tmp_path):
    write_tree(tmp_path, {"src/repro/api/schema.py": """\
        WIRE_SCHEMA_VERSION = 1
    """})
    git("init", "-q", cwd=tmp_path)
    git("add", "-A", cwd=tmp_path)
    git("commit", "-q", "-m", "seed", cwd=tmp_path)
    update_baseline(tmp_path)     # clean tree: allowed

    (tmp_path / "src/repro/api/schema.py").write_text(
        "WIRE_SCHEMA_VERSION = 2\n")
    with pytest.raises(LintUsageError, match="uncommitted"):
        update_baseline(tmp_path)
    update_baseline(tmp_path, force=True)    # explicit override


def test_update_baseline_refuses_addition_without_version_bump(tmp_path):
    schema = tmp_path / "src/repro/api/schema.py"
    write_tree(tmp_path, {"src/repro/api/schema.py": """\
        from dataclasses import dataclass

        WIRE_SCHEMA_VERSION = 1


        @dataclass
        class Ping:
            job_id: str
    """})
    update_baseline(tmp_path)
    schema.write_text(schema.read_text() + "    retries: int = 0\n")
    with pytest.raises(LintUsageError, match="WIRE_SCHEMA_VERSION bump"):
        update_baseline(tmp_path)
    update_baseline(tmp_path, force=True)    # explicit override


# ---------------------------------------------------------------------------
# CLI exit codes and artifacts
# ---------------------------------------------------------------------------


def test_cli_exit_zero_and_one(tmp_path):
    write_tree(tmp_path, {"tools/clean.py": "X = 1\n",
                          "tools/dirty.py": HASHY})
    ok = run_cli("tools/clean.py", "--root", str(tmp_path))
    assert ok.returncode == 0
    assert "lint clean" in ok.stdout

    bad = run_cli("tools/dirty.py", "--root", str(tmp_path))
    assert bad.returncode == 1
    assert "[determinism]" in bad.stdout


def test_cli_exit_two_on_usage_error(tmp_path):
    result = run_cli("--rule", "no-such-rule", "--root", str(tmp_path))
    assert result.returncode == 2
    assert "unknown lint rule" in result.stderr


def test_cli_json_artifact_round_trips(tmp_path):
    write_tree(tmp_path, {"tools/dirty.py": HASHY})
    report = tmp_path / "lint-report.json"
    result = run_cli("tools/dirty.py", "--root", str(tmp_path),
                     "--json", str(report))
    assert result.returncode == 1
    findings = parse_report(report.read_text())
    assert [f.rule for f in findings] == ["determinism"]
    # The text report is echoed to stderr so CI logs stay readable.
    assert "[determinism]" in result.stderr


def test_cli_json_to_stdout(tmp_path):
    write_tree(tmp_path, {"tools/dirty.py": HASHY})
    result = run_cli("tools/dirty.py", "--root", str(tmp_path), "--json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["count"] == 1


def test_cli_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in ("determinism", "lock-discipline", "schema-freeze",
                 "snapshot-coverage", "docstrings", "docs"):
        assert rule in result.stdout


# ---------------------------------------------------------------------------
# Self-check: this repository lints clean
# ---------------------------------------------------------------------------


def test_repo_src_tree_is_lint_clean():
    findings = run_lint(["src"], root=ROOT)
    assert findings == [], format_text(findings)


def test_repo_schema_baseline_matches_module():
    findings = run_lint(["src"], root=ROOT, rules=["schema-freeze"])
    assert findings == [], format_text(findings)
