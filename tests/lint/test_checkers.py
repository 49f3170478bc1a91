"""Fixture tests for the invariant checkers (plus the folded gates).

Every checker gets both directions: a *must-flag* fixture seeding exactly
the violation the rule exists for (a builtin ``hash()``, an unlocked write
to a ``_GUARDED_BY_LOCK`` attribute, a wire-schema field removal against
the baseline) and a *must-pass* fixture showing the sanctioned
alternative stays silent.
"""

import textwrap

from repro.lint import run_lint, update_baseline


def lint_tree(tmp_path, files, rules):
    """Write ``files`` (rel -> source) under ``tmp_path`` and lint them."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint(sorted(files), root=tmp_path, rules=rules)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_determinism_flags_builtin_hash_everywhere(tmp_path):
    findings = lint_tree(tmp_path, {"tools/keys.py": """\
        def cache_key(payload):
            return hash(payload)
    """}, rules=["determinism"])
    assert len(findings) == 1
    assert findings[0].line == 2
    assert "hash()" in findings[0].message


def test_determinism_flags_wall_clock_and_rng_in_sim_dirs(tmp_path):
    findings = lint_tree(tmp_path, {"uarch/run.py": """\
        import random
        import time

        def jitter():
            stamp = time.time()
            return stamp + random.random()
    """}, rules=["determinism"])
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("time.time()" in m for m in messages)
    assert any("random.random" in m for m in messages)


def test_determinism_flags_wall_clock_in_workload_builders(tmp_path):
    # Built programs are memoised per process, so a builder must be pure.
    findings = lint_tree(tmp_path, {"workloads/kernel.py": """\
        import time

        def build(scale):
            return int(time.time()) % scale
    """}, rules=["determinism"])
    assert len(findings) == 1
    assert "time.time()" in findings[0].message


def test_determinism_flags_unseeded_random_and_from_import(tmp_path):
    findings = lint_tree(tmp_path, {"harness/gen.py": """\
        import random
        from random import randint

        def build():
            return random.Random()
    """}, rules=["determinism"])
    messages = [f.message for f in findings]
    assert any("without a seed" in m for m in messages)
    assert any("importing names" in m for m in messages)


def test_determinism_flags_raw_set_iteration(tmp_path):
    findings = lint_tree(tmp_path, {"tools/order.py": """\
        pending = set()

        def drain():
            for item in pending:
                yield item

        def snapshot():
            ordered = [x for x in {1, 2}]
            return list(pending) + ordered
    """}, rules=["determinism"])
    assert len(findings) == 3
    assert all("hash order" in f.message for f in findings)


def test_determinism_passes_sanctioned_alternatives(tmp_path):
    findings = lint_tree(tmp_path, {"uarch/clean.py": """\
        import hashlib
        import random
        import time

        def build(seed):
            rng = random.Random(seed)
            started = time.monotonic()
            digest = hashlib.sha256(b"payload").hexdigest()
            order = sorted({digest})
            ok = digest in {"a", "b"}
            return rng, started, order, ok
    """}, rules=["determinism"])
    assert findings == []


def test_determinism_allows_wall_clock_outside_sim_dirs(tmp_path):
    findings = lint_tree(tmp_path, {"tools/bench.py": """\
        import time

        def stamp():
            return time.time()
    """}, rules=["determinism"])
    assert findings == []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

GUARDED_CLASS = """\
    import threading

    class Broker:
        _GUARDED_BY_LOCK = ("_state", "_count")

        def __init__(self):
            self._lock = threading.Lock()
            self._state = "idle"
            self._count = 0
"""


def test_lock_discipline_flags_unlocked_write(tmp_path):
    findings = lint_tree(tmp_path, {"api/broker.py": GUARDED_CLASS + """\

        def poke(self):
            self._state = "poked"
    """}, rules=["lock-discipline"])
    assert len(findings) == 1
    assert "writes it outside" in findings[0].message
    assert "Broker._state" in findings[0].message


def test_lock_discipline_flags_unlocked_read(tmp_path):
    findings = lint_tree(tmp_path, {"api/broker.py": GUARDED_CLASS + """\

        def peek(self):
            return self._count
    """}, rules=["lock-discipline"])
    assert len(findings) == 1
    assert "reads it outside" in findings[0].message


def test_lock_discipline_accepts_locked_access_and_conventions(tmp_path):
    findings = lint_tree(tmp_path, {"api/broker.py": GUARDED_CLASS + """\

        def poke(self):
            with self._lock:
                self._state = "poked"
                self._bump_locked()

        def _bump_locked(self):
            self._count += 1
    """}, rules=["lock-discipline"])
    assert findings == []


def test_lock_discipline_treats_closures_as_unlocked(tmp_path):
    # A nested def captured under the lock can run long after the lock is
    # released, so its guarded accesses count as unlocked.
    findings = lint_tree(tmp_path, {"api/broker.py": GUARDED_CLASS + """\

        def deferred(self):
            with self._lock:
                def callback():
                    return self._state
                return callback
    """}, rules=["lock-discipline"])
    assert len(findings) == 1
    assert "reads it outside" in findings[0].message


def test_lock_discipline_ignores_unannotated_classes(tmp_path):
    findings = lint_tree(tmp_path, {"api/plain.py": """\
        class Plain:
            def poke(self):
                self._state = "free"
    """}, rules=["lock-discipline"])
    assert findings == []


# ---------------------------------------------------------------------------
# schema-freeze
# ---------------------------------------------------------------------------

SCHEMA_V3 = """\
    from dataclasses import dataclass, field

    WIRE_SCHEMA_VERSION = 3


    @dataclass
    class Ping:
        job_id: str
        attempts: int = 1
        tags: dict = field(default_factory=dict)
"""


def write_schema(tmp_path, source):
    path = tmp_path / "src/repro/api/schema.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def schema_findings(tmp_path):
    return run_lint(["src"], root=tmp_path, rules=["schema-freeze"])


def test_schema_freeze_round_trip_is_clean(tmp_path):
    write_schema(tmp_path, SCHEMA_V3)
    update_baseline(tmp_path)
    assert schema_findings(tmp_path) == []


def test_schema_freeze_flags_field_removal_against_baseline(tmp_path):
    write_schema(tmp_path, SCHEMA_V3)
    update_baseline(tmp_path)
    write_schema(tmp_path,
                 SCHEMA_V3.replace("        attempts: int = 1\n", ""))
    findings = schema_findings(tmp_path)
    assert len(findings) == 1
    assert "Ping.attempts was removed" in findings[0].message


def test_schema_freeze_flags_type_and_default_changes(tmp_path):
    write_schema(tmp_path, SCHEMA_V3)
    update_baseline(tmp_path)
    write_schema(tmp_path, SCHEMA_V3
                 .replace("job_id: str", "job_id: bytes")
                 .replace("attempts: int = 1", "attempts: int = 2"))
    messages = [f.message for f in schema_findings(tmp_path)]
    assert any("changed type" in m for m in messages)
    assert any("changed default" in m for m in messages)


def test_schema_freeze_flags_reorder(tmp_path):
    write_schema(tmp_path, SCHEMA_V3)
    update_baseline(tmp_path)
    write_schema(tmp_path, """\
        from dataclasses import dataclass, field

        WIRE_SCHEMA_VERSION = 3


        @dataclass
        class Ping:
            attempts: int = 1
            job_id: str = ""
            tags: dict = field(default_factory=dict)
    """)
    messages = [f.message for f in schema_findings(tmp_path)]
    assert any("reordered its wire fields" in m for m in messages)


def test_schema_freeze_requires_version_bump_for_additions(tmp_path):
    write_schema(tmp_path, SCHEMA_V3)
    update_baseline(tmp_path)
    added = SCHEMA_V3 + "        retries: int = 0\n"
    write_schema(tmp_path, added)
    findings = schema_findings(tmp_path)
    assert len(findings) == 1
    assert "without a WIRE_SCHEMA_VERSION bump" in findings[0].message
    assert "Ping.retries" in findings[0].message

    # Bump + regenerate is the sanctioned path back to clean.
    write_schema(tmp_path, added.replace("WIRE_SCHEMA_VERSION = 3",
                                         "WIRE_SCHEMA_VERSION = 4"))
    update_baseline(tmp_path)
    assert schema_findings(tmp_path) == []


def test_schema_freeze_flags_missing_baseline(tmp_path):
    write_schema(tmp_path, SCHEMA_V3)
    findings = schema_findings(tmp_path)
    assert len(findings) == 1
    assert "baseline" in findings[0].message
    assert "--update-baseline" in findings[0].message


# ---------------------------------------------------------------------------
# the folded docs/docstring gates
# ---------------------------------------------------------------------------


def test_docstrings_checker_flags_undocumented_definitions(tmp_path):
    findings = lint_tree(tmp_path, {"src/repro/uarch/mod.py": """\
        def public():
            return 1
    """}, rules=["docstrings"])
    assert findings, "0% coverage must be below the gate"
    assert any("repro.uarch.mod.public" in f.message for f in findings)


def test_docs_checker_flags_broken_link(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text("# Guide\n\nSee [gone](missing.md).\n")
    findings = run_lint(["docs"], root=tmp_path, rules=["docs"])
    assert len(findings) == 1
    assert "broken link" in findings[0].message
