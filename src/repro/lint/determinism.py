"""The ``determinism`` checker: sources of run-to-run nondeterminism.

The repo's headline guarantee is byte-identical reports across processes,
executors and hosts.  Three bug classes have historically threatened it
(PR 1 shipped a fix for a randomised-``hash()`` cache key), and this
checker catches all three statically:

* **builtin ``hash()``** — salted per process for ``str``/``bytes`` since
  PEP 456, so any hash that reaches a cache key, digest or result is
  nondeterministic across processes.  Flagged everywhere; use ``hashlib``
  or an explicit stable digest instead.
* **wall-clock / RNG in simulation code** — ``time.time``/``time_ns``,
  ``datetime.now`` and the ``random`` module have no place in the
  simulation packages (``core``, ``uarch``, ``isa``, ``harness``,
  ``workloads``): any value they produce can leak into results, and
  workload builders must be pure because each process builds a program
  once and shares it.  ``time.monotonic`` and ``time.perf_counter`` stay
  legal (duration measurement never escapes into simulated numbers), as
  does a *seeded* ``random.Random(seed)`` instance (workload generators
  build deterministic pseudo-random data).
* **unordered ``set`` iteration** — iterating a set (or materialising one
  with ``list()``/``tuple()``) without ``sorted()`` produces
  hash-order-dependent sequences.  Flagged for set literals,
  ``set()``/``frozenset()`` calls and local variables bound to them.

False positives are suppressed in place with a reasoned directive, e.g.::

    order = list(pending)  # repro-lint: disable=determinism -- ints only
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, FileContext, Finding, register_checker

#: Top-level ``src/repro`` packages in which wall-clock/RNG use is banned.
SIMULATION_DIRS = frozenset({"core", "uarch", "isa", "harness", "workloads"})

#: ``time`` attributes that read the wall clock (monotonic sources are fine).
_WALL_CLOCK_ATTRS = frozenset({"time", "time_ns"})

#: ``datetime.datetime`` constructors that read the wall clock.
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})

#: Iteration-ordering sinks: calls that materialise their argument's order.
_ORDER_SINKS = frozenset({"list", "tuple"})


def _is_set_expr(node: ast.expr, local_sets: set[str]) -> bool:
    """Whether ``node`` statically evaluates to a ``set``/``frozenset``."""
    if isinstance(node, ast.Set):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    return isinstance(node, ast.Name) and node.id in local_sets


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    """Whether a ``x: set[...]`` style annotation names a set type."""
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Name) and target.id in ("set", "frozenset")


@register_checker
class DeterminismChecker(Checker):
    """Flag builtin ``hash()``, wall-clock/RNG use, and raw set iteration."""

    name = "determinism"
    description = ("byte-identical results: no builtin hash(), no "
                   "wall-clock/RNG in simulation packages, no unordered "
                   "set iteration")
    scope = "file"

    def check_file(self, ctx: FileContext) -> list[Finding]:
        """Run all three determinism sub-checks over one file."""
        findings: list[Finding] = []
        in_sim = any(part in SIMULATION_DIRS
                     for part in ctx.rel.split("/")[:-1])
        local_sets = self._local_set_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            self._check_hash(ctx, node, findings)
            if in_sim:
                self._check_clock_and_rng(ctx, node, findings)
            self._check_set_iteration(ctx, node, local_sets, findings)
        return findings

    # ------------------------------------------------------------------
    # Sub-checks (one AST node each)
    # ------------------------------------------------------------------

    @staticmethod
    def _check_hash(ctx: FileContext, node: ast.AST,
                    findings: list[Finding]) -> None:
        """Builtin ``hash(...)`` call (salted per process for strings)."""
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "hash"):
            findings.append(ctx.finding(
                node,
                "builtin hash() is salted per process for str/bytes "
                "(PYTHONHASHSEED); use hashlib or a stable digest for "
                "anything that escapes into cache keys or results",
                DeterminismChecker.name))

    @staticmethod
    def _check_clock_and_rng(ctx: FileContext, node: ast.AST,
                             findings: list[Finding]) -> None:
        """Wall-clock reads and ``random`` use inside simulation packages."""
        rule = DeterminismChecker.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, attr = node.value.id, node.attr
            if module == "time" and attr in _WALL_CLOCK_ATTRS:
                findings.append(ctx.finding(
                    node,
                    f"time.{attr}() reads the wall clock inside a "
                    f"simulation package; results must not depend on when "
                    f"they ran (time.monotonic is fine for durations)",
                    rule))
            elif module == "datetime" and attr in _DATETIME_NOW:
                findings.append(ctx.finding(
                    node,
                    f"datetime.{attr}() reads the wall clock inside a "
                    f"simulation package; results must not depend on when "
                    f"they ran",
                    rule))
            elif module == "random" and attr != "Random":
                findings.append(ctx.finding(
                    node,
                    f"random.{attr} uses the process-global RNG inside a "
                    f"simulation package; use a seeded random.Random(seed) "
                    f"instance so results are reproducible",
                    rule))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
                and node.func.attr == "Random" and not node.args
                and not node.keywords):
            findings.append(ctx.finding(
                node,
                "random.Random() without a seed is entropy-seeded; pass an "
                "explicit seed so simulation inputs are reproducible",
                rule))
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            findings.append(ctx.finding(
                node,
                "importing names from `random` hides the process-global RNG "
                "behind bare calls inside a simulation package; import the "
                "module and use a seeded random.Random(seed) instance",
                rule))

    @staticmethod
    def _check_set_iteration(ctx: FileContext, node: ast.AST,
                             local_sets: set[str],
                             findings: list[Finding]) -> None:
        """Set iteration (or list/tuple materialisation) without sorted()."""
        rule = DeterminismChecker.name
        iterables: list[ast.expr] = []
        if isinstance(node, ast.For):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _ORDER_SINKS and len(node.args) == 1):
            iterables.append(node.args[0])
        for iterable in iterables:
            if _is_set_expr(iterable, local_sets):
                findings.append(ctx.finding(
                    iterable,
                    "iterating a set exposes hash order, which is "
                    "per-process for strings; wrap the set in sorted() "
                    "before its order can escape into results or digests",
                    rule))

    # ------------------------------------------------------------------
    # Local type inference (function-scope set bindings)
    # ------------------------------------------------------------------

    @staticmethod
    def _local_set_names(tree: ast.Module) -> set[str]:
        """Names bound to a set expression and never rebound otherwise.

        The inference is deliberately shallow (whole-module name granularity,
        simple assignments and ``x: set[...]`` annotations only): a name
        assigned a set *anywhere* but also assigned a non-set elsewhere is
        dropped, so shadowing cannot produce false positives.
        """
        set_names: set[str] = set()
        other_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                bucket = (set_names if _is_set_expr(node.value, set())
                          else other_names)
                bucket.add(node.targets[0].id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                bucket = (set_names if _annotation_is_set(node.annotation)
                          else other_names)
                bucket.add(node.target.id)
        return set_names - other_names
