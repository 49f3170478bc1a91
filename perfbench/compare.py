"""Compare run records of a parent commit and a change, pair by pair.

Usage::

    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS [--trace 0|1]

Each argument is a ``.perfbench/runs`` directory (or a copy of one) from a
checkout of that commit.  For every workload and metric the records are
sorted by time and paired in order, so runs made alternately — parent,
change, parent, change — pair up as they were made.  The verdict applies
the rule of ``BENCHMARK.json``'s metrics:

* ``gain``: over at least ten pairs, the change wins at least 9 of every
  10 (ties count for neither side) and the medians differ by more than the
  spread of the parent's own runs (the distance between their quartiles);
* ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound``;
* ``unresolved``: the parent's own spread is wider than the bound, so no
  change within it can be told from noise;
* ``same`` otherwise.  Per-layer metrics have no bound and get only the
  ``gain`` test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load(directory: str, trace: int) -> dict:
    """``{(workload, metric): [value, ...]}`` in run order."""
    records = []
    for path in Path(directory).glob("*.json"):
        record = json.loads(path.read_text())
        if record["provenance"]["trace"] == trace:
            records.append(record)
    records.sort(key=lambda record: record["provenance"]["time"])
    values: dict = {}
    for record in records:
        workload = record["provenance"]["workload"]
        for name, metric in record["metrics"].items():
            values.setdefault((workload, name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); all equal for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, int, int]:
    """The verdict, pairs the change won, and pairs compared."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    losses = sum(1 for old, new in pairs if sign * (new - old) < 0)
    q1, old_median, q3 = quartiles(parent)
    new_median = statistics.median(change)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (new_median - old_median) > q3 - q1):
        return "gain", wins, len(pairs)
    if bound is not None:
        worse = -sign * (new_median - old_median) / abs(old_median or 1.0)
        if worse > bound:
            return "regression", wins, len(pairs)
        if (q3 - q1) / abs(old_median or 1.0) > bound and losses:
            return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv=None) -> int:
    """Print one row per workload and metric; exit 1 on any regression."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in
               contract["per_layer" if args.trace else "end_to_end"]}
    parent, change = load(args.parent, args.trace), load(args.change, args.trace)
    regressions = 0
    print(f"{'workload':12} {'metric':36} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'won':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        entry = metrics.get(name)
        if entry is None:
            continue
        result, wins, pairs = verdict(parent[key], change[key], entry["better"],
                                      entry.get("bound"))
        regressions += result == "regression"
        old = "/".join(f"{value:.4g}" for value in quartiles(parent[key]))
        new = "/".join(f"{value:.4g}" for value in quartiles(change[key]))
        print(f"{workload:12} {name:36} {old:>28} {new:>28} "
              f"{wins:>3}/{pairs:<3}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
