"""CI perf-smoke gate: fail on a large cycle-loop slowdown.

Re-measures the fig8 in-sim cycle-loop probe (the same measurement
``scripts/benchmark_engine.py`` records into
``benchmarks/results/BENCH_cycle_loop.json``) and fails when the measured
**committed-instructions-per-second** figure drops below the committed
baseline's, after normalising for runner speed.

Normalisation: alongside the cycle-loop probe the baseline records a
**calibration micro-loop** (:func:`benchmark_engine.calibrate` — a fixed
pure-Python loop with the cycle loop's operation mix).  The gate re-runs
the same micro-loop on the current runner and scales the baseline's
instructions/s by ``baseline_calibration_s / local_calibration_s``: a
machine that runs the calibration 2× slower is *expected* to run the cycle
loop 2× slower, and only a slowdown beyond that ratio counts as a
regression.  This lets the threshold be tight (default 1.25×) without
false-failing on slower runners.  Baselines without a matching calibration
record (older commits, or a calibration-version bump) fall back to the
unnormalised comparison with the historical 1.5× threshold.

The probe runs with occupancy recording **off** (``record_stats`` defaults
to ``False`` everywhere), so this gate doubles as the observability
off-mode overhead budget: the cycle loop tests one pre-bound local boolean
per cycle and nothing else (see ``docs/observability.md``).  The gate
first asserts the default path really records nothing, then holds the
measured cost to the calibrated factor — if recording ever leaks into the
default path, the assertion or the floor fails.

Environment overrides:

* ``REPRO_PERF_SMOKE_FACTOR`` — slowdown factor that fails the gate
  (default 1.25 calibrated, 1.5 uncalibrated).
* ``REPRO_PERF_SMOKE_SKIP=1`` — skip entirely (emergency hatch for
  known-slow environments).

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py            # full baseline gate
    PYTHONPATH=src python scripts/perf_smoke.py --repeats 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_cycle_loop.json"

#: Default gate when the baseline carries a matching calibration record.
CALIBRATED_FACTOR = 1.25

#: Fallback gate for uncalibrated baselines (the historical threshold).
UNCALIBRATED_FACTOR = 1.5

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help="committed BENCH_cycle_loop.json to gate against")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N probe repetitions (default 3)")
    parser.add_argument("--factor", type=float, default=None,
                        help="slowdown factor that fails the gate (default "
                             "$REPRO_PERF_SMOKE_FACTOR, else 1.25 when the "
                             "baseline is calibrated, 1.5 otherwise)")
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_PERF_SMOKE_SKIP") == "1":
        print("perf smoke: skipped (REPRO_PERF_SMOKE_SKIP=1)")
        return 0

    baseline = json.loads(args.baseline.read_text())
    baseline_ips = baseline["instructions_per_second"]
    workloads = baseline["workloads"]

    from benchmark_engine import (  # noqa: E402  (sibling script)
        CALIBRATION_VERSION,
        calibrate,
        time_fig8,
    )

    # Calibration: re-run the micro-loop here and scale the baseline's
    # expectation by the measured runner-speed ratio.
    recorded = baseline.get("calibration") or {}
    calibrated = recorded.get("version") == CALIBRATION_VERSION \
        and recorded.get("seconds", 0) > 0
    expected_ips = baseline_ips
    local_calibration_s = None
    if calibrated:
        local_calibration_s = calibrate(args.repeats)
        speed_ratio = recorded["seconds"] / local_calibration_s
        expected_ips = baseline_ips * speed_ratio
        print(f"perf smoke: calibration {local_calibration_s:.4f}s local vs "
              f"{recorded['seconds']:.4f}s baseline "
              f"(runner speed x{speed_ratio:.2f})")
    else:
        print("perf smoke: baseline has no matching calibration record; "
              "using the unnormalised comparison")

    factor = args.factor
    if factor is None:
        try:
            factor = float(os.environ.get("REPRO_PERF_SMOKE_FACTOR", "") or
                           (CALIBRATED_FACTOR if calibrated
                            else UNCALIBRATED_FACTOR))
        except ValueError:
            factor = UNCALIBRATED_FACTOR

    # The stats-off guarantee this gate certifies: the default simulation
    # path must record no occupancy/timeline state at all, so the timing
    # below measures the one-boolean-per-cycle off mode and nothing more.
    from repro.core.simulator import simulate_workload  # noqa: E402

    off_probe = simulate_workload("micro_addi_chain").stats
    if off_probe.occupancy is not None:
        print("perf smoke: FAIL — default (stats-off) run recorded occupancy; "
              "the off-mode fast path has been compromised", file=sys.stderr)
        return 1
    print("perf smoke: stats-off probe recorded nothing (off-mode path intact)")

    # The primary gate always times the python reference loop, whatever
    # $REPRO_BACKEND names: its floor was recorded on that loop.
    _, loop_s, instructions = time_fig8(workloads, jobs=1, repeats=args.repeats,
                                        backend="python")
    measured_ips = instructions / loop_s
    floor = expected_ips / factor

    print(f"perf smoke: cycle loop {loop_s:.3f}s for {instructions} instructions")
    print(f"perf smoke: measured {measured_ips:,.0f} instr/s, "
          f"expected {expected_ips:,.0f} instr/s "
          f"(committed baseline {baseline_ips:,.0f}), floor {floor:,.0f} "
          f"(factor {factor:.2f}x)")
    if measured_ips < floor:
        print(f"perf smoke: FAIL — cycle loop is more than {factor:.2f}x "
              f"slower than the calibrated baseline expectation",
              file=sys.stderr)
        return 1

    failures = gate_backends(args, factor, local_calibration_s)
    if failures:
        return 1
    print("perf smoke: ok")
    return 0


def gate_backends(args, factor: float, local_calibration_s: float | None) -> int:
    """Gate each *available* backend against ``BENCH_backends.json``.

    The per-backend baselines come from ``benchmark_engine.py --backend
    all``; a backend that is unavailable on this runner (no C toolchain,
    ``REPRO_NO_CC=1``) is **skipped, not failed** — the toolchain-absent CI
    leg must pass on the python gate alone.  The ``python`` row is skipped
    too: the primary gate above already measured it.  Returns the number
    of failing backends.
    """
    from benchmark_engine import CALIBRATION_VERSION, calibrate, time_fig8
    from repro.uarch.backend import backend_names, get_backend

    backends_path = args.baseline.parent / "BENCH_backends.json"
    if not backends_path.exists():
        print("perf smoke: no BENCH_backends.json baseline; "
              "per-backend gates skipped")
        return 0
    payload = json.loads(backends_path.read_text())
    recorded = payload.get("calibration") or {}
    speed_ratio = 1.0
    if (recorded.get("version") == CALIBRATION_VERSION
            and recorded.get("seconds", 0) > 0):
        if local_calibration_s is None:
            local_calibration_s = calibrate(args.repeats)
        speed_ratio = recorded["seconds"] / local_calibration_s

    registered = set(backend_names())
    failures = 0
    for name, row in sorted(payload.get("backends", {}).items()):
        if name == "python":
            continue
        if not row.get("available"):
            print(f"perf smoke: backend {name}: no committed baseline "
                  f"measurement; skipped")
            continue
        if name not in registered or not get_backend(name).available():
            print(f"perf smoke: backend {name}: unavailable on this runner; "
                  f"skipped")
            continue
        _, loop_s, instructions = time_fig8(
            payload["workloads"], jobs=1, repeats=args.repeats, backend=name)
        measured = instructions / loop_s
        expected = row["instructions_per_second"] * speed_ratio
        floor = expected / factor
        print(f"perf smoke: backend {name}: measured {measured:,.0f} instr/s, "
              f"expected {expected:,.0f}, floor {floor:,.0f} "
              f"(factor {factor:.2f}x)")
        if measured < floor:
            print(f"perf smoke: FAIL — {name} backend is more than "
                  f"{factor:.2f}x slower than its calibrated baseline",
                  file=sys.stderr)
            failures += 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
