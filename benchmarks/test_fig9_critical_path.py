"""Figure 9: critical-path breakdown (baseline vs CF+ME vs full RENO)."""

import pytest

from repro.harness import run_experiment
from benchmarks.conftest import CRITPATH_MEDIA_SUBSET, CRITPATH_SPEC_SUBSET


@pytest.mark.benchmark(group="figure9")
def test_figure9_specint(benchmark, save_report):
    report = benchmark.pedantic(
        run_experiment, args=("fig9",),
        kwargs={"suite": "specint", "workloads": CRITPATH_SPEC_SUBSET},
        rounds=1, iterations=1,
    )
    save_report(report, "fig9_specint.txt")
    for name in CRITPATH_SPEC_SUBSET:
        fractions = report.data[(name, "RENO")]
        assert abs(sum(fractions.values()) - 1.0) < 1e-9


@pytest.mark.benchmark(group="figure9")
def test_figure9_mediabench(benchmark, save_report):
    report = benchmark.pedantic(
        run_experiment, args=("fig9",),
        kwargs={"suite": "mediabench", "workloads": CRITPATH_MEDIA_SUBSET},
        rounds=1, iterations=1,
    )
    save_report(report, "fig9_mediabench.txt")
    # The paper: RENO shifts ALU criticality toward fetch criticality on
    # MediaBench.  Check the direction on the aggregate.
    base_alu = sum(report.data[(n, "BASE")]["alu_exec"] for n in CRITPATH_MEDIA_SUBSET)
    reno_alu = sum(report.data[(n, "RENO")]["alu_exec"] for n in CRITPATH_MEDIA_SUBSET)
    base_fetch = sum(report.data[(n, "BASE")]["fetch"] for n in CRITPATH_MEDIA_SUBSET)
    reno_fetch = sum(report.data[(n, "RENO")]["fetch"] for n in CRITPATH_MEDIA_SUBSET)
    assert reno_alu <= base_alu + 0.05
    assert reno_fetch >= base_fetch - 0.05
