"""In-text results: §2.3 instruction mix, §3.3 fusion sensitivity, §4.4 IT cost."""

import pytest

from repro.harness import instruction_mix, run_experiment


@pytest.mark.benchmark(group="text")
def test_instruction_mix_both_suites(benchmark, suite_subsets, save_report):
    spec, media = suite_subsets

    def run():
        return (instruction_mix("specint", workloads=spec),
                instruction_mix("mediabench", workloads=media))

    spec_report, media_report = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(spec_report, "mix_specint.txt")
    save_report(media_report, "mix_mediabench.txt")
    # Paper: reg-imm additions are a surprisingly large fraction of the
    # dynamic stream (12% SPEC / 17% MediaBench); moves are ~4%.
    assert spec_report.data["amean"]["addis"] > 0.08
    assert media_report.data["amean"]["addis"] > 0.10
    assert 0.0 < spec_report.data["amean"]["moves"] < 0.15


@pytest.mark.benchmark(group="text")
def test_fusion_sensitivity(benchmark, suite_subsets, save_report):
    _, media = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("fusion",),
        kwargs={"suite": "mediabench", "workloads": media},
        rounds=1, iterations=1,
    )
    save_report(report, "fusion_sensitivity.txt")
    fast_mean = sum(entry["fast"] for entry in report.data.values()) / len(report.data)
    slow_mean = sum(entry["slow"] for entry in report.data.values()) / len(report.data)
    # Slower fusion can only reduce the benefit, and it must not turn RENO_CF
    # into a large slowdown.  (The paper's "only 20-25% of the benefit is
    # lost" claim is magnitude-sensitive and is discussed in EXPERIMENTS.md:
    # our kernels fuse a larger fraction of operations than SPEC/MediaBench,
    # so charging every fusion an extra cycle costs relatively more here.)
    assert slow_mean <= fast_mean + 0.01
    assert slow_mean > -0.05


@pytest.mark.benchmark(group="text")
def test_integration_table_cost(benchmark, suite_subsets, save_report):
    spec, _ = suite_subsets
    report = benchmark.pedantic(
        run_experiment, args=("it_cost",),
        kwargs={"suite": "specint", "workloads": spec},
        rounds=1, iterations=1,
    )
    save_report(report, "it_cost_specint.txt")
    saved = [entry["saved"] for entry in report.data.values()]
    # Paper: the loads-only division of labor cuts IT bandwidth by ~56%.
    assert sum(saved) / len(saved) > 0.3
