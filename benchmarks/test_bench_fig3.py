"""Bench: regenerate Fig. 3 (SiLo-like efficiency degradation)."""

from repro.experiments.suite import run_experiment


def test_bench_fig3(benchmark, bench_config):
    result = benchmark.pedantic(
        run_experiment, args=("fig3", bench_config), rounds=1, iterations=1
    )
    cum = result.series["cumulative"]
    assert cum[-1] < 1.0  # redundancy is being missed
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in result.series["efficiency"])
