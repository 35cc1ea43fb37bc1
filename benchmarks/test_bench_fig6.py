"""Bench: regenerate Fig. 6 (restore read performance: DeFrag vs
DDFS-like)."""

from repro.experiments.suite import run_experiment


def test_bench_fig6(benchmark, bench_config):
    result = benchmark.pedantic(
        run_experiment, args=("fig6", bench_config), rounds=1, iterations=1
    )
    d, b = result.series["DeFrag MB/s"], result.series["DDFS MB/s"]
    n = len(d)
    assert sum(d[-n // 2 :]) > sum(b[-n // 2 :])
