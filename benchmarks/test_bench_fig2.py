"""Bench: regenerate Fig. 2 (DDFS-like throughput decay)."""

from repro.experiments.suite import run_experiment


def test_bench_fig2(benchmark, bench_config):
    result = benchmark.pedantic(
        run_experiment, args=("fig2", bench_config), rounds=1, iterations=1
    )
    thr = result.series["MB/s"]
    assert len(thr) == bench_config.n_generations
    # the paper's claim: decay with generations
    assert sum(thr[-3:]) / 3 < max(thr[:4])
