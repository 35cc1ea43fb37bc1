"""Bench: regenerate Fig. 5 (efficiency: DeFrag vs SiLo-like)."""

from repro.experiments.common import clear_memo
from repro.experiments.suite import run_experiment


def test_bench_fig5(benchmark, bench_config):
    def run():
        clear_memo()
        return run_experiment("fig5", bench_config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    kept_defrag = 1 - result.series["DeFrag"][-1]
    kept_silo = 1 - result.series["SiLo-Like"][-1]
    assert kept_defrag < kept_silo  # the paper's headline claim
