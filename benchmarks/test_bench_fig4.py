"""Bench: regenerate Fig. 4 (throughput: DeFrag vs DDFS-like vs
SiLo-like)."""

from repro.experiments.common import clear_memo
from repro.experiments.suite import run_experiment


def test_bench_fig4(benchmark, bench_config):
    def run():
        clear_memo()  # measure the full three-engine simulation
        return run_experiment("fig4", bench_config)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    d, b = result.series["DeFrag"], result.series["DDFS-Like"]
    n = len(d)
    assert sum(d[-n // 3 :]) > sum(b[-n // 3 :])  # DeFrag above DDFS late
    assert sum(result.series["SiLo-Like"]) > sum(b)  # SiLo above DDFS
