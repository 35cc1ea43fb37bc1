"""Bench: the restore path — default reader vs FAA + read-ahead.

Times the fig6-small all-generation restore from the DDFS-Like layout
(the most fragmented store) and asserts the structural claims of the
restore subsystem: the forward assembly area plus read-ahead prices
several times fewer simulated positionings, and the measured wall-clock
stays within the committed 2x gate (``BENCH_restore.json``).
"""

from repro.bench import (
    GATES,
    check_restore_regression,
    load_record,
    measure_restore,
    restore_fixture,
)


def test_bench_restore_default(benchmark, bench_config):
    store, recipes = restore_fixture(bench_config)
    benchmark.pedantic(
        measure_restore,
        args=(store, recipes),
        kwargs={"repeats": 1},
        rounds=1,
        iterations=1,
    )


def test_faa_prices_fewer_sim_seeks(bench_config):
    store, recipes = restore_fixture(bench_config)
    default = measure_restore(store, recipes, repeats=1)
    assembled = measure_restore(
        store, recipes, repeats=1, faa_window=2048, readahead=True
    )
    assert assembled["sim_seeks"] * 1.5 <= default["sim_seeks"], (
        f"FAA + read-ahead should price >=1.5x fewer positionings, got "
        f"{default['sim_seeks']} -> {assembled['sim_seeks']}"
    )


def test_committed_gate_passes(bench_config):
    baseline = load_record(GATES["restore"].filename)
    assert baseline is not None, "BENCH_restore.json missing from repo root"
    store, recipes = restore_fixture(bench_config)
    measured = measure_restore(store, recipes, repeats=2)
    result = {"restore_seconds": measured["seconds"]}
    failure = check_restore_regression(result, baseline)
    assert failure is None, failure
