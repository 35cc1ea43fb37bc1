"""The bench gate table: every row against its committed record, its
pinned failure messages, a missing file, and both record forms; plus
``benchmarks/record.py`` writing a chosen subset of the rows.

Results are fabricated, so the checks run without measuring anything;
the record.py test measures for real at the small scale but stubs the
subprocess timings (the fig4 command and the reference checkout).
"""

import importlib.util
import json
import pathlib

import pytest

from repro.bench import (
    GATES,
    HISTORY_METRICS,
    check_gate,
    history_record,
    load_record,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


def committed(name):
    record = load_record(ROOT / GATES[name].filename)
    assert record is not None, f"{GATES[name].filename} missing from repo root"
    return record


def inner_form(name, baseline):
    """The record a check accepts in place of the file: the gate's own
    dict, or for memory (whose budget sits at the top) the bare budget."""
    if name == "memory":
        return {"budget_rss_mb": baseline["budget_rss_mb"]}
    return baseline[name]


# (gate, fabricated result, committed file form, pinned failure message)
FAILURES = [
    (
        "ingest",
        {"batch_seconds": 0.25},
        {"ingest": {"batch_seconds": 0.1}},
        "ingest wall-clock regressed: 0.250s vs committed 0.100s baseline (>2.0x)",
    ),
    (
        "restore",
        {"restore_seconds": 0.05},
        {"restore": {"restore_seconds": 0.02}},
        "restore wall-clock regressed: 0.050s vs committed 0.020s baseline (>2.0x)",
    ),
    (
        "chunking",
        {"seqcdc_seconds": 0.3, "seqcdc_mb_per_s": 60.0},
        {"chunking": {"seqcdc_seconds": 0.1, "exact_mb_per_s": 2.5}},
        "chunking wall-clock regressed: 0.300s vs committed 0.100s baseline (>2.0x)",
    ),
    (
        "chunking",
        {"seqcdc_seconds": 0.1, "seqcdc_mb_per_s": 10.0},
        {"chunking": {"seqcdc_seconds": 0.1, "exact_mb_per_s": 2.5}},
        "narrow-lane chunking at 10.0 MB/s is below 5x the committed "
        "exact-path rate (2.5 MB/s)",
    ),
    (
        "shard",
        {"one_shard_identical": False, "lookup_per_s": 1e6, "lookup_seconds": 0.1},
        {"shard": {"lookup_seconds": 0.1}},
        "1-shard ShardedChunkIndex diverged from the plain DiskChunkIndex "
        "(answers, stats, or simulated clock)",
    ),
    (
        "shard",
        {"one_shard_identical": True, "lookup_per_s": 1000.0, "lookup_seconds": 0.1},
        {"shard": {"lookup_seconds": 0.1}},
        "routed lookup throughput 1000/s is below the 50000/s floor",
    ),
    (
        "shard",
        {"one_shard_identical": True, "lookup_per_s": 1e6, "lookup_seconds": 0.3},
        {"shard": {"lookup_seconds": 0.1}},
        "sharded lookup wall-clock regressed: 0.300s vs committed 0.100s "
        "baseline (>2.0x)",
    ),
    (
        "memory",
        {"peak_rss_mb": 200.0},
        {"budget_rss_mb": 100.0, "memory": {"peak_rss_mb": 50.0}},
        "peak RSS 200.0 MB exceeds the committed budget 100.0 MB (BENCH_memory.json)",
    ),
    (
        "memory",
        {"peak_rss_mb": 0.0},
        {"budget_rss_mb": 100.0, "memory": {"peak_rss_mb": 50.0}},
        "peak RSS unmeasurable on this platform; cannot gate",
    ),
]


class TestTable:
    def test_rows(self):
        assert list(GATES) == ["ingest", "restore", "chunking", "shard", "memory"]
        assert [g.name for g in GATES.values() if g.opt_in] == ["memory"]
        assert [g.name for g in GATES.values() if g.tile] == [
            "ingest",
            "restore",
            "chunking",
        ]
        for name, gate in GATES.items():
            assert gate.filename == f"BENCH_{name}.json"

    def test_history_metrics_are_the_headlines(self):
        assert list(HISTORY_METRICS) == [
            "ingest_batch_seconds",
            "restore_seconds",
            "chunking_mb_per_s",
            "peak_rss_mb",
        ]

    def test_history_record_rejects_unknown_gate(self):
        with pytest.raises(TypeError):
            history_record(ingset={"batch_seconds": 0.1})


@pytest.mark.parametrize("name", list(GATES))
class TestEveryGate:
    def test_passes_its_committed_baseline(self, name):
        """The committed record's own numbers are in bounds."""
        baseline = committed(name)
        result = dict(baseline[name])
        status, line = check_gate(GATES[name], result, root=ROOT)
        assert status == "pass", line
        assert line.startswith("OK: ")
        assert GATES[name].check(result, inner_form(name, baseline)) is None

    def test_missing_file_skips(self, name, tmp_path):
        gate = GATES[name]
        assert check_gate(gate, {}, root=tmp_path) == (
            "skip",
            f"no committed {gate.filename} found; skipping {name} gate",
        )

    def test_baseline_round_trips_through_the_committed_shape(self, name):
        """``Gate.baseline`` builds a file with the committed top-level
        keys (minus the recording stamp and record.py's ingest extras)."""
        baseline = committed(name)
        built = GATES[name].baseline(dict(baseline[name]))
        extras = {"recorded_utc", "fig4_small_end_to_end", "reference"}
        assert set(built) == set(baseline) - extras


@pytest.mark.parametrize(
    "name, result, baseline, message",
    FAILURES,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(FAILURES)],
)
class TestFailureMessages:
    def test_check_gate_fails_with_pinned_message(
        self, name, result, baseline, message, tmp_path
    ):
        gate = GATES[name]
        (tmp_path / gate.filename).write_text(json.dumps(baseline))
        assert check_gate(gate, result, root=tmp_path) == ("fail", f"FAIL: {message}")

    def test_wrapped_and_inner_forms_agree(self, name, result, baseline, message):
        check = GATES[name].check
        assert check(result, baseline) == message
        assert check(result, inner_form(name, baseline)) == message


def test_record_writes_only_the_named_gates(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "benchmarks" / "record.py"
    )
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    monkeypatch.setattr(record, "time_command", lambda *args, **kwargs: 1.0)
    monkeypatch.setattr(record, "time_workload_in", lambda *args, **kwargs: 1.0)
    history = tmp_path / "history.jsonl"
    out = tmp_path / "out"
    argv = ["--repeats", "1", "--out-dir", str(out), "--only", "ingest", "restore"]
    argv += ["--reference-src", str(ROOT / "src")]
    argv += ["--append-history", "--history-out", str(history)]
    assert record.main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "BENCH_ingest.json",
        "BENCH_restore.json",
    ]
    for name in ("ingest", "restore"):
        written = json.loads((out / GATES[name].filename).read_text())
        assert list(written) == list(committed(name))
    (line,) = [json.loads(text) for text in history.read_text().splitlines()]
    assert line["ingest_batch_seconds"] > 0 and line["restore_seconds"] > 0
    assert "chunking_mb_per_s" not in line
