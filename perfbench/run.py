"""Wall-clock benchmark of the ``repro`` deduplication library.

Run from the repository root::

    python3 perfbench/run.py --workload group-ingest --seed 1 --seconds 20 --trace 0

The command sets the workload up from ``--seed`` several times (reporting
the median as ``setup_s``), then replays it in passes on fresh resources
until ``--seconds`` of passes have run. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics. Report lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed correctness check,
or deterministic counters that differ between passes, make it exit 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import List

# one process, no helper threads in numeric libraries
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: untraced replays of the workload per run, at least; each timed call's
#: time is the median of its replays
MIN_PASSES = 3
#: set-ups timed before every pass; setup_s is the median of all of them
SETUPS_PER_PASS = 2
MIB = 1 << 20


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    ``repro`` package really comes from there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"perfbench: repro was imported from {origin}, not from {src}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Scale:
    """Wall seconds as measured (``speed=None``) or scaled to the
    reference host by the probe that covers them (``speed.py``)."""

    def __init__(self, speed: "Speedometer | None") -> None:
        self.speed = speed

    def __call__(self, seconds: float, probe: int) -> float:
        return seconds if self.speed is None else self.speed.scale(seconds, probe)

    def ops(self, passes, kind: str) -> List[float]:
        """Per timed call of ``kind``, the median over its replays."""
        per_pass = [[self(w, i) for w, i in zip(r.wall[kind], r.probe_at[kind])]
                    for r in passes]
        return [statistics.median(times) for times in zip(*per_pass)]

    def segments(self, passes) -> List[float]:
        """Per ``process_segment`` call, the median over its replays,
        scaled by the probe that covers the segment's backup."""
        per_pass = [[self(s, r.probe_at["backup"][b])
                     for s, b in zip(r.segment_s, r.segment_backup)] for r in passes]
        return [statistics.median(times) for times in zip(*per_pass)]

    def timed_s(self, passes) -> float:
        """Seconds of timed calls in one replay of the workload."""
        return sum(sum(self.ops(passes, kind)) for kind in ("backup", "restore", "gc"))


def end_to_end(passes, setups, scale: Scale):
    """``name -> (value, unit, samples)`` for every end-to-end metric."""
    backup = scale.ops(passes, "backup")
    segment = scale.segments(passes)
    restore = scale.ops(passes, "restore")
    gc = scale.ops(passes, "gc")
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    metrics = {
        "setup_s": (statistics.median(scale(w, p) for w, p in setups), "s", len(setups)),
        "ingest_mib_per_s": (first.ingest_bytes / MIB / sum(backup), "MiB/s", len(backup)),
        "backup_s.p50": (statistics.median(backup), "s", len(backup)),
        "segment_ms.p50": (statistics.median(segment) * 1e3, "ms", len(segment)),
        "segment_ms.p99": (percentile(segment, 99) * 1e3, "ms", len(segment)),
        "restore_mib_per_s": (first.restore_bytes / MIB / sum(restore), "MiB/s",
                              len(restore)),
        "restore_ms.p50": (statistics.median(restore) * 1e3, "ms", len(restore)),
        "restore_ms.p90": (percentile(restore, 90) * 1e3, "ms", len(restore)),
        "gc_s": (sum(gc), "s", len(gc)) if gc else None,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "error_rate": (sum(p.failed_ops for p in passes) / attempted, "ratio", attempted),
        "sim_ingest_mb_per_s": (first.ingest_bytes / 1e6 / first.sim_ingest_s, "MB/s", 1),
        "sim_restore_mb_per_s": (first.restore_bytes / 1e6 / first.sim_restore_s, "MB/s", 1),
        "dedup_efficiency": (
            first.removed_dup_bytes / first.true_dup_bytes
            if first.true_dup_bytes else 1.0, "ratio", 1),
        "stored_per_logical": (first.stored_bytes / first.ingest_bytes, "ratio", 1),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def per_layer(traced, untraced, totals, scale: Scale, e2e):
    """``name -> (value, unit, samples)`` for every per-layer metric.

    A layer's time is its self time in one traced pass, scaled to the
    reference host by the factor that scaled the pass's timed calls as a
    whole, median over traced passes; counts come from the first pass's
    deterministic counters."""
    n = len(traced)
    factor = [scale.timed_s([r]) / Scale(None).timed_s([r]) for r in traced]

    def layer_s(layer):
        return statistics.median(
            t.get(layer, (0.0, 0))[0] * f for t, f in zip(totals, factor))

    def calls(layer):
        return totals[0].get(layer, (0.0, 0))[1]

    c = untraced[0].counters
    scan_in = c.get("chunking.bytes_in", 0)
    lookups = c.get("cache.lookups", 0)
    return {
        "chunking.cdc_s": (layer_s("chunking.cdc"), "s", n),
        "chunking.fingerprint_s": (layer_s("chunking.fingerprint"), "s", n),
        "chunking.scan_fraction": (
            c.get("chunking.scan_bytes", 0) / scan_in if scan_in else 0.0, "ratio", 1),
        "segmenting.s": (layer_s("segmenting"), "s", n),
        "dedup.self_s": (layer_s("dedup"), "s", n),
        "index.cache.s": (layer_s("index.cache"), "s", n),
        "index.cache.calls": (calls("index.cache"), "count", 1),
        "index.cache.hit_rate": (c.get("cache.hits", 0) / lookups if lookups else 0.0,
                                 "ratio", 1),
        "index.cache.units_evicted": (c.get("cache.units_evicted", 0), "count", 1),
        "index.bloom.s": (layer_s("index.bloom"), "s", n),
        "index.bloom.calls": (calls("index.bloom"), "count", 1),
        "index.similarity.s": (layer_s("index.similarity"), "s", n),
        "index.disk.s": (layer_s("index.disk"), "s", n),
        "index.disk.lookups": (c.get("index.lookups", 0), "count", 1),
        "index.disk.page_faults": (c.get("index.page_faults", 0), "count", 1),
        "sharding.s": (layer_s("sharding"), "s", n),
        "sharding.fill_balance": (
            c.get("sharding.fill_balance_ppm", 1_000_000) / 1e6, "ratio", 1),
        "storage.s": (layer_s("storage"), "s", n),
        "storage.containers_sealed": (c.get("store.containers_sealed", 0), "count", 1),
        "storage.spill_faults": (
            c.get("spill.faults", 0) - c.get("check.spill_faults", 0), "count", 1),
        "storage.bytes_faulted": (
            c.get("spill.bytes_faulted", 0) - c.get("check.bytes_faulted", 0), "bytes", 1),
        "gc.s": (layer_s("gc"), "s", n),
        "gc.containers_collected": (c.get("gc.containers_collected", 0), "count", 1),
        "gc.bytes_moved": (c.get("gc.bytes_moved", 0), "bytes", 1),
        "restore.s": (layer_s("restore"), "s", n),
        "restore.container_reads": (c.get("reader.container_reads", 0), "count", 1),
        "restore.seeks": (c.get("reader.seeks", 0), "count", 1),
        "restore.cache_hits": (c.get("reader.cache_hits", 0), "count", 1),
        # segment percentiles of untraced passes: they move with the seed
        # more than a gate allows (perfbench/README.md, Metrics)
        "segment_ms.p50": e2e["segment_ms.p50"],
        "segment_ms.p99": e2e["segment_ms.p99"],
        "restore_ms.p90": e2e["restore_ms.p90"],
        "trace.overhead": (scale.timed_s(traced) / scale.timed_s(untraced), "ratio", n),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from speed import REFERENCE_S, Speedometer
    from tracer import UNATTRIBUTED, SpanRecorder
    from workloads import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    catalog = workloads(str(out_dir))
    workload = catalog.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(catalog)}")

    speed = Speedometer()
    setups, untraced, traced, totals = [], [], [], []
    recorder = SpanRecorder() if args.trace else None
    started = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed)
            setups.append((time.perf_counter() - t0, speed.probe()))
        # a traced run alternates untraced and traced passes
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        first = len(recorder) if trace_this else 0
        result = workload.run_pass(inputs, speed, recorder if trace_this else None)
        if trace_this:
            traced.append(result)
            totals.append(recorder.layer_totals(first))
        else:
            untraced.append(result)
        done = traced if args.trace else len(untraced) >= MIN_PASSES
        if done and time.perf_counter() - started >= args.seconds:
            break
    speed.probe()  # covers the last operations

    passes = untraced + traced
    errors = [e for p in passes for e in p.errors]
    failed = sum(p.failed_ops for p in passes)
    reference = passes[0].deterministic()
    for i, p in enumerate(passes[1:], start=2):
        record = p.deterministic()
        if record != reference:
            diff = sorted(k for k in record.keys() | reference.keys()
                          if record.get(k) != reference.get(k))
            errors.append(f"pass {i}: deterministic record differs from pass 1: {diff}")
            failed += 1
    attempted = sum(p.attempted for p in passes)

    print(f"# perfbench {workload.name} seed={args.seed} passes={len(untraced)} "
          f"traced={len(traced)}: closed loop, 1 client, 1 process")
    print(f"# why: {workload.why}")
    for note in workload.notes:
        print(f"# {note}")
    scale = Scale(speed)
    print(f"# host speed: reference kernel {min(speed.probes) * 1e3:.3f} ms fastest, "
          f"{statistics.median(speed.probes) * 1e3:.3f} ms median over "
          f"{len(speed.probes)} probes; 'value' is scaled to a host that runs it in "
          f"{REFERENCE_S * 1e3:g} ms, 'raw' is wall clock as measured "
          f"(perfbench/README.md, Noise)")
    e2e = end_to_end(untraced, setups, scale)
    raw = end_to_end(untraced, setups, Scale(None))
    print(f"{'metric':<28} {'value':>16} {'raw':>16} {'unit':<7} samples")
    for name, (value, unit, n) in e2e.items():
        print(f"{name:<28} {value:>16.6g} {raw[name][0]:>16.6g} {unit:<7} {n}")
    if args.trace:
        layers = per_layer(traced, untraced, totals, scale, e2e)
        print("# per-layer self time per traced pass (perf_counter_ns spans); "
              + UNATTRIBUTED)
        for name, (value, unit, n) in layers.items():
            print(f"{name:<28} {value:>16.6g} {unit:<7} {n}")
        recorder.save(str(out_dir / f"trace-{workload.name}-seed{args.seed}.npz"))
    print("# deterministic record (repeats exactly at one seed):")
    for key, value in reference.items():
        print(f"#   {key} = {value}")
    for error in errors[:50]:
        print(f"# ERROR {error}")

    names = _declared(args.trace)
    source = layers if args.trace else e2e
    metrics = {name: {"value": source[name][0], "unit": source[name][1]} for name in names}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def _declared(trace: int):
    """The metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
