"""Wall-clock benchmarks and their committed gates.

The simulator's *reported* numbers are simulated time and cannot change
with Python-level optimizations; this module tracks the one thing that
does change — how long the simulator itself takes to run. Every gate is
one row of :data:`GATES`: its name, its committed file
(``BENCH_<name>.json`` at the repo root), the function that measures
it, the check against the committed record, the line printed when it
holds, and the fields it contributes to a perf-history line. The rows
measure

* ``ingest`` — the fig4 three-engine group workload at the ``small``
  scale through both ingest paths (the vectorized batch default and the
  chunk-at-a-time scalar reference),
* ``restore`` — the fig6 all-generation restore from a pre-ingested
  DDFS-Like store (the most fragmented layout) through the default
  reader and the FAA + read-ahead reader,
* ``chunking`` — byte-level CDC over a fixed random buffer through the
  Gear narrow-lane default path and the exact 64-pass reference sweep
  (plus the batch fingerprint fold); double-sided: the fast path must
  stay within 2x of its own committed time *and* at least 5x faster
  than the committed exact-path rate,
* ``shard`` — 1-shard byte-identity and routed N-shard lookup
  throughput of the sharded index, and
* ``memory`` — peak RSS of the out-of-core pipeline against an absolute
  budget (opt-in: ``repro bench --memory``).

``python -m repro bench``, ``benchmarks/record.py`` and ``repro dash``
all loop over the table, so adding a gate means adding a row.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from repro.experiments.common import clear_memo, run_group_workload
from repro.experiments.config import ExperimentConfig
from repro.memory import check_memory_gate

#: absolute floor on routed N-shard batched-lookup throughput
#: (fingerprints resolved per wall-clock second); the committed
#: baseline can raise it but the gate never accepts less than this
SHARD_LOOKUP_FLOOR_PER_S = 50_000.0

#: scale the committed memory budget is measured at
MEMORY_SCALE = "xlarge"

#: committed budget_rss_mb = measured peak RSS x this factor: generous
#: enough for allocator/platform variance, tight enough that an
#: unbounded store blows through it
MEMORY_HEADROOM = 2.0

#: append-only perf trajectory: one compact JSON line per recorded run
#: (grown by ``benchmarks/record.py --append-history``, plotted by
#: ``repro dash``, annotated by ``repro bench``)
HISTORY_FILENAME = "BENCH_history.jsonl"

#: relative change below this reads as noise, not drift
DRIFT_EPSILON = 0.02

#: a fresh measurement this many times slower than the committed
#: baseline's batch time fails the bench gate (2x absorbs machine noise;
#: a de-vectorized ingest path is ~8x)
REGRESSION_FACTOR = 2.0

#: the narrow-lane chunking path must stay at least this many times
#: faster (MB/s) than the committed exact-path baseline — the point of
#: the fast path; falling below it means the lane evaluation broke
CHUNKING_SPEEDUP_FLOOR = 5.0


def measure_ingest(
    config: Optional[ExperimentConfig] = None,
    *,
    batch: bool = True,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` wall-clock seconds for the three-engine group
    ingest (the body of fig4), memo cleared per repetition."""
    cfg = (config or ExperimentConfig.small()).with_(batch=batch)
    best = float("inf")
    for _ in range(max(1, repeats)):
        clear_memo()
        t0 = time.perf_counter()
        run_group_workload(cfg)
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
    clear_memo()
    return best


#: maintenance-phase engines measured as advisory bench rows; the
#: regression gates stay keyed to the classic engines above
MAINTENANCE_BENCH_ENGINES = ("RevDedup", "Hybrid")


def measure_maintenance_ingest(
    name: str,
    config: Optional[ExperimentConfig] = None,
    *,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` wall-clock seconds ingesting the author
    workload through one maintenance-capable engine with its out-of-line
    pass driven after every generation. Advisory — not gated."""
    from repro.api import create_engine, create_resources
    from repro.dedup.pipeline import run_workload_with_maintenance
    from repro.experiments.common import paper_segmenter
    from repro.workloads.generators import author_fs_20_full

    cfg = config or ExperimentConfig.small()
    best = float("inf")
    for _ in range(max(1, repeats)):
        res = create_resources(cfg)
        engine = create_engine(name, cfg, res)
        jobs = author_fs_20_full(
            fs_bytes=cfg.fs_bytes,
            seed=cfg.seed,
            n_generations=cfg.n_generations,
            churn=cfg.churn_full,
        )
        t0 = time.perf_counter()
        run_workload_with_maintenance(engine, jobs, paper_segmenter())
        best = min(best, time.perf_counter() - t0)
    return best


def measure_phases(config: Optional[ExperimentConfig] = None) -> Dict[str, float]:
    """One *untimed* observability-enabled run of the same workload: the
    per-engine per-phase *simulated*-seconds breakdown. Kept separate
    from :func:`measure_ingest` so the gated wall-clock numbers are
    always measured with observability off."""
    from repro.obs import Observability, Span, obs_session

    cfg = config or ExperimentConfig.small()
    clear_memo()
    try:
        with obs_session(Observability()) as obs:
            run_group_workload(cfg)
    finally:
        clear_memo()
    return {
        span.name: round(span.sim_seconds, 4)
        for span in obs.registry.by_kind(Span)
        if ".phase." in span.name
    }


def measure_parallel(
    config: Optional[ExperimentConfig] = None,
    *,
    jobs: int = 2,
    repeats: int = 3,
) -> float:
    """Best-of wall-clock seconds for the same three-engine group ingest
    decomposed into per-engine cells and run with ``jobs`` workers (the
    ``repro.parallel`` grid path, obs off)."""
    from repro.experiments.fig4 import cells
    from repro.parallel import run_grid

    cfg = (config or ExperimentConfig.small()).with_(batch=True)
    best = float("inf")
    for _ in range(max(1, repeats)):
        clear_memo()
        t0 = time.perf_counter()
        run_grid(cells(cfg), jobs=jobs)
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
    clear_memo()
    return best


def run_bench(
    *, repeats: int = 3, scalar: bool = True, jobs: Optional[int] = None
) -> Dict:
    """Measure the ingest path and return the result record.

    Args:
        repeats: repetitions per measurement (best-of wins).
        scalar: also measure the scalar reference path (slower; the
            ``--quick`` CLI mode skips it).
        jobs: when set (> 1), also measure the parallel grid path with
            that many workers and record the speedup over the serial
            batch measurement.
    """
    config = ExperimentConfig.small()
    result: Dict = {
        "benchmark": "fig4-small group ingest (DeFrag, DDFS-Like, SiLo-Like)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "batch_seconds": round(measure_ingest(config, batch=True, repeats=repeats), 4),
    }
    if scalar:
        result["scalar_seconds"] = round(
            measure_ingest(config, batch=False, repeats=repeats), 4
        )
        result["speedup"] = round(result["scalar_seconds"] / result["batch_seconds"], 2)
    if jobs is not None and jobs > 1:
        result["parallel_jobs"] = jobs
        result["parallel_seconds"] = round(
            measure_parallel(config, jobs=jobs, repeats=repeats), 4
        )
        result["parallel_speedup"] = round(
            result["batch_seconds"] / result["parallel_seconds"], 2
        )
    result["maintenance_engines"] = {
        name: round(measure_maintenance_ingest(name, config, repeats=repeats), 4)
        for name in MAINTENANCE_BENCH_ENGINES
    }
    result["phase_seconds"] = measure_phases(config)
    result["manifest"] = _bench_manifest()
    return result


def _bench_manifest() -> Dict:
    """Provenance block every bench record carries (no wall clock — the
    enclosing record already stamps ``recorded_utc`` where it matters)."""
    from repro.obs.manifest import build_manifest

    return build_manifest(wall_clock=False).as_dict()


def chunking_fixture(nbytes: int = 8 * 1024 * 1024, seed: int = 2012) -> bytes:
    """Deterministic random buffer for the chunking measurements."""
    from repro._util import rng_from

    rng = rng_from(seed, "bench-chunking")
    return rng.integers(0, 256, size=int(nbytes), dtype="uint8").tobytes()


def measure_chunking(
    data: bytes, *, exact: bool = False, repeats: int = 3
) -> Dict:
    """Best-of-``repeats`` wall-clock seconds cutting ``data`` with the
    Gear chunker (narrow-lane default path, or the exact 64-pass
    reference sweep when ``exact``), plus the cut count and the
    scanned-byte fraction."""
    from repro.chunking.gear import GearChunker

    chunker = GearChunker(exact=exact)
    best = float("inf")
    boundaries = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        boundaries = chunker.cut_boundaries(data)
        best = min(best, time.perf_counter() - t0)
    stats = chunker.last_stats
    assert boundaries is not None and stats is not None
    return {
        "seconds": best,
        "mb_per_s": (len(data) / 1e6) / best,
        "n_chunks": len(boundaries) - 1,
        "scan_fraction": stats.scan_bytes / max(stats.bytes_in, 1),
    }


def run_chunking_bench(
    *, repeats: int = 3, exact: bool = True, nbytes: int = 8 * 1024 * 1024
) -> Dict:
    """Measure the byte-level chunking path and return the result record.

    Args:
        repeats: repetitions per measurement (best-of wins).
        exact: also measure the exact 64-pass reference sweep (slow; the
            ``--quick`` CLI mode skips it — the gate compares against
            the *committed* exact baseline either way).
        nbytes: buffer size; stays fixed so records are comparable.
    """
    from repro.chunking.fingerprint import fingerprint_segments_fast
    from repro.chunking.gear import GearChunker

    data = chunking_fixture(nbytes)
    fast = measure_chunking(data, exact=False, repeats=repeats)
    result: Dict = {
        "benchmark": f"gear CDC over a {nbytes // (1024 * 1024)} MiB random buffer",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "nbytes": nbytes,
        "seqcdc_seconds": round(fast["seconds"], 4),
        "seqcdc_mb_per_s": round(fast["mb_per_s"], 1),
        "n_chunks": fast["n_chunks"],
        "scan_fraction": round(fast["scan_fraction"], 4),
    }
    if exact:
        ref = measure_chunking(data, exact=True, repeats=repeats)
        result["exact_seconds"] = round(ref["seconds"], 4)
        result["exact_mb_per_s"] = round(ref["mb_per_s"], 1)
        result["speedup"] = round(fast["mb_per_s"] / ref["mb_per_s"], 2)
        result["identical_cuts"] = bool(
            (
                GearChunker().cut_boundaries(data)
                == GearChunker(exact=True).cut_boundaries(data)
            ).all()
        )
    boundaries = GearChunker().cut_boundaries(data)
    t0 = time.perf_counter()
    fingerprint_segments_fast(data, boundaries)
    result["fingerprint_mb_per_s"] = round(
        (len(data) / 1e6) / (time.perf_counter() - t0), 1
    )
    result["manifest"] = _bench_manifest()
    return result


def check_chunking_regression(
    result: Dict,
    baseline: Dict,
    factor: float = REGRESSION_FACTOR,
    speedup_floor: float = CHUNKING_SPEEDUP_FLOOR,
) -> Optional[str]:
    """None if the chunking measurement holds both gates, else a
    human-readable failure message.

    Gate 1 (regression): fresh narrow-lane time within ``factor`` of
    the committed fast-path time (the ``seqcdc_*`` keys, named for the
    path they first recorded). Gate 2 (structure): fresh narrow-lane
    MB/s at least ``speedup_floor`` times the *committed* exact-path
    MB/s — the fast path's reason to exist.
    """
    rec = baseline.get("chunking", baseline)
    base = rec.get("seqcdc_seconds")
    now = result["seqcdc_seconds"]
    if base is not None and now > factor * base:
        return (
            f"chunking wall-clock regressed: {now:.3f}s vs committed "
            f"{base:.3f}s baseline (>{factor:.1f}x)"
        )
    exact_rate = rec.get("exact_mb_per_s")
    if exact_rate is not None:
        rate = result["seqcdc_mb_per_s"]
        if rate < speedup_floor * exact_rate:
            return (
                f"narrow-lane chunking at {rate:.1f} MB/s is below "
                f"{speedup_floor:.0f}x the committed exact-path rate "
                f"({exact_rate:.1f} MB/s)"
            )
    return None


def restore_fixture(
    config: Optional[ExperimentConfig] = None, engine: str = "DDFS-Like"
):
    """Ingest the fig6 author workload through ``engine`` once; returns
    ``(store, recipes)`` for the restore measurements (ingest cost is
    deliberately outside the timed region). Maintenance-capable engines
    get their out-of-line pass driven per generation, so the recipes
    reflect the post-maintenance layout."""
    from repro.api import create_engine, create_resources, engine_info
    from repro.dedup.pipeline import run_workload, run_workload_with_maintenance
    from repro.experiments.common import paper_segmenter
    from repro.workloads.generators import author_fs_20_full

    cfg = config or ExperimentConfig.small()
    res = create_resources(cfg)
    eng = create_engine(engine, cfg, res)
    jobs = author_fs_20_full(
        fs_bytes=cfg.fs_bytes,
        seed=cfg.seed,
        n_generations=cfg.n_generations,
        churn=cfg.churn_full,
    )
    driver = (
        run_workload_with_maintenance
        if engine_info(engine).supports_maintenance
        else run_workload
    )
    reports = driver(eng, jobs, paper_segmenter())
    return res.store, [r.recipe for r in reports]


def measure_restore(
    store,
    recipes,
    *,
    repeats: int = 3,
    passes: int = 20,
    policy: str = "lru",
    faa_window: int = 0,
    readahead: bool = False,
) -> Dict:
    """Best-of-``repeats`` wall-clock seconds restoring every generation
    ``passes`` times from a pre-ingested store, plus the simulated seek
    total of one pass — the restore analogue of :func:`measure_ingest`.

    A single all-generation restore at the small scale is ~1 ms, far too
    small for a stable 2x gate; ``passes`` inflates the timed region
    into tens of milliseconds without changing what is measured (each
    restore builds a fresh client cache, so passes are independent).
    """
    from repro.restore.reader import RestoreReader

    passes = max(1, passes)
    best = float("inf")
    seeks = 0
    for _ in range(max(1, repeats)):
        reader = RestoreReader(
            store, policy=policy, faa_window=faa_window, readahead=readahead
        )
        t0 = time.perf_counter()
        for _ in range(passes):
            for recipe in recipes:
                reader.restore(recipe)
        best = min(best, time.perf_counter() - t0)
        seeks = reader.stats.seeks // passes
    return {"seconds": best, "sim_seeks": seeks}


def run_restore_bench(*, repeats: int = 3, faa: bool = True) -> Dict:
    """Measure the restore path and return the result record.

    Args:
        repeats: repetitions per measurement (best-of wins).
        faa: also measure the FAA + read-ahead reader (the ``--quick``
            CLI mode skips it).
    """
    config = ExperimentConfig.small()
    store, recipes = restore_fixture(config)
    default = measure_restore(store, recipes, repeats=repeats)
    result: Dict = {
        "benchmark": "fig6-small DDFS-Like all-generation restore",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "restore_seconds": round(default["seconds"], 4),
        "sim_seeks": default["sim_seeks"],
    }
    if faa:
        assembled = measure_restore(
            store,
            recipes,
            repeats=repeats,
            faa_window=2048,
            readahead=True,
        )
        result["faa_seconds"] = round(assembled["seconds"], 4)
        result["faa_sim_seeks"] = assembled["sim_seeks"]
        result["sim_seek_reduction"] = round(
            default["sim_seeks"] / max(assembled["sim_seeks"], 1), 2
        )
    result["maintenance_restore"] = {}
    for name in MAINTENANCE_BENCH_ENGINES:
        m_store, m_recipes = restore_fixture(config, engine=name)
        measured = measure_restore(m_store, m_recipes, repeats=repeats)
        result["maintenance_restore"][name] = {
            "restore_seconds": round(measured["seconds"], 4),
            "sim_seeks": measured["sim_seeks"],
        }
    result["manifest"] = _bench_manifest()
    return result


def check_restore_regression(
    result: Dict, baseline: Dict, factor: float = REGRESSION_FACTOR
) -> Optional[str]:
    """None if ``result`` is within ``factor`` of the baseline's restore
    time, else a human-readable failure message."""
    base = baseline.get("restore", baseline).get("restore_seconds")
    if base is None:
        return None
    now = result["restore_seconds"]
    if now > factor * base:
        return (
            f"restore wall-clock regressed: {now:.3f}s vs committed "
            f"{base:.3f}s baseline (>{factor:.1f}x)"
        )
    return None


# -- bounded-RSS memory bench ------------------------------------------------


def run_memory_bench(
    scale: str = MEMORY_SCALE,
    *,
    generations: Optional[int] = None,
    resident_containers: Optional[int] = None,
    timeout_s: float = 3600.0,
) -> Dict:
    """Run the out-of-core probe in a **fresh subprocess** and return its
    record (the dict ``python -m repro.memory`` prints).

    A subprocess is load-bearing, not a convenience: ``ru_maxrss`` is a
    process-lifetime high-water mark, so measuring in-process would
    report whatever the parent had already allocated (other benches,
    memoized workloads) instead of the out-of-core pipeline's footprint.
    """
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "repro.memory", "--scale", scale]
    if resident_containers is not None:
        cmd += ["--resident-containers", str(int(resident_containers))]
    if generations is not None:
        cmd += ["--generations", str(int(generations))]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout_s
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"memory probe failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    record = json.loads(proc.stdout)
    record["manifest"] = _bench_manifest()
    return record


def run_shard_bench(
    *,
    repeats: int = 3,
    n_shards: int = 4,
    n_entries: int = 50_000,
    batch: int = 4096,
) -> Dict:
    """Measure the sharded index and return the result record.

    Two halves, matching the two halves of the gate:

    * **identity** — a deterministic mixed lookup/insert workload is
      driven through a plain ``DiskChunkIndex`` and a 1-shard
      ``ShardedChunkIndex`` built with identical parameters; answers,
      stats, and the simulated clock must match exactly
      (``one_shard_identical``).
    * **throughput** — ``n_entries`` fingerprints are inserted into an
      ``n_shards``-shard index, then resolved in ``batch``-sized
      ``lookup_many`` calls (half hits, half misses); best-of
      ``repeats`` wall-clock gives ``lookup_per_s``.
    """
    from repro._util.rng import rng_from
    from repro.index.full_index import ChunkLocation, DiskChunkIndex
    from repro.sharding import ShardedChunkIndex
    from repro.storage.disk import DiskModel

    config = ExperimentConfig.small()

    # -- identity half ---------------------------------------------------
    rng = rng_from(2012, "shard-bench")
    fps = [int(x) for x in rng.integers(1, 1 << 60, size=4096)]

    def drive(index) -> tuple:
        answers = []
        for i in range(0, len(fps), 256):
            chunk = fps[i : i + 256]
            answers.append(
                [loc is not None for loc in index.lookup_many(chunk)]
            )
            index.insert_many(
                chunk, [ChunkLocation(i % 7, j) for j in range(len(chunk))]
            )
            index.flush()
        answers.append([loc is not None for loc in index.lookup_many(fps)])
        return answers, dict(vars(index.stats)), index.disk.stats.total_time_s

    plain = drive(DiskChunkIndex(DiskModel(profile=config.disk), expected_entries=n_entries))
    one = drive(
        ShardedChunkIndex.create(
            DiskModel(profile=config.disk), n_shards=1, expected_entries=n_entries
        )
    )
    one_shard_identical = plain == one

    # -- throughput half -------------------------------------------------
    sharded = ShardedChunkIndex.create(
        DiskModel(profile=config.disk),
        n_shards=n_shards,
        expected_entries=n_entries,
    )
    rng = rng_from(2012, "shard-bench-load")
    load = [int(x) for x in rng.integers(1, 1 << 60, size=n_entries)]
    for i in range(0, n_entries, batch):
        chunk = load[i : i + batch]
        sharded.insert_many(chunk, [ChunkLocation(0, j) for j in range(len(chunk))])
    sharded.flush()
    probes = load[: n_entries // 2] + [
        int(x) for x in rng.integers(1 << 61, 1 << 62, size=n_entries // 2)
    ]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        hits = 0
        for i in range(0, len(probes), batch):
            for loc in sharded.lookup_many(probes[i : i + batch]):
                if loc is not None:
                    hits += 1
        best = min(best, time.perf_counter() - t0)
    assert hits == n_entries // 2

    return {
        "benchmark": f"{n_shards}-shard routed index, {n_entries} entries",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "n_shards": n_shards,
        "n_entries": n_entries,
        "batch": batch,
        "one_shard_identical": bool(one_shard_identical),
        "lookup_seconds": round(best, 4),
        "lookup_per_s": round(len(probes) / best, 1),
        "fill_balance": round(
            sharded.router.fill_balance(sharded.shard_fill()), 4
        ),
        "manifest": _bench_manifest(),
    }


def check_shard_regression(
    result: Dict,
    baseline: Dict,
    factor: float = REGRESSION_FACTOR,
    floor: float = SHARD_LOOKUP_FLOOR_PER_S,
) -> Optional[str]:
    """None if the shard measurement holds all three gates, else a
    failure message.

    Gate 1 (identity): the 1-shard wrapper must be byte-identical to
    the plain index — answers, stats, and simulated clock. Gate 2
    (floor): routed lookup throughput must clear the absolute
    ``floor`` (the baseline may pin a higher one). Gate 3 (regression):
    lookup wall-clock within ``factor`` of the committed baseline.
    """
    if not result.get("one_shard_identical", False):
        return (
            "1-shard ShardedChunkIndex diverged from the plain "
            "DiskChunkIndex (answers, stats, or simulated clock)"
        )
    rec = baseline.get("shard", baseline)
    floor = max(floor, float(rec.get("lookup_floor_per_s", 0.0)))
    rate = float(result["lookup_per_s"])
    if rate < floor:
        return (
            f"routed lookup throughput {rate:.0f}/s is below the "
            f"{floor:.0f}/s floor"
        )
    base = rec.get("lookup_seconds")
    now = result["lookup_seconds"]
    if base is not None and now > factor * base:
        return (
            f"sharded lookup wall-clock regressed: {now:.3f}s vs "
            f"committed {base:.3f}s baseline (>{factor:.1f}x)"
        )
    return None


def reference_summary(baseline: Dict) -> str:
    """One line describing the committed baseline's reference
    measurement, or a warning when the baseline predates the reference
    block (older records lack it; that's not an error)."""
    ref = baseline.get("reference")
    if not isinstance(ref, dict):
        return (
            "note: baseline has no reference block "
            "(re-record with benchmarks/record.py to add one)"
        )
    label = ref.get("label", "reference")
    commit = ref.get("commit")
    where = f" @ {commit}" if commit else ""
    speedup = ref.get("workload_speedup")
    vs = f", workload speedup {speedup}x vs it" if speedup is not None else ""
    return f"reference: {label}{where}{vs}"


def check_regression(
    result: Dict, baseline: Dict, factor: float = REGRESSION_FACTOR
) -> Optional[str]:
    """None if ``result`` is within ``factor`` of the baseline's batch
    time, else a human-readable failure message."""
    base = baseline.get("ingest", baseline).get("batch_seconds")
    if base is None:
        return None
    now = result["batch_seconds"]
    if now > factor * base:
        return (
            f"ingest wall-clock regressed: {now:.3f}s vs committed "
            f"{base:.3f}s baseline (>{factor:.1f}x)"
        )
    return None


# -- the gate table ---------------------------------------------------------


def load_record(path: Union[str, Path]) -> Optional[Dict]:
    """The committed bench record at ``path``, or None when absent."""
    p = Path(path)
    if not p.is_file():
        return None
    return json.loads(p.read_text())


class Headline(NamedTuple):
    """The one number of a gate that history, drift and the dashboard
    track: result ``field`` stored under history ``key``."""

    field: str
    key: str
    label: str
    unit: str
    lower_is_better: bool


@dataclass(frozen=True)
class Gate:
    """One committed bench gate.

    ``measure(quick=, repeats=, **options)`` returns a fresh result;
    options it does not take (``jobs``, ``scale``, ...) are ignored.
    ``check(result, baseline)`` returns a failure message or None and
    accepts the committed file record or its inner ``name`` dict (for
    memory, whose budget sits at the top of the file, the bare budget).
    ``ok_line(result, baseline)`` is printed when the check holds.
    """

    name: str
    measure: Callable[..., Dict]
    check: Callable[[Dict, Dict], Optional[str]]
    ok_line: Callable[[Dict, Dict], str]
    #: tracked in history lines (None: the gate adds nothing to them)
    headline: Optional[Headline] = None
    #: secondary ``(history key, result field)`` pairs, copied when present
    extras: Tuple[Tuple[str, str], ...] = ()
    #: the committed headline is a ``repro dash`` stat tile
    tile: bool = False
    #: measured only when named (``repro bench --memory``, ``--only``)
    opt_in: bool = False
    #: committed file body for a fresh result (default ``{name: result}``)
    wrap: Optional[Callable[[Dict], Dict]] = None

    @property
    def filename(self) -> str:
        return f"BENCH_{self.name}.json"

    def baseline(self, result: Dict) -> Dict:
        """What ``benchmarks/record.py`` commits for ``result``, after
        its ``recorded_utc`` stamp."""
        return self.wrap(result) if self.wrap else {self.name: result}

    def history(self, result: Dict) -> Dict:
        """This gate's fields of a history line."""
        out: Dict = {}
        if self.headline:
            out[self.headline.key] = result.get(self.headline.field)
        for key, field in self.extras:
            if field in result:
                out[key] = result[field]
        return out


def _ingest_ok(result: Dict, baseline: Dict) -> str:
    base = baseline.get("ingest", baseline).get("batch_seconds")
    return (
        f"OK: ingest within 2x of committed baseline ({base}s)\n"
        + reference_summary(baseline)
    )


def _restore_ok(result: Dict, baseline: Dict) -> str:
    base = baseline.get("restore", baseline).get("restore_seconds")
    return f"OK: restore within 2x of committed baseline ({base}s)"


def _chunking_ok(result: Dict, baseline: Dict) -> str:
    rec = baseline.get("chunking", baseline)
    return (
        "OK: narrow-lane chunking within 2x of committed baseline "
        f"({rec.get('seqcdc_seconds')}s) and "
        f">={CHUNKING_SPEEDUP_FLOOR:.0f}x the committed "
        f"exact-path rate ({rec.get('exact_mb_per_s')} MB/s)"
    )


def _shard_ok(result: Dict, baseline: Dict) -> str:
    rec = baseline.get("shard", baseline)
    return (
        "OK: 1-shard wrapper byte-identical, routed lookups "
        f"within 2x of committed baseline "
        f"({rec.get('lookup_seconds')}s) and above the "
        f"{rec.get('lookup_floor_per_s')}/s floor"
    )


def _memory_ok(result: Dict, baseline: Dict) -> str:
    return (
        f"OK: peak RSS {result['peak_rss_mb']:.1f} MB within the committed "
        f"budget ({baseline['budget_rss_mb']:.1f} MB)"
    )


#: every committed gate, in measure/print order
GATES: Dict[str, Gate] = {
    gate.name: gate
    for gate in (
        Gate(
            "ingest",
            measure=lambda quick, repeats, jobs=None, **_: run_bench(
                repeats=repeats, scalar=not quick, jobs=jobs
            ),
            check=check_regression,
            ok_line=_ingest_ok,
            headline=Headline(
                "batch_seconds", "ingest_batch_seconds", "ingest (batch)", "s", True
            ),
            extras=(
                ("ingest_scalar_seconds", "scalar_seconds"),
                ("ingest_speedup", "speedup"),
            ),
            tile=True,
        ),
        Gate(
            "restore",
            measure=lambda quick, repeats, **_: run_restore_bench(
                repeats=repeats, faa=not quick
            ),
            check=check_restore_regression,
            ok_line=_restore_ok,
            headline=Headline(
                "restore_seconds", "restore_seconds", "restore", "s", True
            ),
            extras=(("restore_faa_seconds", "faa_seconds"),),
            tile=True,
        ),
        Gate(
            "chunking",
            measure=lambda quick, repeats, **_: run_chunking_bench(
                repeats=repeats, exact=not quick
            ),
            check=check_chunking_regression,
            ok_line=_chunking_ok,
            headline=Headline(
                "seqcdc_mb_per_s", "chunking_mb_per_s", "chunking", "MB/s", False
            ),
            extras=(("chunking_speedup", "speedup"),),
            tile=True,
        ),
        Gate(
            "shard",
            measure=lambda quick, repeats, **_: run_shard_bench(repeats=repeats),
            check=check_shard_regression,
            ok_line=_shard_ok,
            wrap=lambda result: {
                "shard": {**result, "lookup_floor_per_s": SHARD_LOOKUP_FLOOR_PER_S}
            },
        ),
        Gate(
            "memory",
            measure=lambda quick, repeats, scale=MEMORY_SCALE, **options: (
                run_memory_bench(
                    scale,
                    generations=options.get("generations"),
                    resident_containers=options.get("resident_containers"),
                )
            ),
            check=check_memory_gate,
            ok_line=_memory_ok,
            headline=Headline(
                "peak_rss_mb", "peak_rss_mb", "peak RSS (memory bench)", "MB", True
            ),
            extras=(("memory_logical_bytes", "logical_bytes"),),
            opt_in=True,
            wrap=lambda result: {
                "budget_rss_mb": round(result["peak_rss_mb"] * MEMORY_HEADROOM, 1),
                "memory": result,
            },
        ),
    )
}


def check_gate(gate: Gate, result: Dict, root: Union[str, Path] = ".") -> Tuple[str, str]:
    """``(status, line)`` for ``result`` against the gate's committed
    file under ``root``: status is ``"skip"`` (no committed file),
    ``"fail"`` or ``"pass"``; line is what ``repro bench`` prints."""
    baseline = load_record(Path(root) / gate.filename)
    if baseline is None:
        return "skip", f"no committed {gate.filename} found; skipping {gate.name} gate"
    failure = gate.check(result, baseline)
    if failure is not None:
        return "fail", f"FAIL: {failure}"
    return "pass", gate.ok_line(result, baseline)


# -- perf-trajectory history ------------------------------------------------

#: the headline metrics a history line tracks:
#: key -> (display label, unit, True when lower is better)
HISTORY_METRICS: Dict[str, tuple] = {
    g.headline.key: (g.headline.label, g.headline.unit, g.headline.lower_is_better)
    for g in GATES.values()
    if g.headline
}


def history_record(manifest: Optional[Dict] = None, **results: Optional[Dict]) -> Dict:
    """One compact history line from fresh results keyed by gate name
    (``history_record(ingest=..., restore=..., manifest=...)``).

    Only the headline numbers survive (``HISTORY_METRICS`` plus a few
    secondary figures) so the file stays a few hundred bytes per run
    while the dashboard can still plot every trajectory.
    """
    unknown = set(results) - set(GATES)
    if unknown:
        raise TypeError(f"no bench gate named {sorted(unknown)}")
    out: Dict = dict(manifest or {})
    for gate in GATES.values():
        if results.get(gate.name):
            out.update(gate.history(results[gate.name]))
    return out


def load_history(path: Optional[Path] = None) -> list:
    """Every history line, oldest first ([] when the file is absent).
    Malformed lines are skipped — the file is append-only and a crashed
    append must not brick every later reader."""
    p = Path(path) if path is not None else Path(HISTORY_FILENAME)
    if not p.is_file():
        return []
    out = []
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            out.append(record)
    return out


def append_history(record: Dict, path: Optional[Path] = None) -> Path:
    """Append one record as a single JSON line; returns the file path."""
    p = Path(path) if path is not None else Path(HISTORY_FILENAME)
    with p.open("a") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")
    return p


def drift_summary(
    current: Dict, history: list, epsilon: float = DRIFT_EPSILON
) -> list:
    """Human-readable drift lines: each headline metric in ``current``
    (a dict of history-record keys) against the most recent history
    entry that has it. Direction words respect the metric's polarity
    (lower seconds good, higher MB/s good); changes within ``epsilon``
    read as steady. Empty when there is no history to compare against.
    """
    lines = []
    for key, (label, unit, lower_is_better) in HISTORY_METRICS.items():
        now = current.get(key)
        if now is None:
            continue
        prev = None
        for record in reversed(history):
            if record.get(key) is not None:
                prev = record[key]
                break
        if not prev:
            continue
        rel = (now - prev) / prev
        if abs(rel) <= epsilon:
            direction = "steady"
        elif (rel < 0) == lower_is_better:
            direction = "improving"
        else:
            direction = "regressing"
        lines.append(
            f"{label}: {now:g}{unit} vs {prev:g}{unit} last recorded "
            f"({rel:+.1%}, {direction})"
        )
    return lines
