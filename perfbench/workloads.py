"""The benchmark's three workloads, driven through ``repro``'s public API.

Every workload is a closed loop with one client: each backup, restore or
GC pass starts when the previous call returns. Inputs come from the
workload seed alone (:meth:`Workload.setup`); one *pass* replays them on
fresh resources (:meth:`Workload.run_pass`) and returns wall-clock
samples, simulated-clock totals, deterministic work counters and the
violations found by the correctness checks, which run between timed
calls and never inside them. Host-speed probes run between timed calls
(:mod:`speed`).
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api import create_engine, create_reader, create_resources
from repro.chunking.gear import GearChunker
from repro.dedup.pipeline import GroundTruth
from repro.experiments.config import ExperimentConfig
from repro.segmenting.segmenter import ContentDefinedSegmenter
from repro.sharding.config import ShardConfig
from repro.storage.gc import GarbageCollector
from repro.storage.store import StoreConfig
from repro.workloads.bytegen import chunk_payload
from repro.workloads.generators import author_fs_20_full, group_fs_66

from checks import (
    check_recipe_matches,
    check_recipe_placement,
    check_restore,
    recipe_digest,
)
from speed import Speedometer
from tracer import SpanRecorder

clock = time.perf_counter

#: the timed operation kinds; every pass replays the same sequence of each
KINDS = ("backup", "restore", "gc")


@dataclass
class PassResult:
    """Everything one pass measured."""

    #: kind -> wall seconds of each timed call, in call order
    wall: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    #: kind -> index of the first host-speed probe after each call
    probe_at: Dict[str, List[int]] = field(default_factory=lambda: {k: [] for k in KINDS})
    #: wall seconds of each ``process_segment`` call, and its backup's index
    segment_s: List[float] = field(default_factory=list)
    segment_backup: List[int] = field(default_factory=list)
    ingest_bytes: int = 0
    restore_bytes: int = 0
    #: simulated-clock totals (deterministic)
    sim_ingest_s: float = 0.0
    sim_restore_s: float = 0.0
    stored_bytes: int = 0
    removed_dup_bytes: int = 0
    true_dup_bytes: int = 0
    #: deterministic work counters read from the program's stats objects
    counters: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    failed_ops: int = 0
    errors: List[str] = field(default_factory=list)

    def timed(self, kind: str, seconds: float, speed: Speedometer) -> None:
        """Record one timed call and the host-speed probe that covers it."""
        self.wall[kind].append(seconds)
        self.probe_at[kind].append(speed.after_op())
        self.attempted += 1

    def fail(self, violations: List[str]) -> None:
        """Count one operation whose check found ``violations``."""
        if violations:
            self.failed_ops += 1
            self.errors.extend(violations)

    def add_counters(self, prefix: str, stats, names=None) -> None:
        """Add the ``names`` attributes of ``stats`` (or, for a dict, its
        items) to the counters under ``prefix``."""
        items = stats.items() if names is None else ((n, getattr(stats, n)) for n in names)
        for name, value in items:
            key = f"{prefix}.{name}"
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def deterministic(self) -> Dict[str, object]:
        """The record that must repeat exactly across passes and runs."""
        return {
            "digest": self.digest,
            "sim_ingest_s": repr(self.sim_ingest_s),
            "sim_restore_s": repr(self.sim_restore_s),
            "ingest_bytes": self.ingest_bytes,
            "restore_bytes": self.restore_bytes,
            "stored_bytes": self.stored_bytes,
            "removed_dup_bytes": self.removed_dup_bytes,
            "true_dup_bytes": self.true_dup_bytes,
            **self.counters,
        }


_INDEX = ("lookups", "page_faults", "page_hits", "inserts", "updates", "negative_lookups")
_CACHE = ("lookups", "hits", "units_inserted", "units_evicted")
_STORE = ("containers_sealed", "containers_removed", "chunks_written",
          "payload_bytes", "metadata_bytes", "meta_prefetches", "container_reads")
_SPILL = ("spilled", "evictions", "faults", "bytes_spilled", "bytes_faulted")
_GC = ("containers_examined", "containers_collected", "bytes_reclaimed", "bytes_moved")
_RESTORE = ("restores", "container_reads", "cache_hits", "cache_misses", "seeks")
_SCAN = ("bytes_in", "chunks_out", "scan_bytes", "skipped_bytes", "warmup_bytes", "candidates")


class Stack:
    """One engine on fresh resources plus its reader, wrapped for tracing
    when a recorder is given."""

    def __init__(self, engine: str, config: ExperimentConfig, speed: Speedometer,
                 tracer: Optional[SpanRecorder]) -> None:
        self.res = create_resources(config)
        self.engine = create_engine(engine, config, self.res)
        self.reader = create_reader(self.res.store, config)
        self.segmenter = ContentDefinedSegmenter()
        self.speed = speed
        self.tracer = tracer
        if tracer is not None:
            tracer.wrap(self.segmenter, "segmenting")
            tracer.wrap(self.engine, "dedup")
            for attr, layer in (("cache", "index.cache"), ("bloom", "index.bloom"),
                                ("similarity", "index.similarity")):
                obj = getattr(self.engine, attr, None)
                if obj is not None:
                    tracer.wrap(obj, layer)
            shards = getattr(self.res.index, "shards", None)
            if shards is None:
                tracer.wrap(self.res.index, "index.disk")
            else:
                tracer.wrap(self.res.index, "sharding")
                for shard in shards:
                    tracer.wrap(shard, "index.disk")
            tracer.wrap(self.res.store, "storage")
            tracer.wrap(self.reader, "restore")

    def op(self) -> None:
        """Start one benchmark operation in the trace."""
        if self.tracer is not None:
            self.tracer.begin_op()

    def backup(self, job, out: PassResult, data: Optional[bytes] = None,
               chunker: Optional[GearChunker] = None):
        """Ingest one backup (timed): chunk ``data`` when given, else take
        the job's chunk stream; then segment and run the engine. Returns
        the report and the ingested stream."""
        self.op()
        index = len(out.wall["backup"])
        t0 = clock()
        stream = job.stream if data is None else chunker.chunk(data, fingerprints="fast")
        segments = self.segmenter.split_at(stream, self.segmenter.boundaries(stream))
        engine = self.engine
        engine.begin_backup(job.generation, job.label)
        for segment in segments:
            t1 = clock()
            engine.process_segment(segment)
            out.segment_s.append(clock() - t1)
            out.segment_backup.append(index)
        report = engine.end_backup()
        out.timed("backup", clock() - t0, self.speed)
        out.ingest_bytes += report.logical_bytes
        out.sim_ingest_s += report.elapsed_seconds
        out.stored_bytes += report.stored_bytes
        out.removed_dup_bytes += report.removed_dup_bytes
        return report, stream

    def restore(self, recipe, out: PassResult, what: str) -> None:
        """Restore one recipe (timed), then check it (untimed)."""
        self.op()
        t0 = clock()
        report = self.reader.restore(recipe)
        out.timed("restore", clock() - t0, self.speed)
        out.restore_bytes += report.logical_bytes
        out.sim_restore_s += report.elapsed_seconds
        out.fail(check_restore(report, recipe, what))

    def check_placement(self, recipes, out: PassResult, what: str) -> List[str]:
        """Placement check of ``recipes``. It records no spans, and the
        spill faults it causes are counted apart from the timed calls'."""
        spill = self.res.store.spill_stats
        faults, nbytes = spill.faults, spill.bytes_faulted
        untraced = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with untraced:
            violations = [v for r in recipes for v in check_recipe_placement(
                r, self.res.store, f"{what} gen {r.generation}")]
        out.add_counters("check", {"spill_faults": spill.faults - faults,
                                   "bytes_faulted": spill.bytes_faulted - nbytes})
        return violations

    def collect_counters(self, out: PassResult) -> None:
        out.add_counters("index", self.res.index.stats, _INDEX)
        cache = getattr(self.engine, "cache", None)
        if cache is not None:
            out.add_counters("cache", cache.stats, _CACHE)
        out.add_counters("store", self.res.store.stats, _STORE)
        out.add_counters("spill", self.res.store.spill_stats, _SPILL)
        out.add_counters("reader", self.reader.stats, _RESTORE)


def true_dup_bytes(streams) -> int:
    """Ground-truth redundant bytes over ``streams`` in ingest order."""
    oracle = GroundTruth()
    return sum(
        oracle.observe(s, np.array([0, len(s)], dtype=np.int64))[0] for s in streams
    )


class Workload:
    name = ""
    why = ""
    #: lines printed with every result of this workload
    notes: tuple = ()

    def setup(self, seed: int):
        """Build the workload's inputs from ``seed``."""
        raise NotImplementedError

    def run_pass(self, inputs, speed: Speedometer,
                 tracer: Optional[SpanRecorder]) -> PassResult:
        """Replay the inputs once on fresh resources."""
        raise NotImplementedError


class GroupIngest(Workload):
    """Fig. 4's group workload through DeFrag, DDFS-Like and SiLo-Like."""

    name = "group-ingest"
    why = ("Fig. 4 default-scale group workload (5 users x 96 MiB, first 33 of its "
           "66 backups) through three engines: the index layers do most of the work")
    engines = ("DeFrag", "DDFS-Like", "SiLo-Like")
    #: the first half of Fig. 4's 66 round-robin backups (run length)
    backups = 33

    def setup(self, seed: int):
        config = ExperimentConfig.default().with_(seed=seed)
        jobs = list(group_fs_66(per_user_bytes=config.per_user_bytes, seed=seed,
                                n_users=config.n_users, n_backups=self.backups,
                                churn=config.churn_full))
        return config, jobs, true_dup_bytes(j.stream for j in jobs)

    def run_pass(self, inputs, speed, tracer):
        config, jobs, truth = inputs
        out = PassResult()
        recipes = []
        for name in self.engines:
            stack = Stack(name, config, speed, tracer)
            reports = []
            for job in jobs:
                report, _ = stack.backup(job, out)
                out.fail(check_recipe_matches(report.recipe, job.stream,
                                              f"{name} gen {job.generation}")
                         + stack.check_placement([report.recipe], out, name))
                reports.append(report)
            # Fig. 6's read path: restore every backup from this engine's store
            for report in reports:
                stack.restore(report.recipe, out, f"{name} restore gen {report.generation}")
            stack.collect_counters(out)
            out.true_dup_bytes += truth
            recipes.extend(r.recipe for r in reports)
        out.digest = recipe_digest(recipes)
        return out


class ByteIngest(Workload):
    """Byte-level group workload at small scale through DeFrag."""

    name = "byte-ingest"
    why = ("byte-level group workload at small scale (5 users x 12 MiB, 15 backups) "
           "through DeFrag: CDC and fingerprinting do most of the work")

    def setup(self, seed: int):
        config = ExperimentConfig.small().with_(seed=seed)
        jobs = list(group_fs_66(per_user_bytes=config.per_user_bytes, seed=seed,
                                n_users=config.n_users, n_backups=config.n_backups,
                                churn=config.churn_full))
        return config, jobs

    def run_pass(self, inputs, speed, tracer):
        config, jobs = inputs
        out = PassResult()
        stack = Stack("DeFrag", config, speed, tracer)
        chunker = GearChunker(seed=config.seed)
        if tracer is not None:
            tracer.wrap(chunker, "chunking.fingerprint", ["chunk"])
            tracer.wrap(chunker, "chunking.cdc", ["cut_boundaries"])
        streams, reports = [], []
        for job in jobs:
            # materialized outside the timed region, one buffer at a time
            data = chunk_payload(job.stream.fps, job.stream.sizes)
            report, stream = stack.backup(job, out, data, chunker)
            out.add_counters("chunking", chunker.last_stats, _SCAN)
            what = f"gen {job.generation}"
            violations = check_recipe_matches(report.recipe, stream, what)
            if int(stream.sizes.sum()) != len(data):
                violations.append(f"{what}: chunks cover {int(stream.sizes.sum())} "
                                  f"of {len(data)} bytes")
            violations += stack.check_placement([report.recipe], out, "placement")
            out.fail(violations)
            streams.append(stream)
            reports.append(report)
            del data
        for report in reports:
            stack.restore(report.recipe, out, f"restore gen {report.generation}")
        stack.collect_counters(out)
        out.true_dup_bytes = true_dup_bytes(streams)
        out.digest = recipe_digest(r.recipe for r in reports)
        return out


class RetentionCycle(Workload):
    """Retained full backups with GC and restores over an out-of-core store."""

    name = "retention-cycle"
    why = ("30 full backups of one 128 MiB FS through DeFrag on a 3-shard index and "
           "a spilling store; keep 7, GC every 4th, restore all kept each time")
    generations = 30
    retain = 7
    gc_every = 4
    notes = (
        "flush policy: spill writes are plain file writes with no fsync and the "
        "journal is off; reads are likely served from the page cache, so restore "
        "latency is this machine's, not a device's",
    )

    def __init__(self, scratch_root: str) -> None:
        self.scratch_root = scratch_root

    def setup(self, seed: int):
        config = ExperimentConfig.default().with_(seed=seed, shard=ShardConfig(n_shards=3))
        jobs = list(author_fs_20_full(fs_bytes=config.fs_bytes, seed=seed,
                                      n_generations=self.generations,
                                      churn=config.churn_full))
        return config, jobs, true_dup_bytes(j.stream for j in jobs)

    def run_pass(self, inputs, speed, tracer):
        config, jobs, truth = inputs
        spill_dir = tempfile.mkdtemp(prefix="spill-", dir=self.scratch_root)
        try:
            store = StoreConfig(container_bytes=config.container_bytes, seal_seeks=0,
                                cache_containers=config.restore_cache_containers,
                                resident_containers=16, spill_dir=spill_dir)
            stack = Stack("DeFrag", config.with_(store=store), speed, tracer)
            return self._cycle(stack, jobs, truth)
        finally:
            shutil.rmtree(spill_dir, ignore_errors=True)

    def _cycle(self, stack, jobs, truth):
        out = PassResult()
        gc = GarbageCollector(stack.res.store, stack.res.index)
        if stack.tracer is not None:
            stack.tracer.wrap(gc, "gc")
        retained = []  # recipes, oldest first
        streams = {}
        for job in jobs:
            report, _ = stack.backup(job, out)
            what = f"gen {job.generation}"
            out.fail(check_recipe_matches(report.recipe, job.stream, what)
                     + stack.check_placement([report.recipe], out, "placement"))
            streams[job.generation] = job.stream
            retained.append(report.recipe)
            del retained[: -self.retain]
            if (job.generation + 1) % self.gc_every == 0:
                stack.op()
                t0 = clock()
                gc_report, retained = gc.collect(retained, min_utilization=0.5)
                out.timed("gc", clock() - t0, stack.speed)
                out.add_counters("gc", gc_report, _GC)
                violations = []
                for recipe in retained:
                    violations += check_recipe_matches(
                        recipe, streams[recipe.generation], f"after GC gen {recipe.generation}")
                violations += stack.check_placement(retained, out, "after GC")
                out.fail(violations)
            for recipe in retained:
                stack.restore(recipe, out, f"restore gen {recipe.generation}")
        stack.collect_counters(out)
        index = stack.res.index
        balance = index.router.fill_balance(index.shard_fill())
        out.counters["sharding.fill_balance_ppm"] = int(round(balance * 1e6))
        out.true_dup_bytes = truth
        out.digest = recipe_digest(retained)
        return out


def workloads(scratch_root: str) -> Dict[str, Workload]:
    """Every workload by name; ``scratch_root`` holds temporary spill files."""
    return {w.name: w for w in (GroupIngest(), ByteIngest(), RetentionCycle(scratch_root))}
