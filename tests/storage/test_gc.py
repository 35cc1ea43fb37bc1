"""Garbage-collector tests: liveness, compaction, recipe remapping."""

import pytest

from repro.core.defrag import DeFragEngine
from repro.core.policy import AlwaysRewritePolicy, SPLThresholdPolicy
from repro.dedup.base import EngineResources
from repro.dedup.exact import ExactEngine
from repro.dedup.pipeline import run_backup, run_workload
from repro.index.full_index import ChunkLocation
from repro.restore.reader import RestoreReader
from repro.sharding import ShardedChunkIndex
from repro.storage.gc import GarbageCollector
from repro.workloads.generators import BackupJob

from tests.conftest import TEST_PROFILE, make_stream
from repro.storage.store import StoreConfig


def fresh_resources():
    res = EngineResources.create(
        profile=TEST_PROFILE, container_bytes=64 * 1024, expected_entries=100_000
    )
    res.store.seal_seeks = 0
    return res


def rewriting_run(segmenter, generations=4, res=None):
    """DeFrag with AlwaysRewrite: every cross-segment duplicate is stored
    again each generation, so old generations' copies become garbage as
    soon as their recipes expire."""
    res = res if res is not None else fresh_resources()
    eng = DeFragEngine(
        res, policy=AlwaysRewritePolicy(), bloom_capacity=100_000, cache_containers=8
    )
    s = make_stream(300, seed=1)
    reports = [
        run_backup(eng, BackupJob(g, "t", s), segmenter) for g in range(generations)
    ]
    return res, eng, reports


class TestLiveness:
    def test_all_live_when_everything_retained(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        gc = GarbageCollector(res.store, index=res.index)
        util = gc.log_utilization([r.recipe for r in reports])
        assert util > 0.95

    def test_expiry_creates_garbage(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        gc = GarbageCollector(res.store, index=res.index)
        util = gc.log_utilization([reports[-1].recipe])
        # 4 generations stored, 1 retained: ~3/4 of the log is dead
        assert util < 0.5


class TestCollect:
    def test_reclaims_dead_space(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        physical_before = res.store.stats.payload_bytes
        gc = GarbageCollector(res.store, index=res.index)
        report, remapped = gc.collect([reports[-1].recipe], min_utilization=0.9)
        assert report.bytes_reclaimed > 0
        assert res.store.stats.payload_bytes < physical_before
        assert report.utilization_after >= report.utilization_before

    def test_retained_backup_still_restorable(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        gc = GarbageCollector(res.store, index=res.index)
        _, remapped = gc.collect([reports[-1].recipe], min_utilization=0.9)
        rr = RestoreReader(res.store, config=StoreConfig(cache_containers=4)).restore(remapped[0])
        assert rr.logical_bytes == reports[-1].logical_bytes

    def test_remap_preserves_logical_content(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        gc = GarbageCollector(res.store, index=res.index)
        _, remapped = gc.collect([reports[-1].recipe], min_utilization=0.9)
        import numpy as np

        assert np.array_equal(
            remapped[0].fingerprints, reports[-1].recipe.fingerprints
        )
        assert np.array_equal(remapped[0].sizes, reports[-1].recipe.sizes)

    def test_remapped_containers_exist(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        gc = GarbageCollector(res.store, index=res.index)
        _, remapped = gc.collect([reports[-1].recipe], min_utilization=0.9)
        for cid in remapped[0].unique_containers():
            assert res.store.has(int(cid))

    def test_index_repointed_to_moved_copies(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        gc = GarbageCollector(res.store, index=res.index)
        _, remapped = gc.collect([reports[-1].recipe], min_utilization=0.9)
        for fp in reports[-1].recipe.fingerprints[:20]:
            loc = res.index.peek(int(fp))
            assert loc is not None
            assert res.store.has(loc.cid)

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_moved_chunks_repointed_with_their_sid(self, segmenter, n_shards):
        """Every moved chunk maps to (its new container, the sid it had
        before the pass), and the index counts one update per move."""
        base = fresh_resources()
        index = ShardedChunkIndex.create(base.disk, n_shards=n_shards, expected_entries=100_000)
        res, eng, reports = rewriting_run(
            segmenter, res=EngineResources(disk=base.disk, store=base.store, index=index)
        )
        before = {int(fp): index.peek(int(fp)) for fp in reports[-1].recipe.fingerprints}
        old_cids = set(res.store.cids())
        updates = index.stats.updates
        gc = GarbageCollector(res.store, index=index)
        report, _ = gc.collect([reports[-1].recipe], min_utilization=0.9)
        # the containers the pass sealed hold exactly the moved chunks
        moved = {}
        moved_bytes = 0
        for cid in sorted(set(res.store.cids()) - old_cids):
            sealed = res.store.get(cid)
            for fp in sealed.fingerprints.tolist():
                assert fp not in moved
                moved[fp] = cid
            moved_bytes += int(sealed.sizes.sum())
        assert moved and moved_bytes == report.bytes_moved
        for fp, cid in moved.items():
            assert index.peek(fp) == ChunkLocation(cid, before[fp].sid)
        assert index.stats.updates - updates == len(moved)

    def test_noop_when_utilization_high(self, segmenter):
        """Exact dedup without rewrites: nothing to collect."""
        res = fresh_resources()
        eng = ExactEngine(res)
        s = make_stream(200, seed=2)
        reports = [run_backup(eng, BackupJob(g, "t", s), segmenter) for g in range(3)]
        gc = GarbageCollector(res.store, index=res.index)
        report, remapped = gc.collect([r.recipe for r in reports], min_utilization=0.5)
        assert report.containers_collected == 0
        assert report.bytes_reclaimed == 0
        assert remapped[0] is reports[0].recipe  # unchanged objects pass through

    def test_collect_charges_disk(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        before = res.disk.stats.snapshot()
        gc = GarbageCollector(res.store, index=res.index)
        gc.collect([reports[-1].recipe], min_utilization=0.9)
        delta = res.disk.stats.delta_since(before)
        assert delta.bytes_read > 0  # victims were read

    def test_rejects_bad_utilization(self, segmenter):
        res, eng, reports = rewriting_run(segmenter)
        gc = GarbageCollector(res.store)
        with pytest.raises(ValueError):
            gc.collect([reports[-1].recipe], min_utilization=1.5)


class TestWorkloadGC:
    def test_end_to_end_on_evolving_workload(self, segmenter, small_jobs):
        res = fresh_resources()
        eng = DeFragEngine(
            res, policy=SPLThresholdPolicy(0.3),
            bloom_capacity=100_000, cache_containers=8,
        )
        reports = run_workload(eng, small_jobs, segmenter)
        retained = [r.recipe for r in reports[-2:]]
        gc = GarbageCollector(res.store, index=res.index)
        report, remapped = gc.collect(retained, min_utilization=0.6)
        # every retained backup restores bit-for-bit after compaction
        reader = RestoreReader(res.store, config=StoreConfig(cache_containers=4))
        for original, new in zip(reports[-2:], remapped):
            rr = reader.restore(new)
            assert rr.logical_bytes == original.logical_bytes
