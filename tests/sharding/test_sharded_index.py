"""ShardedChunkIndex behind the DiskChunkIndex contract.

Pins the three contract planks of ``repro.sharding.index``: 1-shard
byte-identity (answers, stats, simulated clock), N-shard answer
equivalence, and the single live stats object all shards share. Plus
the mechanics: the per-segment ``probe`` peek, ensemble ``page_of``/
``n_pages``, and the journaled flush/crash/load_recovered cycle.
"""

import numpy as np
import pytest

from repro.index.full_index import ChunkLocation, DiskChunkIndex
from repro.sharding import ShardedChunkIndex
from repro.storage.disk import DiskModel

from tests.conftest import TEST_PROFILE


def make_sharded(n_shards, **kwargs):
    disk = DiskModel(profile=TEST_PROFILE)
    kwargs.setdefault("expected_entries", 10_000)
    return ShardedChunkIndex.create(disk, n_shards=n_shards, **kwargs)


def drive(index):
    """A deterministic mixed workload; returns (answers, stats, clock)."""
    rng = np.random.default_rng(7)
    fps = [int(x) for x in rng.integers(1, 1 << 60, size=1024)]
    answers = []
    for i in range(0, len(fps), 128):
        chunk = fps[i : i + 128]
        answers.append([loc is not None for loc in index.lookup_many(chunk)])
        index.insert_many(
            chunk, [ChunkLocation(i, j) for j in range(len(chunk))]
        )
        index.flush()
    answers.append(
        [loc.cid for loc in index.lookup_many(fps) if loc is not None]
    )
    return answers, dict(vars(index.stats)), index.disk.stats.total_time_s


class TestOneShardDegeneracy:
    def test_byte_identical_to_plain_index(self):
        plain = drive(
            DiskChunkIndex(
                DiskModel(profile=TEST_PROFILE), expected_entries=10_000
            )
        )
        one = drive(make_sharded(1))
        assert plain == one

    def test_one_shard_probe_is_the_shard_probe(self, monkeypatch):
        index = make_sharded(1)
        index.insert_many([7, 8], [ChunkLocation(1, 0), ChunkLocation(2, 0)])

        def no_routing(fps):
            raise AssertionError("a 1-shard probe must not route")

        monkeypatch.setattr(index.router, "route_many", no_routing)
        fps = [7, 8, 9]
        assert index.probe(fps)(0, 3) == index.shards[0].probe(fps)(0, 3)
        assert index.probe(fps)(1, 3) == [ChunkLocation(2, 0), None]


class TestAnswerEquivalence:
    def test_n_shards_answer_equivalent(self):
        ref_answers, _, _ = drive(make_sharded(1))
        for n_shards in (2, 3, 5):
            answers, _, _ = drive(make_sharded(n_shards))
            assert answers == ref_answers

    def test_sorted_sweep_matches_routed_lookup(self):
        index = make_sharded(3)
        fps = [fp * 131 for fp in range(1, 400)]
        index.insert_many(
            fps, [ChunkLocation(fp % 9, 0) for fp in fps]
        )
        probes = fps[::2] + [10**15 + fp for fp in range(50)]
        assert index.lookup_batch_sorted(probes) == index.lookup_many(probes)

    def test_update_many_routes_to_owners(self):
        index = make_sharded(4)
        fps = list(range(100, 200))
        index.insert_many(fps, [ChunkLocation(0, 0) for _ in fps])
        index.update_many(fps, [ChunkLocation(fp, 1) for fp in fps])
        for fp in fps:
            assert index.peek(fp) == ChunkLocation(fp, 1)


class TestSharedStats:
    def test_all_shards_share_one_live_stats_object(self):
        index = make_sharded(4)
        for shard in index.shards:
            assert shard.stats is index.stats
        fps = list(range(1, 301))
        index.insert_many(fps, [ChunkLocation(0, 0) for _ in fps])
        index.lookup_many(fps)
        assert index.stats.inserts == 300
        assert index.stats.lookups == 300


class TestMapViewAndPages:
    def test_routed_probe_matches_peek(self):
        index = make_sharded(3)
        fps = [fp * 271 for fp in range(1, 200)]
        index.insert_many(fps, [ChunkLocation(fp, 2) for fp in fps])
        segment = fps + [10**16]
        probe = index.probe(segment)
        assert probe(0, len(segment)) == [index.peek(fp) for fp in segment]
        for i, j in ((0, 1), (5, 40), (len(fps), len(segment))):
            assert probe(i, j) == [index.peek(fp) for fp in segment[i:j]]
        for fp in fps:
            assert index.peek(fp) == ChunkLocation(fp, 2)
            assert fp in index
        assert probe(len(fps), len(segment)) == [None]
        assert len(index) == len(fps)

    def test_probe_sees_inserts_after_it_was_fetched(self):
        index = make_sharded(3)
        probe = index.probe([7, 8])
        index.insert_many([7, 8], [ChunkLocation(1, 0), ChunkLocation(2, 0)])
        assert probe(0, 2) == [ChunkLocation(1, 0), ChunkLocation(2, 0)]

    def test_page_of_is_a_stable_ensemble_page_id(self):
        index = make_sharded(3)
        assert index.n_pages == sum(s.n_pages for s in index.shards)
        for fp in range(1, 500, 17):
            page = index.page_of(fp)
            assert 0 <= page < index.n_pages
            assert page == index.page_of(fp)

    def test_shard_fill_and_len_agree(self):
        index = make_sharded(4)
        fps = list(range(1, 401))
        index.insert_many(fps, [ChunkLocation(0, 0) for _ in fps])
        assert sum(index.shard_fill()) == len(index) == 400
        assert index.disk_bytes == sum(s.disk_bytes for s in index.shards)


class TestCrashCycle:
    def test_crash_drops_unflushed_load_recovered_repartitions(self):
        index = make_sharded(3, journaled=True)
        index.insert_many(
            list(range(1, 51)), [ChunkLocation(0, 0) for _ in range(50)]
        )
        index.flush()
        index.insert_many(
            list(range(51, 101)), [ChunkLocation(1, 0) for _ in range(50)]
        )
        index.crash()
        assert len(index) == 50
        rebuilt = {fp: ChunkLocation(9, 9) for fp in range(200, 260)}
        assert index.load_recovered(rebuilt) == 60
        for fp in rebuilt:
            owner = index.router.shard_of(fp)
            assert fp in index.shards[owner]

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_probe_agrees_with_peek_after_load_recovered(self, n_shards):
        """``load_recovered`` replaces each shard's map; a probe fetched
        afterwards must answer from the rebuilt map, never the old one."""
        index = make_sharded(n_shards, journaled=True)
        index.insert_many([1, 2, 3], [ChunkLocation(0, i) for i in range(3)])
        index.flush()
        index.load_recovered({5: ChunkLocation(4, 4)})
        fps = [1, 2, 3, 5, 6]
        probe = index.probe(fps)
        assert probe(0, 5) == [index.peek(fp) for fp in fps]
        assert probe(3, 4) == [ChunkLocation(4, 4)]
        assert probe(0, 1) == [None]
