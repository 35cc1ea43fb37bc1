"""The consistent-hash router's invariants.

The routing contract everything else builds on: pure/deterministic
``shard_of``, the batch path agreeing with the scalar path, partition
covering a batch exactly once, 1-shard bypass, and a bounded fill
imbalance at the vnode default.
"""

import numpy as np
import pytest

from repro.sharding.router import ShardRouter, _ring_point, mix_inplace, mix_scalar


class TestRingPoints:
    def test_ring_points_are_full_width_and_stable(self):
        pts = [_ring_point(s, r) for s in range(4) for r in range(64)]
        assert len(set(pts)) == len(pts)
        assert all(0 <= p < 1 << 64 for p in pts)
        # the top half of the ring must be populated (the 63-bit
        # derive_seed bug left it empty and skewed every partition)
        assert any(p >= 1 << 63 for p in pts)
        assert pts == [_ring_point(s, r) for s in range(4) for r in range(64)]

    def test_mix_scalar_matches_vectorized_mix(self):
        fps = [0, 1, 2**63, 2**64 - 1, 123456789, 0xDEADBEEF]
        vec = mix_inplace(np.asarray(fps, dtype=np.uint64))
        assert [int(v) for v in vec] == [mix_scalar(fp) for fp in fps]


class TestRouting:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, vnodes=0)

    def test_one_shard_bypasses_the_ring(self):
        router = ShardRouter(1)
        assert router.shard_of(12345) == 0
        assert router.route_many(range(100)).tolist() == [0] * 100

    def test_shard_of_is_deterministic_and_in_range(self):
        router = ShardRouter(5)
        fps = list(range(1, 2000, 7))
        owners = [router.shard_of(fp) for fp in fps]
        assert owners == [router.shard_of(fp) for fp in fps]
        assert all(0 <= o < 5 for o in owners)
        # a fresh router with the same parameters routes identically
        assert owners == [ShardRouter(5).shard_of(fp) for fp in fps]

    def test_batch_routing_matches_scalar(self):
        router = ShardRouter(7)
        fps = list(range(1, 5000, 11))
        batch = router.route_many(fps)
        assert batch.tolist() == [router.shard_of(fp) for fp in fps]

    def test_partition_covers_batch_exactly_once(self):
        router = ShardRouter(4)
        fps = [fp * 977 for fp in range(1, 800)]
        parts = router.partition(fps)
        seen = []
        for shard, (positions, shard_fps) in parts.items():
            assert 0 <= shard < 4
            assert len(positions) == len(shard_fps)
            for pos, fp in zip(positions, shard_fps):
                assert fps[pos] == fp
                assert router.shard_of(fp) == shard
            seen.extend(positions)
        assert sorted(seen) == list(range(len(fps)))

    def test_partition_preserves_in_shard_order(self):
        router = ShardRouter(3)
        fps = [fp * 31 for fp in range(1, 500)]
        for positions, _ in router.partition(fps).values():
            assert positions == sorted(positions)


class TestFillBalance:
    def test_empty_and_even_fills(self):
        router = ShardRouter(3)
        assert router.fill_balance([0, 0, 0]) == 1.0
        assert router.fill_balance([10, 10, 10]) == 1.0
        assert router.fill_balance([30, 0, 0]) == 3.0

    def test_default_vnodes_keep_the_ring_balanced(self):
        rng = np.random.default_rng(2012)
        fps = [int(x) for x in rng.integers(1, 1 << 62, size=40_000)]
        for n_shards in (2, 4, 8):
            router = ShardRouter(n_shards)
            owners = router.route_many(fps)
            counts = np.bincount(owners, minlength=n_shards)
            assert router.fill_balance(counts.tolist()) < 1.25
