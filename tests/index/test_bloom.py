import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.fingerprint import splitmix64
from repro.index.bloom import BloomFilter

SALT1 = 0xA5A5A5A5A5A5A5A5
SALT2 = 0x5EED5EED5EED5EED
MASK64 = (1 << 64) - 1
SIZINGS = [(100, 0.01), (1000, 0.3), (12_345, 0.0001), (4_000_000, 0.01), (7, 0.5)]
EDGE_KEYS = [0, MASK64, SALT1, SALT2]


def reference_positions(bloom, fp):
    """Scalar double hashing: (h1 + k * (h2 | 1)) mod n_bits, with the
    k-th probe wrapping modulo 2**64 before the reduction."""
    h1 = splitmix64(fp ^ SALT1)
    h2 = splitmix64(fp ^ SALT2) | 1
    return [((h1 + k * h2) & MASK64) % bloom.n_bits for k in range(bloom.n_hashes)]


class TestConstruction:
    def test_sizing_grows_with_capacity(self):
        a = BloomFilter(1000, 0.01)
        b = BloomFilter(10000, 0.01)
        assert b.n_bits > a.n_bits

    def test_sizing_grows_with_precision(self):
        a = BloomFilter(1000, 0.05)
        b = BloomFilter(1000, 0.001)
        assert b.n_bits > a.n_bits

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_degenerate_rates(self, bad):
        with pytest.raises(ValueError):
            BloomFilter(100, bad)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BloomFilter(0)


class TestMembership:
    def test_no_false_negatives_scalar(self):
        b = BloomFilter(1000, 0.01)
        for fp in range(200):
            b.add(fp)
        assert all(fp in b for fp in range(200))

    def test_no_false_negatives_vectorized(self):
        b = BloomFilter(10000, 0.01)
        fps = np.arange(5000, dtype=np.uint64) * np.uint64(2654435761)
        b.add_many(fps)
        assert b.contains_many(fps).all()

    def test_fresh_filter_rejects_everything(self):
        b = BloomFilter(1000, 0.01)
        assert not b.contains_many(np.arange(100, dtype=np.uint64)).any()

    def test_false_positive_rate_near_target(self):
        b = BloomFilter(20000, 0.01)
        b.add_many(np.arange(20000, dtype=np.uint64))
        fresh = np.arange(10**6, 10**6 + 50000, dtype=np.uint64)
        rate = float(b.contains_many(fresh).mean())
        assert rate < 0.03

    def test_empty_array_ops(self):
        b = BloomFilter(100)
        b.add_many(np.zeros(0, dtype=np.uint64))
        assert b.contains_many(np.zeros(0, dtype=np.uint64)).shape == (0,)

    def test_duplicate_adds_counted(self):
        b = BloomFilter(100)
        b.add(5)
        b.add(5)
        assert b.n_added == 2
        assert 5 in b


class TestPositionsKernel:
    """The vectorized probe kernel matches the scalar splitmix64
    reference bit for bit, and never warns: uint64 array arithmetic wraps
    silently, so no errstate guard may be hiding an overflow."""

    @settings(max_examples=60, deadline=None)
    @given(
        sizing=st.sampled_from(SIZINGS),
        keys=st.lists(
            st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, MASK64)),
            min_size=0,
            max_size=40,
        ),
    )
    def test_matches_scalar_reference(self, sizing, keys):
        bloom = BloomFilter(*sizing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos = bloom._positions(np.asarray(keys, dtype=np.uint64))
        assert pos.dtype == np.uint64
        assert pos.shape == (len(keys), bloom.n_hashes)
        assert pos.tolist() == [reference_positions(bloom, k) for k in keys]

    @pytest.mark.parametrize("sizing", SIZINGS)
    def test_edge_keys(self, sizing):
        bloom = BloomFilter(*sizing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos = bloom._positions(np.asarray(EDGE_KEYS, dtype=np.uint64))
            bloom.add_many(np.asarray(EDGE_KEYS, dtype=np.uint64))
            assert bloom.contains_many(np.asarray(EDGE_KEYS, dtype=np.uint64)).all()
        assert pos.tolist() == [reference_positions(bloom, k) for k in EDGE_KEYS]


class TestIntrospection:
    def test_fill_ratio_increases(self):
        b = BloomFilter(1000, 0.01)
        assert b.fill_ratio == 0.0
        b.add_many(np.arange(500, dtype=np.uint64))
        assert 0.0 < b.fill_ratio < 1.0

    def test_expected_fp_rate_monotone(self):
        b = BloomFilter(1000, 0.01)
        r0 = b.expected_fp_rate()
        b.add_many(np.arange(1000, dtype=np.uint64))
        assert b.expected_fp_rate() > r0

    def test_ram_bytes_positive(self):
        assert BloomFilter(1000).ram_bytes > 0


class TestBloomBatchStaging:
    """try_stage: a whole run of adds is staged only when the batch can
    prove no same-run or prior-add probe collision could flip a later
    mid-segment membership answer; otherwise it refuses and the caller
    falls back to bit-identical scalar adds."""

    def _batch(self, fps):
        bloom = BloomFilter(10_000, 0.01)
        return bloom, bloom.begin_batch(np.asarray(fps, dtype=np.uint64))

    def test_stage_success_marks_members_and_counts(self):
        bloom, batch = self._batch([1, 2, 3, 4])
        assert batch.try_stage(0, 4)
        assert bloom.n_added == 4
        assert all(batch.contains(i) for i in range(4))

    def test_stage_matches_scalar_adds_bit_for_bit(self):
        fps = [11, 22, 33, 44, 55]
        bloom, batch = self._batch(fps)
        assert batch.try_stage(0, len(fps))
        batch.flush()
        ref = BloomFilter(10_000, 0.01)
        for fp in fps:
            ref.add(fp)
        assert np.array_equal(bloom._words, ref._words)
        assert bloom.n_added == ref.n_added

    def test_refuses_repeated_fingerprint_in_run(self):
        # identical fps share all probe positions: no solo probe exists,
        # so the run cannot be proven collision-free
        bloom, batch = self._batch([7, 7])
        assert not batch.try_stage(0, 2)
        assert bloom.n_added == 0
        assert not batch.contains(0)

    def test_refuses_collision_with_prior_add(self):
        bloom, batch = self._batch([9, 9])
        batch.add(0)
        assert not batch.try_stage(1, 2)
        assert batch.contains(1)  # pending add of the same fp is visible

    def test_negatives_snapshot(self):
        bloom = BloomFilter(10_000, 0.01)
        bloom.add(5)
        batch = bloom.begin_batch(np.array([5, 6], dtype=np.uint64))
        neg = batch.negatives()
        assert not neg[0]
        # staging chunk 1 must not rewrite the snapshot view
        assert batch.try_stage(1, 2) or True
        assert not batch.negatives()[0]

    def test_add_rows_matches_scalar_adds(self):
        fps = [3, 5, 3, 8]
        bloom, batch = self._batch(fps)
        batch.add_rows([0, 1, 2])
        assert batch.dirty
        assert batch.contains(1) and batch.contains(2)
        batch.flush()
        ref = BloomFilter(10_000, 0.01)
        for fp in fps[:3]:
            ref.add(fp)
        assert np.array_equal(bloom._words, ref._words)
        assert bloom.n_added == ref.n_added == 3

    def test_fresh_batch_is_clean(self):
        _, batch = self._batch([1, 2])
        batch.add_rows([])
        assert not batch.dirty
        assert batch.snapshot == [False, False]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_twin_run_against_scalar_sequence(self, data):
        """Random interleavings of contains / add / try_stage / add_rows
        / flush on a batch give the answers and the final bit array of
        the scalar ``fp in bloom`` / ``bloom.add(fp)`` sequence. A tiny,
        pre-filled filter makes probe collisions (and so same-batch
        false positives and try_stage refusals) common."""
        key = st.one_of(st.integers(0, 30), st.integers(0, MASK64))
        sizing = data.draw(st.sampled_from([(20, 0.3), (50, 0.1), (500, 0.01)]))
        prefill = data.draw(st.lists(key, max_size=15))
        fps = data.draw(st.lists(key, min_size=1, max_size=25))
        n = len(fps)
        bloom, ref = BloomFilter(*sizing), BloomFilter(*sizing)
        for fp in prefill:
            bloom.add(fp)
            ref.add(fp)
        batch = bloom.begin_batch(np.asarray(fps, dtype=np.uint64))
        assert batch.snapshot == [fp in ref for fp in fps]
        idx = st.integers(0, n - 1)
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("contains"), idx),
                    st.tuples(st.just("add"), idx),
                    st.tuples(st.just("stage"), idx, idx),
                    st.tuples(st.just("rows"), st.lists(idx, max_size=6)),
                    st.tuples(st.just("flush")),
                ),
                max_size=40,
            )
        )
        for op in ops:
            if op[0] == "contains":
                assert batch.contains(op[1]) == (fps[op[1]] in ref)
            elif op[0] == "add":
                batch.add(op[1])
                ref.add(fps[op[1]])
            elif op[0] == "stage":
                lo, hi = min(op[1:]), max(op[1:]) + 1
                if batch.try_stage(lo, hi):
                    # a True answer promises every staged chunk was still
                    # absent when its scalar add would have run
                    for fp in fps[lo:hi]:
                        assert fp not in ref
                        ref.add(fp)
            elif op[0] == "rows":
                batch.add_rows(op[1])
                for i in op[1]:
                    ref.add(fps[i])
            else:
                batch.flush()
                assert np.array_equal(bloom._words, ref._words)
            assert bloom.n_added == ref.n_added
        batch.flush()
        assert np.array_equal(bloom._words, ref._words)
        assert [batch.contains(i) for i in range(n)] == [fp in ref for fp in fps]
