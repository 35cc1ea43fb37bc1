"""Narrow-lane Gear path: bit-identical to the exact reference sweep.

The contract: ``GearChunker()`` (masked hash bits only, in narrow
lanes) and ``GearChunker(exact=True)`` (the 64-pass full 64-bit sweep)
produce the same cut sequence on every input, for every mask width and
block size — the block size tunes memory and speed, never the cuts.
Property-tested here with twin runs, plus the shared
:func:`select_cuts` clamp against a naive scalar reference, the
documented edge cases, bounded-allocation streaming, and the exact byte
accounting behind the ``chunking.*`` counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.gear import WARMUP, GearChunker
from repro.chunking.select import select_cuts
from repro.obs import obs_session


def random_bytes(n: int, seed: int = 0) -> bytes:
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


#: averages covering tiny masks (2 and 4 bits, uint8 lanes), the uint16
#: lane, and masks wider than 16 bits (17 and 20 bits, uint32 lanes)
AVERAGES = [4, 16, 256, 1024, 4096, 2**17, 2**20]


class TestTwinRun:
    """fast path == exact path, cut for cut."""

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(0, 40_000),
        data_seed=st.integers(0, 2**31 - 1),
        avg=st.sampled_from(AVERAGES),
        fast_block=st.sampled_from([64, 1000, 4096, 1 << 16]),
        hash_block=st.sampled_from([4096, 1 << 20]),
    )
    def test_random_buffers(self, n, data_seed, avg, fast_block, hash_block):
        data = random_bytes(n, data_seed)
        fast = GearChunker(avg_size=avg, seed=7, hash_block=fast_block)
        exact = GearChunker(avg_size=avg, seed=7, exact=True, hash_block=hash_block)
        np.testing.assert_array_equal(
            fast.cut_boundaries(data), exact.cut_boundaries(data)
        )

    @pytest.mark.parametrize("avg", AVERAGES)
    def test_lanes_equal_low_hash_bits(self, avg):
        """Every position's lane holds the exact hash's low mask bits,
        not only the zero/non-zero test: wide masks rarely fire on test-
        sized inputs, so cut equality alone would barely touch them."""
        data = random_bytes(50_000, seed=avg)
        chunker = GearChunker(avg_size=avg, hash_block=4096)
        evaluate = chunker._lane_evaluator()
        mask = (1 << chunker.mask_bits) - 1
        buf = np.frombuffer(data, dtype=np.uint8)
        lanes = np.empty(buf.size, dtype=np.uint64)
        for start, stop, lo in chunker._hash_blocks(buf.size, chunker.mask_bits - 1):
            lanes[start:stop] = evaluate(buf, lo, stop)[start - lo :] & mask
        np.testing.assert_array_equal(
            lanes, chunker.rolling_hashes(data) & np.uint64(mask)
        )

    @settings(deadline=None, max_examples=60)
    @given(data=st.binary(max_size=20_000))
    def test_arbitrary_bytes(self, data):
        """Structured/repetitive inputs (hypothesis loves runs of one
        byte) exercise the degenerate-hash corners random data misses."""
        fast = GearChunker(avg_size=512)
        exact = GearChunker(avg_size=512, exact=True)
        np.testing.assert_array_equal(
            fast.cut_boundaries(data), exact.cut_boundaries(data)
        )

    @settings(deadline=None, max_examples=25)
    @given(
        data_seed=st.integers(0, 1000),
        min_frac=st.sampled_from([1, 2, 4]),
        max_frac=st.sampled_from([1, 2, 4]),
    )
    def test_nondefault_clamps(self, data_seed, min_frac, max_frac):
        """min/avg/max ratios other than the 1/4 .. 4x defaults."""
        avg = 1024
        kwargs = dict(
            avg_size=avg, min_size=avg // min_frac, max_size=avg * max_frac
        )
        data = random_bytes(12_000, data_seed)
        np.testing.assert_array_equal(
            GearChunker(**kwargs).cut_boundaries(data),
            GearChunker(**kwargs, exact=True).cut_boundaries(data),
        )


class TestSelectCuts:
    """The shared vectorized clamp against a naive scalar walk."""

    @staticmethod
    def naive(candidates, n, min_size, max_size):
        cuts = [0]
        last = 0
        cand = [int(c) for c in candidates]
        while last < n:
            limit = last + max_size
            cut = next(
                (c for c in cand if last + min_size <= c < limit), None
            )
            if cut is None:
                cut = min(limit, n)
            if cut >= n:
                cut = n
            cuts.append(cut)
            last = cut
        return cuts

    @settings(deadline=None, max_examples=150)
    @given(
        n=st.integers(0, 5000),
        min_size=st.integers(1, 400),
        extra=st.integers(0, 2000),
        cand=st.sets(st.integers(1, 5000), max_size=200),
    )
    def test_matches_naive_walk(self, n, min_size, extra, cand):
        max_size = min_size + extra
        candidates = np.asarray(
            sorted(c for c in cand if c <= n), dtype=np.int64
        )
        got = select_cuts(candidates, n, min_size, max_size)
        assert got.tolist() == self.naive(candidates, n, min_size, max_size)

    def test_empty_input(self):
        assert select_cuts(np.zeros(0, np.int64), 0, 10, 40).tolist() == [0]

    def test_no_candidates_forces_max(self):
        got = select_cuts(np.zeros(0, np.int64), 250, 10, 100)
        assert got.tolist() == [0, 100, 200, 250]


class TestEdgeCases:
    def test_empty_input(self):
        for chunker in (GearChunker(), GearChunker(exact=True)):
            assert chunker.cut_boundaries(b"").tolist() == [0]
            stats = chunker.last_stats
            assert stats is not None and stats.bytes_in == 0
            assert stats.chunks_out == 0

    def test_input_shorter_than_min_size(self):
        data = random_bytes(100)
        for chunker in (
            GearChunker(avg_size=1024),
            GearChunker(avg_size=1024, exact=True),
        ):
            assert chunker.cut_boundaries(data).tolist() == [0, 100]
            assert chunker.last_stats.chunks_out == 1

    def test_zero_candidates_means_forced_max_cuts(self):
        """A constant buffer whose steady-state hash misses the mask has
        no content cuts at all: every boundary is a forced max cut."""
        n = 20_000
        exact = GearChunker(avg_size=1024, seed=2012, exact=True)
        for b in range(256):
            data = bytes([b]) * n
            exact_cuts = exact.cut_boundaries(data)
            if exact.last_stats.candidates == 0:
                break
        else:  # pragma: no cover - (1023/1024)^256 chance per seed
            pytest.skip("every constant byte fires the mask for this seed")
        fast = GearChunker(avg_size=1024, seed=2012)
        cuts = fast.cut_boundaries(data)
        np.testing.assert_array_equal(cuts, exact_cuts)
        max_size = 4096
        assert cuts.tolist() == list(range(0, n, max_size)) + [n]
        assert fast.last_stats.candidates == 0

    def test_degenerate_min_avg_max_equal(self):
        """min == avg == max degenerates to fixed-size chunking."""
        data = random_bytes(5000, seed=9)
        fast = GearChunker(avg_size=512, min_size=512, max_size=512)
        exact = GearChunker(avg_size=512, min_size=512, max_size=512, exact=True)
        cuts = fast.cut_boundaries(data)
        np.testing.assert_array_equal(cuts, exact.cut_boundaries(data))
        assert cuts.tolist() == list(range(0, 5000, 512)) + [5000]

    def test_rejects_bad_clamps(self):
        with pytest.raises(ValueError):
            GearChunker(avg_size=1024, min_size=2048)
        with pytest.raises(ValueError):
            GearChunker(avg_size=1024, max_size=512)
        with pytest.raises(ValueError):
            GearChunker(avg_size=1024, hash_block=0)


class TestBlockSizeIndependence:
    def test_10mb_determinism_across_block_sizes(self):
        """One 10 MB buffer, many block-size knobs, one cut sequence."""
        data = random_bytes(10 * 1024 * 1024, seed=42)
        reference = GearChunker().cut_boundaries(data)
        assert reference.size > 100  # sanity: real chunking happened
        for hash_block in (257, 1024, 8192, 32 * 1024):
            got = GearChunker(hash_block=hash_block).cut_boundaries(data)
            np.testing.assert_array_equal(got, reference)
        # and a second identical run is bit-identical (determinism)
        np.testing.assert_array_equal(
            GearChunker().cut_boundaries(data), reference
        )

    def test_exact_path_blockwise_matches_one_shot(self):
        data = random_bytes(100_000, seed=5)
        small = GearChunker(avg_size=1024, exact=True, hash_block=4096)
        big = GearChunker(avg_size=1024, exact=True, hash_block=1 << 26)
        np.testing.assert_array_equal(
            small.cut_boundaries(data), big.cut_boundaries(data)
        )
        np.testing.assert_array_equal(
            small.rolling_hashes(data), big.rolling_hashes(data)
        )


class TestBoundedAllocation:
    def test_exact_path_slices_bounded_by_hash_block(self, monkeypatch):
        """The streaming sweep never materializes a slice larger than
        ``hash_block + WARMUP`` bytes, however large the input."""
        hash_block = 8192
        n = 200_000
        sizes = []
        orig = GearChunker._eval_block

        def spy(self, buf, lo, stop):
            sizes.append(stop - lo)
            return orig(self, buf, lo, stop)

        monkeypatch.setattr(GearChunker, "_eval_block", spy)
        chunker = GearChunker(avg_size=1024, exact=True, hash_block=hash_block)
        chunker.cut_boundaries(random_bytes(n, seed=3))
        assert len(sizes) == -(-n // hash_block)
        assert max(sizes) <= hash_block + WARMUP

    def test_rolling_hashes_slices_bounded(self, monkeypatch):
        hash_block = 4096
        n = 50_000
        sizes = []
        orig = GearChunker._eval_block
        monkeypatch.setattr(
            GearChunker,
            "_eval_block",
            lambda self, buf, lo, stop: (
                sizes.append(stop - lo),
                orig(self, buf, lo, stop),
            )[1],
        )
        GearChunker(hash_block=hash_block).rolling_hashes(random_bytes(n))
        assert sizes and max(sizes) <= hash_block + WARMUP


class TestScanStats:
    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(0, 60_000),
        data_seed=st.integers(0, 500),
        hash_block=st.sampled_from([64, 1024, 8192]),
    )
    def test_byte_accounting_partitions_input(self, n, data_seed, hash_block):
        """scan + skipped == bytes_in exactly, on every input."""
        data = random_bytes(n, data_seed)
        chunker = GearChunker(avg_size=1024, hash_block=hash_block)
        cuts = chunker.cut_boundaries(data)
        s = chunker.last_stats
        assert s.bytes_in == n
        assert s.scan_bytes + s.skipped_bytes == n
        assert s.scan_bytes >= 0 and s.skipped_bytes >= 0
        assert s.warmup_bytes >= 0
        assert s.chunks_out == cuts.size - 1

    @pytest.mark.parametrize("n", [1, 4096, 4097, 1_000_003])
    def test_scan_and_warmup_accounting_pinned(self, n):
        """Both paths test every position, and each block after the first
        re-hashes exactly its context: mask_bits - 1 bytes on the
        narrow-lane path, WARMUP on the exact path."""
        data = random_bytes(n, seed=17)
        for exact in (False, True):
            chunker = GearChunker(exact=exact, hash_block=4096)
            chunker.cut_boundaries(data)
            s = chunker.last_stats
            n_blocks = -(-n // chunker.hash_block)
            context = WARMUP if exact else chunker.mask_bits - 1
            assert s.scan_bytes == s.bytes_in == n
            assert s.skipped_bytes == 0
            assert s.warmup_bytes == context * (n_blocks - 1)

    @pytest.mark.parametrize("avg", [16, 1024, 8192])
    def test_candidates_match_rolling_hashes(self, avg):
        """``candidates`` counts every position whose exact masked hash
        is zero, on both paths."""
        data = random_bytes(300_000, seed=avg)
        reference = GearChunker(avg_size=avg)
        mask = np.uint64((1 << reference.mask_bits) - 1)
        expected = int(((reference.rolling_hashes(data) & mask) == 0).sum())
        assert expected > 0
        for exact in (False, True):
            chunker = GearChunker(avg_size=avg, exact=exact, hash_block=4096)
            chunker.cut_boundaries(data)
            assert chunker.last_stats.candidates == expected

    def test_exact_path_scans_everything(self):
        data = random_bytes(100_000, seed=1)
        chunker = GearChunker(avg_size=1024, exact=True)
        chunker.cut_boundaries(data)
        s = chunker.last_stats
        assert s.scan_bytes == s.bytes_in == 100_000
        assert s.skipped_bytes == 0


class TestObsTwinRun:
    def test_recording_never_changes_cuts(self):
        data = random_bytes(300_000, seed=11)
        plain = GearChunker(avg_size=2048).cut_boundaries(data)
        with obs_session() as obs:
            recorded = GearChunker(avg_size=2048).cut_boundaries(data)
        np.testing.assert_array_equal(plain, recorded)
        snap = obs.registry.snapshot()
        counters = snap["counters"]
        assert counters["chunking.bytes_in"] == len(data)
        assert (
            counters["chunking.scan_bytes"] + counters["chunking.skipped_bytes"]
            == len(data)
        )
        assert counters["chunking.chunks_out"] == plain.size - 1
        span = snap["spans"]["chunking.phase.cut"]
        assert span["count"] == 1
        assert span["sim_seconds"] > 0

    def test_disabled_session_records_nothing(self):
        chunker = GearChunker(avg_size=2048)
        chunker.cut_boundaries(random_bytes(10_000))
        # no ambient session: the only trace is last_stats
        assert chunker.last_stats is not None
