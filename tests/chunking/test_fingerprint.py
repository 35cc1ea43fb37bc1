import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.fingerprint import (
    _MIX_BLOCK_WORDS,
    _splitmix64_inplace,
    fingerprint64,
    fingerprint_segments,
    splitmix64,
    splitmix64_array,
)

B = _MIX_BLOCK_WORDS
#: array sizes around the block size of ``splitmix64_array``
BLOCK_EDGE_SIZES = (0, 1, B - 1, B, B + 1, 3 * B + 7)
EDGE_WORDS = (0, 1, 2**31, 2**63 - 1, 2**63, 2**64 - 1)


class TestFingerprint64:
    def test_deterministic(self):
        assert fingerprint64(b"hello") == fingerprint64(b"hello")

    def test_content_sensitive(self):
        assert fingerprint64(b"hello") != fingerprint64(b"hellp")

    def test_64bit_range(self):
        v = fingerprint64(b"x" * 1000)
        assert 0 <= v < 2**64

    def test_empty_input_ok(self):
        assert isinstance(fingerprint64(b""), int)


class TestFingerprintSegments:
    def test_matches_scalar(self):
        data = b"abcdefghij"
        fps = fingerprint_segments(data, [0, 3, 7, 10])
        assert fps[0] == fingerprint64(b"abc")
        assert fps[1] == fingerprint64(b"defg")
        assert fps[2] == fingerprint64(b"hij")

    def test_count(self):
        data = bytes(100)
        fps = fingerprint_segments(data, [0, 50, 100])
        assert fps.shape == (2,)
        assert fps.dtype == np.uint64

    def test_identical_content_identical_fp(self):
        data = b"samesame"
        fps = fingerprint_segments(data, [0, 4, 8])
        assert fps[0] == fps[1]


class TestSplitmix64:
    def test_bijective_no_collisions_in_range(self):
        xs = list(range(10000))
        ys = {splitmix64(x) for x in xs}
        assert len(ys) == len(xs)

    def test_array_matches_scalar(self):
        xs = np.arange(1000, dtype=np.uint64)
        arr = splitmix64_array(xs)
        for i in (0, 1, 42, 999):
            assert int(arr[i]) == splitmix64(i)

    def test_uniform_high_bits(self):
        # top bit should be ~50% set over sequential inputs
        arr = splitmix64_array(np.arange(4096, dtype=np.uint64))
        frac = float((arr >> np.uint64(63)).mean())
        assert 0.45 < frac < 0.55

    def test_large_input_wraps(self):
        big = (1 << 64) - 1
        assert 0 <= splitmix64(big) < 2**64


class TestSplitmix64Kernel:
    """The in-place kernel and the blocked ``splitmix64_array`` equal
    the scalar reference word for word, at every size around the block
    size, and ``splitmix64_array`` never mutates its input."""

    @staticmethod
    def words(n: int, seed: int) -> np.ndarray:
        xs = np.random.default_rng(seed).integers(
            0, 2**64, n, dtype=np.uint64, endpoint=False
        )
        xs[: len(EDGE_WORDS)] = EDGE_WORDS[: n]
        return xs

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from(BLOCK_EDGE_SIZES), seed=st.integers(0, 2**32 - 1))
    def test_array_matches_scalar_around_the_block_size(self, n, seed):
        xs = self.words(n, seed)
        before = xs.copy()
        got = splitmix64_array(xs)
        np.testing.assert_array_equal(xs, before)
        assert got.dtype == np.uint64 and got.shape == xs.shape
        assert not np.shares_memory(got, xs)
        # spot-check every block edge plus a random sample
        picks = {0, n - 1, B - 1, B, B + 1, 2 * B, 3 * B} | set(
            np.random.default_rng(seed).integers(0, max(n, 1), 64).tolist()
        )
        for i in sorted(p for p in picks if 0 <= p < n):
            assert int(got[i]) == splitmix64(int(xs[i]))

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from(BLOCK_EDGE_SIZES), seed=st.integers(0, 2**32 - 1))
    def test_inplace_kernel_matches_array(self, n, seed):
        xs = self.words(n, seed)
        expected = splitmix64_array(xs)
        scratch = np.empty_like(xs)
        assert _splitmix64_inplace(xs, scratch) is xs
        np.testing.assert_array_equal(xs, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(
            st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1)),
            max_size=50,
        )
    )
    def test_list_input(self, xs):
        assert splitmix64_array(xs).tolist() == [splitmix64(x) for x in xs]

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50),
        shape2d=st.booleans(),
    )
    def test_int64_input_wraps_like_uint64(self, xs, shape2d):
        arr = np.asarray(xs, dtype=np.int64)
        if shape2d and arr.size % 2 == 0:
            arr = arr.reshape(2, -1).T  # non-contiguous view
        before = arr.copy()
        got = splitmix64_array(arr)
        np.testing.assert_array_equal(arr, before)
        assert got.shape == arr.shape
        assert got.ravel().tolist() == [
            splitmix64(int(x) & (2**64 - 1)) for x in arr.ravel()
        ]

    def test_2d_kernel_input(self):
        """The bloom filter runs the kernel over an ``(n, 2)`` array."""
        xs = self.words(20, 5).reshape(10, 2)
        expected = [[splitmix64(int(v)) for v in row] for row in xs]
        _splitmix64_inplace(xs, np.empty_like(xs))
        assert xs.tolist() == expected

    @pytest.mark.parametrize("n", [0, 1, B + 1])
    def test_never_warns(self, n, recwarn):
        splitmix64_array(np.full(n, 2**64 - 1, dtype=np.uint64))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
