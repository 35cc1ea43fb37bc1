"""Chunk fingerprints.

Real systems use SHA-1; for simulation we use 64-bit fingerprints:

* byte-level path: BLAKE2b-64 of the chunk contents (collision odds at
  simulation scales are negligible, ~n^2 / 2^65);
* chunk-level path: :func:`splitmix64` of a globally unique counter —
  splitmix64 is a bijection on 64-bit ints, so distinct counters can
  never collide while still looking uniformly random to the index
  structures (bloom filters, hash tables) that consume them;
* batch byte-level path: :func:`fingerprint_segments_fast` — a
  vectorized position-mixed word fold (splitmix64 family). The per-byte
  Python cost of BLAKE2b slicing dominates high-throughput ingest, so
  the byte-level workload path uses this fold instead: every 8-byte
  word is mixed with its in-segment position, XOR-folded per segment
  with ``np.bitwise_xor.reduceat`` over L2-sized batches, and finalized
  with the segment length. Not BLAKE2b-compatible — a parallel
  fingerprint *family* (collision odds are the same birthday bound
  either way). The fold, :func:`splitmix64_array` and the bloom
  filter's probes share one in-place kernel, :func:`_splitmix64_inplace`.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def fingerprint64(data: bytes) -> int:
    """64-bit BLAKE2b fingerprint of ``data``."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def fingerprint_segments(data: bytes, boundaries: Sequence[int]) -> np.ndarray:
    """Fingerprint each ``data[boundaries[i]:boundaries[i+1]]`` slice.

    Args:
        data: the raw byte stream.
        boundaries: monotonically increasing cut offsets, beginning with 0
            and ending with ``len(data)`` (as produced by chunkers).

    Returns:
        uint64 array of per-chunk fingerprints.
    """
    view = memoryview(data)
    n = len(boundaries) - 1
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        out[i] = fingerprint64(bytes(view[boundaries[i] : boundaries[i + 1]]))
    return out


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a fast 64-bit bijective mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


#: splitmix64 constants as uint64 scalars for the array kernel
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31 = _U64(30), _U64(27), _U64(31)

#: words per :func:`splitmix64_array` block: 256 KiB, so the block and
#: its scratch stay in L2 through the kernel's passes
_MIX_BLOCK_WORDS = 32 * 1024


def _splitmix64_inplace(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` over the uint64 array ``x``, in place.

    ``scratch`` is a uint64 array of ``x``'s shape whose contents are
    overwritten. numpy wraps uint64 *array* arithmetic modulo 2**64
    without an overflow warning (only scalar arithmetic warns), so no
    ``errstate`` is needed. Returns ``x``.
    """
    x += _GAMMA
    np.right_shift(x, _S30, out=scratch)
    x ^= scratch
    x *= _MUL1
    np.right_shift(x, _S27, out=scratch)
    x ^= scratch
    x *= _MUL2
    np.right_shift(x, _S31, out=scratch)
    x ^= scratch
    return x


def splitmix64_array(x: "np.ndarray | Sequence[int]") -> np.ndarray:
    """Vectorized :func:`splitmix64`: a new uint64 array of ``x``'s
    shape; ``x`` itself is never modified."""
    out = np.array(x, dtype=np.uint64, order="C")
    flat = out.reshape(-1)
    scratch = np.empty(min(flat.size, _MIX_BLOCK_WORDS), dtype=np.uint64)
    for lo in range(0, flat.size, _MIX_BLOCK_WORDS):
        block = flat[lo : lo + _MIX_BLOCK_WORDS]
        _splitmix64_inplace(block, scratch[: block.size])
    return out


def fingerprint64_fast(data: bytes) -> int:
    """Scalar reference for the word-fold fingerprint family.

    Zero-pad ``data`` to 8-byte little-endian words, mix each word with
    its word index, XOR-fold, finalize with the byte length. The batch
    implementation (:func:`fingerprint_segments_fast`) must match this
    bit-for-bit.
    """
    length = len(data)
    n_words = (length + 7) // 8
    padded = data + b"\x00" * (8 * n_words - length)
    acc = 0
    for k in range(n_words):
        word = int.from_bytes(padded[8 * k : 8 * k + 8], "little")
        acc ^= splitmix64(word ^ splitmix64(k + 1))
    return splitmix64(acc ^ splitmix64(length))


#: default batch granularity for the vectorized fold: ~256 KiB of
#: segment bytes, so every per-batch temporary stays in L2 instead of
#: streaming through DRAM once per numpy pass
_FAST_BATCH_BYTES = 256 * 1024

#: ``splitmix64(k + 1)`` for in-segment word index ``k``: the fold's
#: position mix, gathered instead of recomputed per word. Built at import
#: for segments up to 32 KiB (the default Gear maximum chunk), before any
#: fold temporaries exist: a small long-lived table allocated between
#: them pins freed heap memory (+11 MB peak RSS on the 12 MiB byte-level
#: buffers). :func:`_position_mix` grows it for longer segments.
_POSITION_MIX = splitmix64_array(np.arange(1, 4096 + 1, dtype=np.uint64))


def _position_mix(n_words: int) -> np.ndarray:
    """The position-mix table covering word indices ``0 .. n_words - 1``,
    grown to the next power of two when a longer segment arrives."""
    global _POSITION_MIX
    table = _POSITION_MIX
    if table.size < n_words:
        size = 1 << (n_words - 1).bit_length()
        table = splitmix64_array(np.arange(1, size + 1, dtype=np.uint64))
        _POSITION_MIX = table
    return table


def fingerprint_segments_fast(
    data: bytes,
    boundaries: "Sequence[int] | np.ndarray",
    *,
    batch_bytes: int = _FAST_BATCH_BYTES,
) -> np.ndarray:
    """Vectorized word-fold fingerprints for every segment at once.

    Same contract as :func:`fingerprint_segments` (strictly increasing
    boundaries from 0 to ``len(data)``) but a different fingerprint
    *family*: bit-identical to :func:`fingerprint64_fast` per segment,
    not to BLAKE2b. Segments are folded in batches of whole segments
    spanning about ``batch_bytes`` (a single longer segment is a batch
    of its own), so temporaries are bounded regardless of input size;
    the batch size never changes the values.
    """
    bounds = np.asarray(boundaries, dtype=np.int64)
    n_seg = bounds.size - 1
    out = np.empty(max(n_seg, 0), dtype=np.uint64)
    if n_seg <= 0:
        return out
    buf = np.frombuffer(data, dtype=np.uint8)
    sizes = np.diff(bounds)
    if int(sizes.min()) <= 0:
        raise ValueError("boundaries must be strictly increasing")
    lo = 0
    while lo < n_seg:
        # widest batch of whole segments whose span fits batch_bytes
        hi = int(np.searchsorted(bounds, bounds[lo] + batch_bytes, side="left"))
        hi = max(min(hi, n_seg), lo + 1)
        _fold_batch(buf, bounds[lo : hi + 1], out[lo:hi])
        lo = hi
    # finalize every segment with its byte length in one pass
    length_mix = splitmix64_array(sizes)
    out ^= length_mix
    return _splitmix64_inplace(out, length_mix)


def _fold_batch(buf: np.ndarray, bounds: np.ndarray, out: np.ndarray) -> None:
    """XOR-fold the position-mixed words of each segment delimited by
    ``bounds`` into ``out``, before the length finalizer."""
    sizes = np.diff(bounds)
    words = (sizes + 7) // 8
    # exclusive word-start offsets per segment, plus total
    wstarts = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(words, out=wstarts[1:])
    total_words = int(wstarts[-1])
    padded = np.zeros(total_words * 8, dtype=np.uint8)
    # move each segment's bytes to its word-aligned padded position: a
    # per-segment memcpy loop for realistic chunk sizes (loop overhead is
    # per *chunk*, copy cost is C), a fully vectorized byte scatter when
    # segments are so tiny that per-segment Python overhead would win
    n_span = int(bounds[-1] - bounds[0])
    pstarts = 8 * wstarts[:-1]
    if n_span >= 64 * sizes.size:
        for i in range(sizes.size):
            s = int(bounds[i])
            length = int(sizes[i])
            p = int(pstarts[i])
            padded[p : p + length] = buf[s : s + length]
    else:
        src = np.arange(n_span, dtype=np.int64)
        src += np.repeat(pstarts - (bounds[:-1] - bounds[0]), sizes)
        padded[src] = buf[bounds[0] : bounds[-1]]
        del src
    wview = padded.view("<u8")
    # in-segment word index of every word, then its position mix XORed
    # in; the index array is dead after the gather, so it is the mixing
    # kernel's scratch
    idx = np.arange(total_words, dtype=np.int64)
    idx -= np.repeat(wstarts[:-1], words)
    wview ^= _position_mix(int(words.max())).take(idx)
    _splitmix64_inplace(wview, idx.view(np.uint64))
    np.bitwise_xor.reduceat(wview, wstarts[:-1], out=out)
