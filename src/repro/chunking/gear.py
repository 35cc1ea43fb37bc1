"""Gear-hash content-defined chunking, numpy-vectorized.

The Gear rolling hash is ``h_i = (h_{i-1} << 1) + G[b_i]  (mod 2^64)``
with a random 256-entry gear table ``G``; a boundary is declared where
``h_i & mask == 0`` (mask with ``b = log2(avg_size)`` low bits), subject
to min/max chunk-size clamps.

Because the left-shift discards bits past 64, the hash at position ``i``
depends only on the trailing 64 bytes:

    h_i = sum_{k=0..63} G[b_{i-k}] << k   (mod 2^64)

The cut test only reads ``h_i mod 2^b``. Mod ``2^b`` a term shifted by
``k >= b`` vanishes and only the low ``b`` bits of each table entry
survive, so

    h_i mod 2^b = sum_{k=0..b-1} (G[b_{i-k}] mod 2^b) << k   (mod 2^b)

Both paths walk the input in ``hash_block``-sized blocks, each seeded
with the context bytes its first position depends on, collect every
masked hit, and clamp once with the shared
:func:`repro.chunking.select.select_cuts`. Only the block evaluator
differs:

* **Exact reference** (``exact=True``): the full 64-bit lag sum,
  one vectorized pass per lag (64 passes), with ``WARMUP`` = 63 context
  bytes per block — transparent, definitionally obvious, and the oracle
  the default path is twin-run tested against.
* **Narrow lanes** (default): the ``b``-bit sum above in the smallest
  unsigned lane that holds ``b`` bits (uint16 at the default 8 KiB
  average), from a gear table narrowed once at construction, with
  ``b - 1`` context bytes per block. Shift-add doubling composes the
  ``b`` lags in ``ceil(log2 b)`` passes: after the pass with shift
  ``s`` every position holds the lag sum over its trailing ``2s``
  bytes, and shifts and wrapping adds are exact mod ``2^lane``. The
  low ``b`` bits therefore equal the exact hash's, so both paths cut
  **bit-identically** (property-tested).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from repro._util import KIB, check_positive, rng_from
from repro.chunking.base import Chunker
from repro.chunking.select import select_cuts

_U64 = np.uint64

#: the Gear hash at position i depends on bytes (i-63 .. i]; exact-path
#: blocks carry this many context bytes so blockwise hashes equal the
#: full sweep
WARMUP = 63

#: simulated CPU bandwidth for the informational chunking span, matching
#: ``repro.dedup.base.SegmentCost.cpu_seconds_per_byte`` (1/600e6) so the
#: bench phase breakdown prices chunking like the engines price their
#: analytic CPU term
_SIM_CPU_BYTES_PER_SECOND = 600e6


class ChunkScanStats(NamedTuple):
    """Byte accounting of one ``cut_boundaries`` call.

    Both paths test every position, so ``scan_bytes == bytes_in`` and
    ``skipped_bytes == 0``; ``warmup_bytes`` counts the context bytes
    re-hashed to seed each block after the first.
    """

    bytes_in: int
    chunks_out: int
    #: positions whose Gear hash was evaluated for boundary testing
    scan_bytes: int
    #: positions never hashed (always zero: no path skips positions)
    skipped_bytes: int
    #: context bytes re-hashed to seed hash blocks
    warmup_bytes: int
    #: positions whose masked hash is zero (cut candidates before clamping)
    candidates: int


def _gear_table(seed: int) -> np.ndarray:
    """The 256-entry random gear table, derived deterministically."""
    rng = rng_from(seed, "gear-table")
    return rng.integers(0, 2**64, size=256, dtype=np.uint64)


def _mask_for_average(avg_size: int) -> int:
    """Boundary mask with ``round(log2(avg))`` low bits set, so boundaries
    fire with probability 1/avg per position."""
    bits = max(1, int(round(np.log2(avg_size))))
    return (1 << bits) - 1


def _hashes_64pass(g: np.ndarray) -> np.ndarray:
    """Reference evaluation: the lag sum, one vectorized pass per lag.

    Prefix semantics at the array head (position ``i < 63`` sums lags
    ``0..i``), matching the rolling definition from a zero state.
    """
    h = np.zeros(g.size, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(64):
            if k >= g.size:
                break
            if k == 0:
                h += g
            else:
                h[k:] += g[:-k] << _U64(k)
    return h


class GearChunker(Chunker):
    """Content-defined chunker using the Gear rolling hash.

    Args:
        avg_size: target average chunk size (sets the boundary mask).
        min_size: no boundary closer than this to the previous cut.
        max_size: force a cut at this length if no boundary fired.
        seed: gear-table seed (two chunkers with the same seed cut
            identically — required for dedup to work at all).
        exact: use the reference 64-bit sweep (64 passes per block)
            instead of the default narrow-lane evaluation. Both produce
            bit-identical cut sequences.
        hash_block: block size in bytes of the streaming walk. Bounds
            peak temporaries; the default keeps a block's lanes in cache
            while amortizing per-block call overhead. Never affects the
            cuts.

    After every :meth:`cut_boundaries` call, :attr:`last_stats` holds the
    call's :class:`ChunkScanStats`; when an observability session is
    active, the same accounting lands on the ``chunking.*`` counters and
    the ``chunking.phase.cut`` span.
    """

    def __init__(
        self,
        avg_size: int = 8 * KIB,
        min_size: "int | None" = None,
        max_size: "int | None" = None,
        seed: int = 2012,
        *,
        exact: bool = False,
        hash_block: int = 64 * KIB,
    ) -> None:
        check_positive("avg_size", avg_size)
        self.avg_size = int(avg_size)
        self.min_size = int(min_size) if min_size is not None else self.avg_size // 4
        self.max_size = int(max_size) if max_size is not None else self.avg_size * 4
        if not 0 < self.min_size <= self.avg_size <= self.max_size:
            raise ValueError(
                f"need 0 < min <= avg <= max, got "
                f"{self.min_size}/{self.avg_size}/{self.max_size}"
            )
        self.seed = int(seed)
        self.exact = bool(exact)
        check_positive("hash_block", hash_block)
        self.hash_block = int(hash_block)
        self._table = _gear_table(seed)
        self._mask = _mask_for_average(self.avg_size)
        self.mask_bits = self._mask.bit_length()
        # the narrow-lane evaluator's table: the low mask_bits of every
        # gear entry, in the smallest unsigned lane that holds them
        lane = next(
            t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
            if np.iinfo(t).bits >= self.mask_bits
        )
        self._lanes = (self._table & _U64(self._mask)).astype(lane)
        # doubling shifts 1, 2, 4, ... until 2 * last >= mask_bits lags
        self._shifts = [1 << p for p in range((self.mask_bits - 1).bit_length())]
        self.last_stats: Optional[ChunkScanStats] = None

    def rolling_hashes(self, data: bytes) -> np.ndarray:
        """Exact 64-bit Gear hash at every byte position (vectorized).

        Evaluated block-wise with a ``WARMUP``-byte carry between blocks,
        so peak temporaries are bounded by ``hash_block`` regardless of
        input size (the output array itself is necessarily O(n)).
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        out = np.empty(buf.size, dtype=np.uint64)
        for start, stop, lo in self._hash_blocks(buf.size, WARMUP):
            out[start:stop] = self._eval_block(buf, lo, stop)[start - lo :]
        return out

    def _hash_blocks(self, n: int, warmup: int):
        """(start, stop, warmup_start) triples of the streaming walk."""
        block = self.hash_block
        for start in range(0, n, block):
            stop = min(start + block, n)
            yield start, stop, max(start - warmup, 0)

    def _eval_block(self, buf: np.ndarray, lo: int, stop: int) -> np.ndarray:
        """Exact hashes for positions ``[lo, stop)`` (reference 64-pass)."""
        return _hashes_64pass(self._table[buf[lo:stop]])

    def _lane_evaluator(self) -> Callable[[np.ndarray, int, int], np.ndarray]:
        """A narrow-lane block evaluator reusing two scratch buffers.

        ``evaluate(buf, lo, stop)`` returns lanes for positions
        ``[lo, stop)`` whose low ``mask_bits`` equal the exact hashes',
        given ``mask_bits - 1`` context bytes before the first position
        that is tested (or the input head at ``lo == 0``).
        """
        size = self.hash_block + self.mask_bits - 1
        h_buf = np.empty(size, dtype=self._lanes.dtype)
        shifted = np.empty_like(h_buf)

        def evaluate(buf: np.ndarray, lo: int, stop: int) -> np.ndarray:
            h = h_buf[: stop - lo]
            np.take(self._lanes, buf[lo:stop], out=h)
            for s in self._shifts:
                if s >= h.size:
                    break
                tail = shifted[: h.size - s]
                np.left_shift(h[:-s], s, out=tail)
                h[s:] += tail
            return h

        return evaluate

    def cut_boundaries(self, data: bytes) -> np.ndarray:
        buf = np.frombuffer(data, dtype=np.uint8)
        n = buf.size
        if self.exact:
            evaluate, warmup = self._eval_block, WARMUP
        else:
            evaluate, warmup = self._lane_evaluator(), self.mask_bits - 1
        hits = [np.zeros(0, dtype=np.int64)]
        warmup_bytes = 0
        for start, stop, lo in self._hash_blocks(n, warmup):
            h = evaluate(buf, lo, stop)[start - lo :]
            # candidate cut *after* position i  ->  boundary offset i+1
            hits.append(np.flatnonzero((h & self._mask) == 0) + (start + 1))
            warmup_bytes += start - lo
        candidates = np.concatenate(hits)
        cuts = select_cuts(candidates, n, self.min_size, self.max_size)
        self._record(
            ChunkScanStats(
                bytes_in=n,
                chunks_out=len(cuts) - 1,
                scan_bytes=n,
                skipped_bytes=0,
                warmup_bytes=warmup_bytes,
                candidates=int(candidates.size),
            )
        )
        return cuts

    def _record(self, stats: ChunkScanStats) -> None:
        """Stash per-call stats; mirror them to an active obs session.

        Recording never influences the cuts, so obs on/off runs stay
        byte-identical (the twin-run contract).
        """
        self.last_stats = stats
        from repro.obs import get_active

        obs = get_active()
        if not obs.enabled:
            return
        r = obs.registry
        r.counter("chunking.bytes_in").inc(stats.bytes_in)
        r.counter("chunking.chunks_out").inc(stats.chunks_out)
        r.counter("chunking.scan_bytes").inc(stats.scan_bytes)
        r.counter("chunking.skipped_bytes").inc(stats.skipped_bytes)
        r.counter("chunking.warmup_bytes").inc(stats.warmup_bytes)
        r.counter("chunking.candidates").inc(stats.candidates)
        obs.span(
            "chunking.phase.cut", stats.bytes_in / _SIM_CPU_BYTES_PER_SECOND
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GearChunker(avg={self.avg_size}, min={self.min_size}, "
            f"max={self.max_size}, seed={self.seed}, "
            f"{'exact' if self.exact else 'narrow-lane'})"
        )
