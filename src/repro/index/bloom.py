"""Bloom filter ("summary vector" in DDFS).

A RAM bit array that answers "definitely new" / "possibly seen" for chunk
fingerprints, letting the engine skip the on-disk index for the common
new-chunk case. Implemented over a numpy uint64 word array with
double-hashing (Kirsch–Mitzenmacher): k probe positions derived from two
independent 64-bit mixes of the fingerprint. All operations come in
scalar and vectorized (array) forms, plus a per-segment
:class:`BloomBatch` that hashes a segment once for a whole ingest walk.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_fraction, check_positive
from repro.chunking.fingerprint import _splitmix64_inplace

_U64 = np.uint64
_ONE = _U64(1)
_SIX = _U64(6)
_LOW6 = _U64(63)
# the two independent mixes are splitmix64 of the key XOR each salt
_SALTS = np.array([0xA5A5A5A5A5A5A5A5, 0x5EED5EED5EED5EED], dtype=np.uint64)


class BloomFilter:
    """Bloom filter sized for ``capacity`` entries at ``fp_rate``.

    Attributes:
        n_bits: bit-array width.
        n_hashes: probes per key.
        n_added: keys inserted so far.
    """

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        check_positive("capacity", capacity)
        check_fraction("fp_rate", fp_rate)
        if fp_rate in (0.0, 1.0):
            raise ValueError("fp_rate must be strictly inside (0, 1)")
        self.capacity = int(capacity)
        self.fp_rate = float(fp_rate)
        ln2 = math.log(2.0)
        n_bits = max(64, int(math.ceil(-capacity * math.log(fp_rate) / (ln2 * ln2))))
        self.n_bits = n_bits
        self.n_hashes = max(1, int(round((n_bits / capacity) * ln2)))
        self._words = np.zeros((n_bits + 63) // 64, dtype=np.uint64)
        self.n_added = 0
        self._ks = np.arange(self.n_hashes, dtype=np.uint64)
        self._modulus = _U64(n_bits)

    # -- hashing --------------------------------------------------------

    def _positions(self, fps: np.ndarray) -> np.ndarray:
        """(n, k) uint64 array of bit positions for each fingerprint:
        ``(h1 + j * (h2 | 1)) mod n_bits`` for ``j < k``, where ``h1`` and
        ``h2`` are splitmix64 of the key XOR each salt.

        Both mixes run as one pass of the in-place splitmix64 kernel
        over an ``(n, 2)`` array.
        """
        h = np.asarray(fps, dtype=np.uint64)[:, None] ^ _SALTS
        _splitmix64_inplace(h, np.empty_like(h))
        h[:, 1] |= _ONE
        pos = h[:, 1:] * self._ks
        pos += h[:, :1]
        pos %= self._modulus
        return pos

    def _rows_bits(self, pos: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Word index and in-word bit mask of each probe position."""
        return (pos >> _SIX).astype(np.int64), _ONE << (pos & _LOW6)

    # -- scalar API -----------------------------------------------------

    def add(self, fp: int) -> None:
        """Insert one fingerprint."""
        self.add_many(np.asarray([fp], dtype=np.uint64))

    def __contains__(self, fp: int) -> bool:
        return bool(self.contains_many(np.asarray([fp], dtype=np.uint64))[0])

    # -- vectorized API ---------------------------------------------------

    def add_many(self, fps: np.ndarray) -> None:
        """Insert an array of fingerprints."""
        fps = np.asarray(fps, dtype=np.uint64)
        rows, bits = self._rows_bits(self._positions(fps))
        np.bitwise_or.at(self._words, rows.ravel(), bits.ravel())
        self.n_added += int(fps.size)

    def contains_many(self, fps: np.ndarray) -> np.ndarray:
        """Boolean membership array for ``fps``."""
        rows, bits = self._rows_bits(self._positions(fps))
        return ((self._words[rows] & bits) != 0).all(axis=1)

    # -- segment batching -------------------------------------------------

    def begin_batch(self, fps: np.ndarray) -> "BloomBatch":
        """Precompute the probe positions of one segment's fingerprints.

        The returned :class:`BloomBatch` answers per-chunk membership and
        performs per-chunk inserts against *this* filter without re-hashing,
        so an engine's batch ingest path pays the double-hashing cost once
        per segment instead of once per chunk. Results are bit-identical to
        the scalar ``fp in bloom`` / ``add(fp)`` sequence, including the
        case where an ``add`` earlier in the segment flips a later chunk's
        membership (a same-segment-induced false positive).
        """
        return BloomBatch(self, fps)

    # -- introspection ----------------------------------------------------

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        set_bits = int(np.unpackbits(self._words.view(np.uint8)).sum())
        return set_bits / self.n_bits

    def expected_fp_rate(self) -> float:
        """Theoretical false-positive rate at the current load."""
        return (1.0 - math.exp(-self.n_hashes * self.n_added / self.n_bits)) ** self.n_hashes

    @property
    def ram_bytes(self) -> int:
        """RAM footprint of the bit array."""
        return int(self._words.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomFilter(capacity={self.capacity}, bits={self.n_bits}, "
            f"k={self.n_hashes}, added={self.n_added})"
        )


class BloomBatch:
    """One segment's fingerprints, hashed once, probed per chunk.

    ``contains(i)`` / ``add(i)`` / ``add_rows(idx)`` refer to positions in
    the array handed to :meth:`BloomFilter.begin_batch`; the batch assumes
    nothing else writes the filter while it is open. Membership uses the
    snapshot taken at construction (bits never clear, so a set bit stays
    authoritative) plus the batch's own inserts — the only way a
    snapshot-absent chunk's answer can change mid-segment. Inserts are
    held in the batch (a per-word pending dict for scalar adds, row
    blocks for bulk adds) and folded into the filter's word array by
    :meth:`flush`, which the caller must call at the end of the walk.

    Attributes:
        snapshot: per-fingerprint membership at batch start (a list of
            bools, for per-chunk reads in Python walks).
        dirty: True once the batch has inserted anything, i.e. once a
            ``False`` in ``snapshot`` may be stale and only
            :meth:`contains` is authoritative.
    """

    __slots__ = (
        "_bloom",
        "_pos",
        "_rows",
        "_bits",
        "_hit",
        "_member",
        "snapshot",
        "dirty",
        "_pending",
        "_staged",
        "_added",
    )

    def __init__(self, bloom: BloomFilter, fps: np.ndarray) -> None:
        self._bloom = bloom
        pos = bloom._positions(fps)
        rows, bits = bloom._rows_bits(pos)
        # per-probe snapshot answers: bits never clear, so a snapshot-set
        # probe stays set and only snapshot-unset probes can be flipped
        # (by an insert of this batch). Rows stay numpy arrays; the
        # per-chunk paths convert one row at a time, when they need it.
        hit = (bloom._words[rows] & bits) != 0
        self._pos = pos
        self._rows = rows
        self._bits = bits
        self._hit = hit
        self._member = hit.all(axis=1)
        self.snapshot: list = self._member.tolist()
        self.dirty = False
        self._pending: dict = {}
        # bulk inserts (index selections into the batch) not yet folded
        # into _pending; _added holds every insert's selection, for
        # try_stage's coverage check
        self._staged: list = []
        self._added: list = []

    def negatives(self) -> np.ndarray:
        """Boolean mask of the chunks whose *snapshot* membership is
        negative (the only chunks an insert of this batch could flip)."""
        return ~self._member

    def contains(self, i: int) -> bool:
        """Membership of fingerprint ``i``, as of now (not batch start)."""
        if self.snapshot[i]:
            return True
        if not self.dirty:
            return False
        if self._staged:
            self._materialize()
        get = self._pending.get
        for row, bit, h in zip(
            self._rows[i].tolist(), self._bits[i].tolist(), self._hit[i].tolist()
        ):
            if not h and not get(row, 0) & bit:
                return False
        return True

    def add(self, i: int) -> None:
        """Insert fingerprint ``i`` (visible to later ``contains`` calls)."""
        pending = self._pending
        get = pending.get
        for row, bit in zip(self._rows[i].tolist(), self._bits[i].tolist()):
            pending[row] = get(row, 0) | bit
        self._added.append(i)
        self._bloom.n_added += 1
        self.dirty = True

    def add_rows(self, idx) -> None:
        """Insert the fingerprints at positions ``idx`` in one block —
        ``add(i)`` for each, without a per-chunk loop (a repeated
        position counts once per occurrence, as repeated ``add`` calls
        do)."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size == 0:
            return
        self._stage(idx)

    def try_stage(self, lo: int, hi: int) -> bool:
        """Stage the inserts of chunks ``[lo, hi)`` in one batch — but only
        if every one of them is *provably* still absent, i.e. each has a
        snapshot-unset probe that no other insert of this batch (staged,
        scalar, or a peer inside the run itself) could have set. Returns
        False without staging anything when the proof fails (probe
        collision — the caller falls back to the scalar ladder, whose
        per-chunk ``contains``/``add`` sequence handles the collision
        exactly); the check is conservative, so a True answer is always
        bit-identical to the scalar sequence.
        """
        sub = self._pos[lo:hi]
        miss = ~self._hit[lo:hi]
        flat = sub.ravel()
        uniq, inv, counts = np.unique(flat, return_inverse=True, return_counts=True)
        # a probe is a valid witness if no run peer shares it ...
        solo = (counts == 1)[inv].reshape(sub.shape)
        if self._added:
            # ... and no earlier insert of this batch already set it
            added = np.concatenate([self._pos[s].ravel() for s in self._added])
            solo &= ~np.isin(flat, added).reshape(sub.shape)
        if not bool((solo & miss).any(axis=1).all()):
            return False
        self._stage(slice(lo, hi))
        return True

    def _stage(self, sel) -> None:
        """Record a bulk insert of the fingerprints selected by ``sel``."""
        self._staged.append(sel)
        self._added.append(sel)
        self._bloom.n_added += len(self._member[sel])
        self.dirty = True

    def _materialize(self) -> None:
        """Fold staged bulk inserts into the pending per-word dict so the
        scalar ``contains`` path sees them."""
        rows = np.concatenate([self._rows[s].ravel() for s in self._staged])
        bits = np.concatenate([self._bits[s].ravel() for s in self._staged])
        self._staged.clear()
        order = np.argsort(rows, kind="stable")
        rows_s = rows[order]
        bits_s = bits[order]
        uniq, start = np.unique(rows_s, return_index=True)
        ors = np.bitwise_or.reduceat(bits_s, start)
        pending = self._pending
        get = pending.get
        for r, v in zip(uniq.tolist(), ors.tolist()):
            pending[r] = get(r, 0) | v

    def flush(self) -> None:
        """Fold every insert so far into the filter's word array.

        The batch keeps its inserts (OR is idempotent), so it stays
        usable — ``contains`` remains exact — and a second flush is a
        harmless repeat."""
        words = self._bloom._words
        for sel in self._staged:
            np.bitwise_or.at(words, self._rows[sel].ravel(), self._bits[sel].ravel())
        pending = self._pending
        if pending:
            rows = np.fromiter(pending.keys(), dtype=np.int64, count=len(pending))
            vals = np.fromiter(pending.values(), dtype=np.uint64, count=len(pending))
            # keys are unique, so plain fancy-index OR is safe
            words[rows] |= vals
