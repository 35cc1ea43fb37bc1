"""Consistent-hash routing of fingerprints to shards.

The router is a pure function of ``(n_shards, vnodes)``: each shard
plants ``vnodes`` points on a 64-bit ring (blake2b over a stable label,
so the ring is identical in every process and Python version), and a
fingerprint belongs to the shard owning the first ring point at or
after its hashed position.

Fingerprints are mixed through one splitmix64 round before the ring
search so structured fingerprint spaces (sequential synthetic ids,
tenant-salted namespaces) spread evenly; the mix is the same bijection
:mod:`repro.chunking.fingerprint` uses, so it is vectorizable for batch
routing.

Routing invariants (property-locked by
``tests/properties/test_shard_equivalence.py``):

* **partition** — every fingerprint maps to exactly one shard, and
  :meth:`ShardRouter.partition` splits a batch into per-shard runs that
  cover the batch exactly once;
* **stability** — ``shard_of`` is a pure function of the fingerprint
  and the ring parameters: the same fp routes identically across
  processes, interpreter restarts, and batch vs scalar paths;
* **degeneracy** — with one shard the ring is bypassed entirely, so a
  1-shard index drives its single shard verbatim.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["ShardRouter", "mix_inplace", "mix_scalar"]


def _ring_point(shard: int, replica: int) -> int:
    """A full-width 64-bit ring position for one vnode (blake2b over a
    stable label — process- and version-stable, unlike ``hash()``; the
    63-bit :func:`~repro._util.rng.derive_seed` would leave the ring's
    top half empty and skew the partition)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(f"shard-ring\x1f{shard}\x1f{replica}".encode())
    return int.from_bytes(h.digest(), "little")

#: splitmix64 mixing constants (same finalizer the fingerprint fold uses)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix_inplace(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, in place (numpy wraps
    uint64 array arithmetic modulo 2**64 without a warning)."""
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


def mix_scalar(x: int) -> int:
    """splitmix64 finalizer of one int, taken modulo 2**64 first (the
    scalar twin of :func:`mix_inplace`)."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class ShardRouter:
    """Maps fingerprints to shard ids over a consistent-hash ring."""

    def __init__(self, n_shards: int, vnodes: int = 128) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.n_shards = int(n_shards)
        self.vnodes = int(vnodes)
        points: List[Tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(self.vnodes):
                points.append((_ring_point(shard, replica), shard))
        points.sort()
        self._points = np.array([p for p, _ in points], dtype=np.uint64)
        # one extra owner past the top point: a key above every point
        # wraps to the first point's owner without a fix-up pass
        self._owners = np.array(
            [s for _, s in points] + [points[0][1]], dtype=np.int64
        )
        self._points_list = [p for p, _ in points]
        self._owners_list = [s for _, s in points]

    def shard_of(self, fp: int) -> int:
        """The owning shard of one fingerprint (pure, process-stable)."""
        if self.n_shards == 1:
            return 0
        key = mix_scalar(int(fp))
        # first ring point at or after the key, wrapping at the top
        i = bisect.bisect_left(self._points_list, key)
        if i == len(self._points_list):
            i = 0
        return self._owners_list[i]

    def route_many(self, fps: Sequence[int]) -> np.ndarray:
        """Owning shard of every fingerprint in a batch (vectorized)."""
        if self.n_shards == 1:
            return np.zeros(len(fps), dtype=np.int64)
        keys = mix_inplace(np.array(fps, dtype=np.uint64))
        return self._owners[np.searchsorted(self._points, keys)]

    def partition(
        self, fps: Sequence[int]
    ) -> Dict[int, Tuple[List[int], List[int]]]:
        """Split a batch into per-shard runs, preserving in-shard order.

        Returns ``{shard: (positions, fingerprints)}`` where
        ``positions`` index into the input batch; the position lists of
        all shards are disjoint and cover ``range(len(fps))`` exactly —
        the partition invariant the property suite pins.
        """
        arr = np.asarray(fps, dtype=np.uint64)
        owners = self.route_many(arr)
        # one stable sort by owner keeps input order inside each shard
        order = np.argsort(owners, kind="stable")
        positions = order.tolist()
        keys = arr[order].tolist()
        out: Dict[int, Tuple[List[int], List[int]]] = {}
        lo = 0
        for shard, count in enumerate(np.bincount(owners, minlength=self.n_shards).tolist()):
            if count:
                out[shard] = (positions[lo : lo + count], keys[lo : lo + count])
                lo += count
        return out

    def fill_balance(self, counts: Sequence[int]) -> float:
        """Max/mean shard fill ratio (1.0 = perfectly even)."""
        counts = list(counts)
        total = sum(counts)
        if total == 0 or not counts:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean
