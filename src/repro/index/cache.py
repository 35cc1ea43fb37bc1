"""RAM caches: a generic LRU and the locality-preserving prefetch cache.

``FingerprintPrefetchCache`` is the mechanism the paper's throughput
argument revolves around: on an on-disk index hit, DDFS prefetches the
*whole metadata section* of the container holding the duplicate, betting
that the following stream chunks are duplicates stored nearby. When
placement de-linearizes, that bet pays off less and less — each prefetch
serves fewer subsequent chunks, page faults multiply, throughput falls
(Fig. 2). The cache makes that effect measurable: it reports hits per
inserted unit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Hashable, Iterable, Optional

import numpy as np

from repro._util import check_positive


class LRUCache:
    """Minimal LRU map with a fixed entry capacity."""

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or None."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite, evicting the least recently used entry."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class PrefetchCacheStats:
    """Hit/miss accounting for the prefetch cache."""

    lookups: int = 0
    hits: int = 0
    units_inserted: int = 0
    units_evicted: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def hits_per_unit(self) -> float:
        """Average RAM hits bought by one prefetched unit — the direct
        measure of duplicate locality the paper discusses."""
        return self.hits / self.units_inserted if self.units_inserted else 0.0



class FingerprintPrefetchCache:
    """LRU cache of prefetched metadata *units* (containers or blocks).

    A unit is an id plus the array of fingerprints it holds. Lookups map a
    fingerprint to the unit that supplied it (refreshing that unit's
    recency); inserting past capacity evicts whole units and their
    fingerprints.

    The fingerprint → unit mapping is a plain dict maintained
    incrementally on unit insert/evict: upserting a unit's fingerprints
    and unmapping an evicted unit's both cost O(unit), never O(cache) —
    inserting into a flat sorted array would copy the whole mapping per
    prefetch. Ties between units holding the same fingerprint resolve to
    the most recently inserted one (dict-update semantics). Scalar
    :meth:`lookup` and batch :meth:`lookup_many` read the same dict, so
    the two ingest paths can never disagree.

    Args:
        capacity_units: number of units held (DDFS caches on the order of
            hundreds of container metadata sections).
    """

    def __init__(self, capacity_units: int) -> None:
        check_positive("capacity_units", capacity_units)
        self.capacity_units = int(capacity_units)
        self._units: "OrderedDict[int, np.ndarray]" = OrderedDict()
        # fingerprint -> covering unit id
        self._map: Dict[int, int] = {}
        # uid -> (source array, key list) for the cached units: unit
        # contents are immutable (sealed containers / sealed blocks), so
        # the int conversion is paid once per residency, not on every
        # re-prefetch or eviction; the source array is kept to detect a
        # uid reused for different contents (tests may do that; real
        # units never do). Entries leave with their unit.
        self._derived: Dict[int, tuple] = {}
        self.stats = PrefetchCacheStats()
        # optional (uid, n_fingerprints) eviction callback, wired by the
        # observability layer when event tracing is on
        self.on_evict = None
        # bound LRU recency refresh for batch walks: semantically one
        # consumed cache hit minus its stats, which the walk accounts in
        # bulk via count_hits/count_probes (zero wrapper overhead on the
        # per-hit path; the OrderedDict object survives clear())
        self.touch_unit = self._units.move_to_end

    def __contains__(self, fp: int) -> bool:
        return int(fp) in self._map

    def __len__(self) -> int:
        return len(self._units)

    def lookup(self, fp: int) -> Optional[int]:
        """Return the unit id whose prefetch covers ``fp``, or None."""
        self.stats.lookups += 1
        uid = self._map.get(int(fp))
        if uid is None:
            return None
        self._units.move_to_end(uid)
        self.stats.hits += 1
        return uid

    # -- batch interface ------------------------------------------------

    def lookup_many(self, fps) -> np.ndarray:
        """Batched membership: the unit id covering each fingerprint,
        or -1. Accepts an array or a list of native ints (callers holding
        a ``.tolist()`` of the segment pass it to skip reconversion).
        Pure — no stats, no recency refresh; batch callers account
        consumed probes via :meth:`touch` / :meth:`count_probes` so the
        scalar and batch paths meter identically."""
        keys = fps.tolist() if isinstance(fps, np.ndarray) else fps
        n = len(keys)
        if n == 0 or not self._map:
            return np.full(n, -1, dtype=np.int64)
        return np.fromiter(
            map(self._map.get, keys, repeat(-1)), dtype=np.int64, count=n
        )

    def touch(self, uid: int) -> None:
        """Account one consumed cache hit: recency refresh + hit count
        (the batch-path equivalent of a successful :meth:`lookup`)."""
        self._units.move_to_end(uid)
        self.stats.hits += 1

    def count_hits(self, n: int) -> None:
        """Account ``n`` consumed cache hits whose recency refreshes were
        already applied one by one via :attr:`touch_unit`."""
        self.stats.hits += int(n)

    def count_probes(self, n: int) -> None:
        """Account ``n`` consumed membership probes (hits and misses)."""
        self.stats.lookups += int(n)

    # -- mapping maintenance --------------------------------------------

    def _map_upsert(self, keys: list, uid: int) -> None:
        """Point a unit's fingerprints at ``uid``, stealing attribution
        from earlier units (dict-update semantics)."""
        self._map.update(zip(keys, repeat(uid)))

    def _map_evict(self, keys: list, uid: int) -> None:
        """Unmap an evicted unit's fingerprints — but only those still
        attributed to it (a fingerprint can appear in several units'
        metadata; newer inserts steal the attribution)."""
        m = self._map
        get = m.get
        for f in keys:
            if get(f) == uid:
                del m[f]

    def _derive(self, uid: int, fps: np.ndarray) -> list:
        """A unit's fingerprints as native-int dict keys, memoized on its
        immutable contents."""
        cached = self._derived.get(uid)
        if cached is not None and cached[0] is fps:
            return cached[1]
        keys = [int(f) for f in fps] if not isinstance(fps, np.ndarray) else fps.tolist()
        self._derived[uid] = (fps, keys)
        return keys

    # -- unit maintenance -----------------------------------------------

    def has_unit(self, uid: int) -> bool:
        """True if unit ``uid`` is currently cached (no recency change)."""
        return uid in self._units

    def insert_unit(self, uid: int, fps: "np.ndarray | Iterable[int]") -> None:
        """Cache a prefetched unit, evicting LRU units past capacity."""
        fps = np.asarray(fps, dtype=np.uint64)
        uid = int(uid)
        if uid in self._units:
            # Re-prefetch of a cached unit: refresh recency AND re-register
            # its fingerprints. A fingerprint can appear in several units'
            # metadata (e.g. a rewritten duplicate); if a newer unit stole
            # the mapping and was then evicted, the fingerprint would
            # otherwise stay unreachable while this unit is still cached.
            self._units.move_to_end(uid)
            self._map_upsert(self._derive(uid, self._units[uid]), uid)
            return
        self._units[uid] = fps
        self._map_upsert(self._derive(uid, fps), uid)
        self.stats.units_inserted += 1
        self._evict_overflow()

    def insert_units(self, units: "list[tuple[int, np.ndarray]]") -> None:
        """Cache a *run* of prefetched units in order.

        Equivalent to ``insert_unit(uid, fps)`` per pair: upserts in run
        order attribute each fingerprint to the last unit of the run
        holding it, and deferring the evictions to the end pops the same
        least-recent units — nothing observes the cache between the
        inserts."""
        for uid, fps in units:
            fps = np.asarray(fps, dtype=np.uint64)
            uid = int(uid)
            if uid in self._units:
                # re-prefetch: refresh recency and re-register (see
                # insert_unit)
                self._units.move_to_end(uid)
                self._map_upsert(self._derive(uid, self._units[uid]), uid)
                continue
            self._units[uid] = fps
            self._map_upsert(self._derive(uid, fps), uid)
            self.stats.units_inserted += 1
        self._evict_overflow()

    def _evict_overflow(self) -> None:
        """Evict LRU units past capacity, dropping their memoized keys
        with them (a later re-prefetch re-derives them)."""
        while len(self._units) > self.capacity_units:
            old_uid, old_fps = self._units.popitem(last=False)
            self.stats.units_evicted += 1
            self._map_evict(self._derive(old_uid, old_fps), old_uid)
            del self._derived[old_uid]
            if self.on_evict is not None:
                self.on_evict(old_uid, len(old_fps))

    def clear(self) -> None:
        """Drop all cached units (e.g. between independent streams)."""
        self._units.clear()
        self._map.clear()
        self._derived.clear()
