from collections import OrderedDict

import numpy as np

from repro.index.cache import FingerprintPrefetchCache, LRUCache


class TestLRUCache:
    def test_get_put(self):
        c = LRUCache(2)
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.get("b") is None

    def test_eviction_order(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a
        c.put("c", 3)  # evicts b
        assert "b" not in c
        assert "a" in c and "c" in c

    def test_overwrite_refreshes(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)
        c.put("c", 3)  # evicts b, not a
        assert c.get("a") == 10
        assert "b" not in c

    def test_hit_miss_counters(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.get("a")
        c.get("zz")
        assert c.hits == 1
        assert c.misses == 1

    def test_len(self):
        c = LRUCache(3)
        for k in "abc":
            c.put(k, 0)
        c.put("d", 0)
        assert len(c) == 3


class TestPrefetchCache:
    def unit(self, *fps):
        return np.asarray(fps, dtype=np.uint64)

    def test_lookup_after_insert(self):
        c = FingerprintPrefetchCache(4)
        c.insert_unit(10, self.unit(1, 2, 3))
        assert c.lookup(2) == 10
        assert c.lookup(9) is None
        assert 1 in c

    def test_eviction_removes_fps(self):
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit(10))
        c.insert_unit(2, self.unit(20))
        c.insert_unit(3, self.unit(30))  # evicts unit 1
        assert c.lookup(10) is None
        assert c.lookup(20) == 2
        assert c.stats.units_evicted == 1

    def test_lookup_refreshes_unit_recency(self):
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit(10))
        c.insert_unit(2, self.unit(20))
        c.lookup(10)  # refresh unit 1
        c.insert_unit(3, self.unit(30))  # evicts unit 2
        assert c.lookup(10) == 1
        assert c.lookup(20) is None

    def test_shared_fp_across_units_eviction_safe(self):
        """A fingerprint present in two units must survive eviction of the
        newer unit while the older one is still cached (the DeFrag rewrite
        scenario) once the older unit is re-prefetched."""
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit(10, 11))
        c.insert_unit(2, self.unit(11, 12))  # steals fp 11
        c.insert_unit(3, self.unit(30))  # evicts unit 1
        c.insert_unit(4, self.unit(40))  # evicts unit 2 -> fp 11 unmapped
        assert c.lookup(11) is None
        # re-prefetch of unit... none cached; insert unit 2 again
        c.insert_unit(2, self.unit(11, 12))
        assert c.lookup(11) == 2

    def test_reinsert_cached_unit_restores_mappings(self):
        """Re-prefetching a cached unit must re-register its fps (the bug
        that produced repeated faults on one container): fp 11 lives in
        units 1 and 2; unit 2 steals the mapping and is evicted, leaving
        fp 11 unreachable although unit 1 is still cached."""
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit(10, 11))
        c.insert_unit(2, self.unit(11))
        c.lookup(10)  # refresh unit 1
        c.insert_unit(3, self.unit(30))  # evicts unit 2 -> fp 11 unmapped
        assert c.lookup(11) is None
        c.insert_unit(1, self.unit(10, 11))  # re-prefetch cached unit 1
        assert c.lookup(11) == 1

    def test_has_unit_no_recency_change(self):
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit(10))
        c.insert_unit(2, self.unit(20))
        assert c.has_unit(1)
        c.insert_unit(3, self.unit(30))  # evicts 1 despite has_unit call
        assert not c.has_unit(1)

    def test_stats_hit_rate(self):
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit(10))
        c.lookup(10)
        c.lookup(99)
        assert c.stats.hits == 1
        assert c.stats.lookups == 2
        assert c.stats.hit_rate == 0.5
        assert c.stats.hits_per_unit == 1.0

    def test_clear(self):
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit(10))
        c.clear()
        assert len(c) == 0
        assert c.lookup(10) is None

    def test_empty_unit_insert(self):
        c = FingerprintPrefetchCache(2)
        c.insert_unit(1, self.unit())
        assert c.has_unit(1)


class TestLookupMany:
    def test_list_and_array_inputs_agree(self):
        cache = FingerprintPrefetchCache(4)
        cache.insert_unit(7, np.array([1, 2, 3], dtype=np.uint64))
        arr = np.array([1, 9, 3], dtype=np.uint64)
        out_arr = cache.lookup_many(arr)
        out_list = cache.lookup_many([1, 9, 3])
        assert out_arr.tolist() == out_list.tolist() == [7, -1, 7]

    def test_pure_no_stats_no_recency(self):
        cache = FingerprintPrefetchCache(2)
        cache.insert_unit(1, np.array([10], dtype=np.uint64))
        cache.insert_unit(2, np.array([20], dtype=np.uint64))
        before = (cache.stats.lookups, cache.stats.hits)
        cache.lookup_many([10, 20, 30])
        assert (cache.stats.lookups, cache.stats.hits) == before
        # unit 1 is still the LRU victim: lookup_many refreshed nothing
        cache.insert_unit(3, np.array([30], dtype=np.uint64))
        assert not cache.has_unit(1) and cache.has_unit(2)

    def test_empty_input(self):
        cache = FingerprintPrefetchCache(2)
        assert cache.lookup_many([]).size == 0


class TestKeyMemoBound:
    """The per-unit key memo holds only cached units: evicting a unit
    drops its keys, and re-prefetching it later re-derives them without
    changing any lookup."""

    @staticmethod
    def _reference(events, capacity):
        """Plain model of the cache's fp -> uid map (newest insert wins,
        eviction unmaps only fps still attributed to the victim)."""
        units, fmap = OrderedDict(), {}
        for run in events:
            for uid, fps in run:
                if uid in units:
                    units.move_to_end(uid)
                else:
                    units[uid] = fps
                fmap.update((int(f), uid) for f in fps)
            while len(units) > capacity:
                old, old_fps = units.popitem(last=False)
                for f in old_fps:
                    if fmap.get(int(f)) == old:
                        del fmap[int(f)]
            yield dict(fmap)

    def test_memo_bounded_and_lookups_unchanged(self):
        capacity = 4
        rng = np.random.default_rng(7)
        # immutable unit contents with overlapping fingerprints, as
        # rewritten duplicates produce
        contents = {
            uid: rng.integers(0, 60, size=rng.integers(1, 9)).astype(np.uint64)
            for uid in range(20)
        }
        events = []
        for _ in range(300):
            k = 1 if rng.random() < 0.5 else int(rng.integers(2, 6))
            events.append([(int(u), contents[int(u)]) for u in rng.integers(0, 20, size=k)])
        cache = FingerprintPrefetchCache(capacity)
        probe = np.arange(60, dtype=np.uint64)
        for run, expected in zip(events, self._reference(events, capacity)):
            if len(run) == 1:
                cache.insert_unit(*run[0])
            else:
                cache.insert_units(run)
            assert len(cache._derived) <= capacity
            assert set(cache._derived) == set(cache._units)
            got = cache.lookup_many(probe).tolist()
            assert got == [expected.get(f, -1) for f in range(60)]
        assert cache.stats.units_evicted > 50
