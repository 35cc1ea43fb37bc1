"""Out-of-core container store: spill backends, eviction, fault-back.

The twin-run contract is the heart of these tests: every simulated
number (disk charges, cids, packing, stats) must be byte-identical with
spilling on or off — the spill layer is machine IO only.
"""

import gc
import os
import pathlib
import shutil

import numpy as np
import pytest

from repro.obs import Observability, obs_session
from repro.storage.container import SealedContainer
from repro.storage.disk import DiskModel
from repro.storage.spill import (
    MemorySpill,
    PackSpill,
    decode_container,
    encode_container,
    make_spill,
)
from repro.storage.store import ContainerStore, StoreConfig

from tests.conftest import TEST_PROFILE


def make_store(resident=None, spill_dir=None, container_bytes=1000, journal=False):
    return ContainerStore(
        DiskModel(profile=TEST_PROFILE),
        config=StoreConfig(
            container_bytes=container_bytes,
            seal_seeks=0,
            journal=journal,
            resident_containers=resident,
            spill_dir=spill_dir,
        ),
    )


def ingest(store, n_chunks=40, size=300):
    for fp in range(n_chunks):
        store.append(fp + 1, size)
    store.flush()


def blob_of(cid, n_chunks=1):
    return encode_container(
        SealedContainer(
            cid=cid,
            fingerprints=np.arange(1, n_chunks + 1, dtype=np.uint64) * (cid + 1),
            sizes=np.full(n_chunks, 100, dtype=np.uint32),
        )
    )


def open_handles(path):
    """This process's open file descriptors on ``path``."""
    fd_dir = pathlib.Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("needs /proc/self/fd to list open descriptors")
    target = os.path.realpath(path)
    count = 0
    for entry in fd_dir.iterdir():
        try:
            count += os.path.realpath(entry) == target
        except OSError:
            pass
    return count


class TestBlobCodec:
    def test_roundtrip(self):
        sealed = SealedContainer(
            cid=7,
            fingerprints=np.array([10, 20, 30], dtype=np.uint64),
            sizes=np.array([100, 200, 300], dtype=np.uint32),
        )
        back = decode_container(encode_container(sealed))
        assert back.cid == 7
        assert back.fingerprints.tolist() == [10, 20, 30]
        assert back.sizes.tolist() == [100, 200, 300]
        assert back.fingerprints.dtype == np.uint64
        assert back.sizes.dtype == np.uint32

    def test_empty_container_roundtrips(self):
        sealed = SealedContainer(
            cid=0,
            fingerprints=np.zeros(0, dtype=np.uint64),
            sizes=np.zeros(0, dtype=np.uint32),
        )
        back = decode_container(encode_container(sealed))
        assert back.n_chunks == 0

    def test_truncated_blob_rejected(self):
        sealed = SealedContainer(
            cid=1,
            fingerprints=np.array([1, 2], dtype=np.uint64),
            sizes=np.array([10, 20], dtype=np.uint32),
        )
        blob = encode_container(sealed)
        with pytest.raises(ValueError, match="!="):
            decode_container(blob[:-4])
        with pytest.raises(ValueError, match="truncated"):
            decode_container(blob[:8])

    def test_foreign_blob_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_container(b"NOPE" + b"\x00" * 32)


class TestBackends:
    def _roundtrip(self, spill):
        sealed = SealedContainer(
            cid=42,
            fingerprints=np.array([5], dtype=np.uint64),
            sizes=np.array([50], dtype=np.uint32),
        )
        blob = encode_container(sealed)
        assert 42 not in spill
        spill.put(42, blob)
        assert 42 in spill
        assert spill.get(42) == blob
        assert list(spill.cids()) == [42]
        spill.delete(42)
        assert 42 not in spill
        spill.delete(42)  # idempotent

    def test_memory_spill(self):
        self._roundtrip(MemorySpill())

    def test_pack_spill(self, tmp_path):
        spill = PackSpill(tmp_path / "spill")
        self._roundtrip(spill)
        spill.close()

    def test_make_spill_dispatch(self, tmp_path):
        assert isinstance(make_spill(None), MemorySpill)
        spill = make_spill(str(tmp_path / "d"))
        assert isinstance(spill, PackSpill)
        assert spill.pack == tmp_path / "d" / PackSpill.NAME
        spill.close()


class TestPackSpill:
    """The pack file: records, tombstones, compaction, torn tails."""

    def test_roundtrip_many_blobs(self, tmp_path):
        spill = PackSpill(tmp_path)
        blobs = {cid: blob_of(cid, n_chunks=cid % 5 + 1) for cid in range(20)}
        for cid, blob in blobs.items():
            spill.put(cid, blob)
        assert list(spill.cids()) == sorted(blobs)
        for cid, blob in blobs.items():
            assert spill.get(cid) == blob
        assert spill.dead_bytes == 0
        assert spill.live_bytes == spill.pack.stat().st_size
        spill.close()
        # a reopened pack serves the same blobs from a rescanned table
        again = PackSpill(tmp_path)
        assert {cid: again.get(cid) for cid in again.cids()} == blobs
        again.close()

    def test_tombstones_count_dead_bytes(self, tmp_path):
        spill = PackSpill(tmp_path)
        blobs = [blob_of(cid, n_chunks=8) for cid in range(3)]
        for cid, blob in enumerate(blobs):
            spill.put(cid, blob)
        live = spill.live_bytes
        spill.delete(1)
        record = spill.live_bytes + spill.dead_bytes - live  # the tombstone
        assert 1 not in spill
        assert spill.dead_bytes == (record + len(blobs[1])) + record
        assert spill.live_bytes == live - record - len(blobs[1])
        assert spill.live_bytes + spill.dead_bytes == spill.pack.stat().st_size
        spill.delete(1)  # idempotent: no second tombstone
        spill.delete(99)
        assert spill.live_bytes + spill.dead_bytes == spill.pack.stat().st_size
        spill.close()
        # the tombstone is durable: a reopen does not resurrect cid 1
        again = PackSpill(tmp_path)
        assert list(again.cids()) == [0, 2]
        assert again.dead_bytes == spill.dead_bytes
        again.close()

    def test_compaction_keeps_live_blobs_and_shrinks(self, tmp_path):
        spill = PackSpill(tmp_path)
        blobs = {cid: blob_of(cid, n_chunks=16) for cid in range(10)}
        for cid, blob in blobs.items():
            spill.put(cid, blob)
        full = spill.pack.stat().st_size
        for cid in range(4):
            spill.delete(cid)
            del blobs[cid]
        assert 0 < spill.dead_bytes <= spill.live_bytes  # not compacted yet
        assert spill.pack.stat().st_size > full
        spill.delete(4)  # dead bytes now exceed live bytes
        del blobs[4]
        assert spill.dead_bytes == 0
        assert spill.pack.stat().st_size == spill.live_bytes < full
        assert not spill.pack.with_suffix(".tmp").exists()
        assert {cid: spill.get(cid) for cid in spill.cids()} == blobs
        spill.put(42, blob_of(42))  # appends after the compacted records
        blobs[42] = blob_of(42)
        spill.close()
        again = PackSpill(tmp_path)
        assert {cid: again.get(cid) for cid in again.cids()} == blobs
        again.close()

    def test_reopen_drops_exactly_a_torn_tail_record(self, tmp_path):
        src = tmp_path / "src"
        spill = PackSpill(src)
        blobs = {cid: blob_of(cid, n_chunks=3) for cid in range(3)}
        for cid, blob in blobs.items():
            spill.put(cid, blob)
        spill.delete(0)
        head = spill.pack.stat().st_size
        spill.put(7, blob_of(7, n_chunks=3))
        end = spill.pack.stat().st_size
        spill.close()
        for cut in range(head + 1, end):
            torn = tmp_path / f"cut{cut}"
            torn.mkdir()
            shutil.copyfile(src / PackSpill.NAME, torn / PackSpill.NAME)
            os.truncate(torn / PackSpill.NAME, cut)
            reopened = PackSpill(torn)
            assert list(reopened.cids()) == [1, 2], cut
            assert reopened.pack.stat().st_size == head
            assert reopened.live_bytes + reopened.dead_bytes == head
            assert all(reopened.get(c) == blobs[c] for c in (1, 2))
            reopened.put(7, blob_of(7))  # the pack stays appendable
            assert reopened.get(7) == blob_of(7)
            reopened.close()

    def test_handle_closed_by_close_and_by_collection(self, tmp_path):
        spill = PackSpill(tmp_path / "a")
        assert open_handles(spill.pack) == 1
        spill.close()
        spill.close()  # idempotent
        assert open_handles(spill.pack) == 0

        store = make_store(resident=1, spill_dir=str(tmp_path / "b"))
        ingest(store, n_chunks=40)
        pack = pathlib.Path(store.spill_path) / PackSpill.NAME
        assert open_handles(pack) == 1
        del store
        gc.collect()
        assert open_handles(pack) == 0

    def test_store_close_closes_the_pack(self, tmp_path):
        """A caller that deletes the spill directory after a run closes
        the store first, so no open pack is deleted under it."""
        store = make_store(resident=1, spill_dir=str(tmp_path))
        ingest(store, n_chunks=40)
        pack = pathlib.Path(store.spill_path) / PackSpill.NAME
        assert open_handles(pack) == 1
        store.close()
        assert open_handles(pack) == 0
        store.close()  # idempotent
        make_store(resident=1).close()  # the in-memory shim: a no-op


class TestConfigValidation:
    def test_spill_dir_requires_budget(self, tmp_path):
        with pytest.raises(ValueError, match="resident_containers"):
            make_store(spill_dir=str(tmp_path))

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_store(resident=0)


class TestResidentBudget:
    def test_no_budget_keeps_everything_resident(self):
        store = make_store()
        ingest(store, n_chunks=40)
        assert not store.spilling
        assert store.n_resident == store.n_containers > 1
        assert store.spill_stats.spilled == 0

    def test_budget_bounds_resident_set(self):
        store = make_store(resident=2)
        ingest(store, n_chunks=40, size=300)
        assert store.spilling
        assert store.n_containers > 2
        assert store.n_resident <= 2
        assert store.spill_stats.spilled == store.stats.containers_sealed
        assert store.spill_stats.evictions > 0

    def test_fault_back_restores_content(self):
        store = make_store(resident=1)
        ingest(store, n_chunks=40)
        # every sealed container is readable, spilled or not, and the
        # content survives the serialize/evict/fault-back cycle
        for cid in store.cids():
            sealed = store.get(cid)
            assert sealed.cid == cid
            assert sealed.n_chunks > 0
        assert store.spill_stats.faults > 0

    def test_fault_back_charges_no_simulated_time(self):
        store = make_store(resident=1)
        ingest(store, n_chunks=40)
        t0 = store.disk.stats.total_time_s
        for cid in store.cids():
            store.get(cid)
        assert store.disk.stats.total_time_s == t0

    def test_lru_keeps_hot_container_resident(self):
        store = make_store(resident=2)
        ingest(store, n_chunks=40)
        hot = store.cids()[0]
        store.get(hot)
        faults0 = store.spill_stats.faults
        store.get(hot)  # second access: already resident, no fault
        assert store.spill_stats.faults == faults0

    def test_pack_spill_persists_copies(self, tmp_path):
        spill_dir = tmp_path / "ctn"
        store = make_store(resident=1, spill_dir=str(spill_dir))
        ingest(store, n_chunks=40)
        # the pack lives under the store's own unique subdirectory of
        # the configured root (two stores sharing a root must not
        # collide), and holds a durable copy of every sealed container
        spill_path = pathlib.Path(store.spill_path)
        assert spill_path.parent == spill_dir
        assert [p.name for p in spill_path.iterdir()] == [PackSpill.NAME]
        copy = PackSpill(spill_path)
        assert list(copy.cids()) == store.cids()
        for cid in store.cids():
            sealed = decode_container(copy.get(cid))
            assert sealed.cid == cid
            assert sealed.fingerprints.tolist() == store.get(cid).fingerprints.tolist()
        copy.close()

    def test_remove_deletes_spill_copy(self, tmp_path):
        spill_dir = tmp_path / "ctn"
        store = make_store(resident=1, spill_dir=str(spill_dir))
        ingest(store, n_chunks=40)
        victim = store.cids()[0]
        store.remove(victim)
        assert not store.has(victim)
        # the removal is durable: a reopened pack no longer holds it
        copy = PackSpill(store.spill_path)
        assert victim not in copy
        assert list(copy.cids()) == store.cids()
        copy.close()
        with pytest.raises(KeyError):
            store.get(victim)

    def test_fault_in_rejects_a_foreign_container(self, tmp_path):
        store = make_store(resident=1, spill_dir=str(tmp_path))
        ingest(store, n_chunks=40)
        a, b = store.cids()[:2]  # both spilled: only the last is resident
        table = store._spill._table
        table[a], table[b] = table[b], table[a]
        with pytest.raises(ValueError, match=f"container {b} for cid {a}"):
            store.get(a)

    def test_truncate_torn_deletes_spill_copy(self):
        store = make_store(resident=1, journal=True)
        ingest(store, n_chunks=40)
        # forge a torn tail: forget one container's commit marker
        torn_cid = store.cids()[-1]
        store._committed.discard(torn_cid)
        assert store.truncate_torn() == [torn_cid]
        assert not store.has(torn_cid)
        assert torn_cid not in store._spill

    def test_directory_queries_never_fault(self):
        store = make_store(resident=1)
        ingest(store, n_chunks=40)
        faults0 = store.spill_stats.faults
        store.cids()
        store.has(store.cids()[0])
        store.container_of_chunk_count()
        _ = store.n_containers
        assert store.spill_stats.faults == faults0


class TestTwinRun:
    """Simulated results must be byte-identical with spilling on or off."""

    def _run(self, **kwargs):
        store = make_store(container_bytes=700, **kwargs)
        rng = np.random.default_rng(7)
        fps = rng.integers(1, 1 << 60, size=300).tolist()
        sizes = rng.integers(50, 400, size=300).tolist()
        cids = store.append_run(fps, sizes)
        store.flush()
        reads = [store.read_container(c).data_bytes for c in store.cids()]
        store.prefetch_meta(store.cids()[0])
        return (
            cids,
            store.disk.stats.total_time_s,
            store.stats.__dict__.copy(),
            reads,
            {c: store.get(c).fingerprints.tolist() for c in store.cids()},
        )

    def test_spill_on_off_identical(self, tmp_path):
        plain = self._run()
        mem = self._run(resident=3)
        disk = self._run(resident=3, spill_dir=str(tmp_path / "s"))
        assert plain == mem == disk

    def test_obs_session_does_not_change_results(self):
        plain = self._run(resident=3)
        with obs_session(Observability()) as obs:
            traced = self._run(resident=3)
        assert plain == traced
        # and the session actually saw the spill counters
        snap = obs.registry.snapshot()
        counters = snap.get("counters", snap)
        assert any("store.spill" in k for k in counters)


class TestSpillObs:
    def test_counters_recorded_when_enabled(self):
        with obs_session(Observability()) as obs:
            store = make_store(resident=1)
            ingest(store, n_chunks=40)
            for cid in store.cids():
                store.get(cid)
        reg = obs.registry
        assert reg.counter("store.spill.spilled").value == store.spill_stats.spilled
        assert reg.counter("store.spill.faults").value == store.spill_stats.faults
        assert (
            reg.counter("store.spill.evictions").value
            == store.spill_stats.evictions
        )
        assert reg.gauge("store.spill.resident").value <= 1

    def test_stats_tracked_without_session(self):
        store = make_store(resident=1)
        ingest(store, n_chunks=40)
        assert store.spill_stats.bytes_spilled > 0
