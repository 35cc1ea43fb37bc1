"""Per-instance spill directories: concurrent stores must not collide.

ROADMAP item 5's safety requirement: parallel grid cells, per-tenant
stores, and per-engine memoized runs all construct their own
``ContainerStore`` but may share one configured ``spill_dir`` root.
Container ids start at 0 in every store, so without per-instance
subdirectories two stores would silently overwrite each other's pack
records. These tests pin the fix.
"""

import pathlib

import numpy as np

from repro.storage.disk import DiskModel
from repro.storage.spill import PackSpill
from repro.storage.store import ContainerStore, StoreConfig

from tests.conftest import TEST_PROFILE


def make_store(spill_dir, container_bytes=1000):
    return ContainerStore(
        DiskModel(profile=TEST_PROFILE),
        config=StoreConfig(
            container_bytes=container_bytes,
            seal_seeks=0,
            resident_containers=1,
            spill_dir=str(spill_dir),
        ),
    )


def ingest(store, fps, size=300):
    for fp in fps:
        store.append(fp, size)
    store.flush()


class TestPerInstanceSpillDirs:
    def test_two_stores_one_root_do_not_collide(self, tmp_path):
        """Two stores over one root keep distinct, correct contents even
        though their cid spaces are identical (both start at cid 0)."""
        a = make_store(tmp_path)
        b = make_store(tmp_path)
        ingest(a, fps=range(1, 41))
        ingest(b, fps=range(1001, 1041))
        assert a.spill_path != b.spill_path
        # every container faults back with its own store's fingerprints
        for cid in a.cids():
            got = a.get(cid).fingerprints
            assert got.max() <= 40, f"store A cid {cid} has B's chunks"
        for cid in b.cids():
            got = b.get(cid).fingerprints
            assert got.min() >= 1001, f"store B cid {cid} has A's chunks"

    def test_subdirs_nest_under_configured_root(self, tmp_path):
        a = make_store(tmp_path)
        b = make_store(tmp_path)
        ingest(a, fps=range(1, 21))
        ingest(b, fps=range(101, 121))
        pa = pathlib.Path(a.spill_path)
        pb = pathlib.Path(b.spill_path)
        assert pa.parent == tmp_path and pb.parent == tmp_path
        assert pa.name.startswith("store-") and pb.name.startswith("store-")
        # the root itself holds no pack — only the subdirs do, one each,
        # and each holds exactly its own store's containers
        assert not (tmp_path / PackSpill.NAME).exists()
        for store, path in ((a, pa), (b, pb)):
            assert [p.name for p in path.iterdir()] == [PackSpill.NAME]
            copy = PackSpill(path)
            assert list(copy.cids()) == store.cids()
            copy.close()

    def test_remove_touches_only_own_subdir(self, tmp_path):
        a = make_store(tmp_path)
        b = make_store(tmp_path)
        ingest(a, fps=range(1, 41))
        ingest(b, fps=range(1001, 1041))
        victim = a.cids()[0]
        assert victim in b.cids()  # same cid exists in both stores
        a.remove(victim)
        assert not a.has(victim)
        assert b.has(victim)
        assert b.get(victim).fingerprints.min() >= 1001

    def test_memory_spill_has_no_path(self):
        store = ContainerStore(
            DiskModel(profile=TEST_PROFILE),
            config=StoreConfig(
                container_bytes=1000, seal_seeks=0, resident_containers=1
            ),
        )
        assert store.spilling
        assert store.spill_path is None

    def test_twin_run_identical_with_shared_root(self, tmp_path):
        """Simulated results stay byte-identical whether two stores
        share a spill root or use separate ones (spill IO is machine IO
        only — the subdir scheme must not leak into the model)."""
        shared1 = make_store(tmp_path / "shared")
        shared2 = make_store(tmp_path / "shared")
        solo1 = make_store(tmp_path / "solo1")
        solo2 = make_store(tmp_path / "solo2")
        for store in (shared1, solo1):
            ingest(store, fps=range(1, 41))
        for store in (shared2, solo2):
            ingest(store, fps=range(1001, 1041))
        assert shared1.cids() == solo1.cids()
        assert shared2.cids() == solo2.cids()
        for cid in shared1.cids():
            np.testing.assert_array_equal(
                shared1.get(cid).fingerprints, solo1.get(cid).fingerprints
            )
        assert (
            shared1.disk.stats.total_time_s == solo1.disk.stats.total_time_s
        )
