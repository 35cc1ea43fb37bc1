"""Per-tenant namespaces and tenant-aware container placement.

A tenant namespace is a stable bijection of the 64-bit fingerprint
space: tenant ``t``'s chunk ``fp`` is indexed under
``splitmix64(fp XOR salt_t)`` where ``salt_t`` is a blake2b-derived
per-tenant constant. Two tenants ingesting the *same* bytes therefore
occupy disjoint index keys — cross-tenant dedup is structurally
impossible with isolation on, which is the isolation guarantee the
tenancy tests pin (no shared index entries, no shared containers).

Container placement follows the namespace: :class:`TenantStoreSet`
gives each tenant its own :class:`~repro.storage.store.ContainerStore`
over the shared disk (tenant-aware placement — a tenant's chunks never
share a container with another tenant's), while all stores charge the
same simulated disk, so cross-tenant contention still shows up in the
clock.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro._util.rng import derive_seed
from repro.sharding.router import mix_inplace, mix_scalar
from repro.storage.store import ContainerStore, StoreConfig

__all__ = ["TenantNamespace", "TenantStoreSet"]


class TenantNamespace:
    """One tenant's view of the fingerprint space.

    Args:
        name: tenant id (any stable string).
        isolated: when False the namespace is the identity map — all
            tenants share one fingerprint space (global dedup), the
            single-tenant behavior.
    """

    def __init__(self, name: str, isolated: bool = True) -> None:
        self.name = name
        self.isolated = isolated
        # blake2b-derived: stable across processes and Python versions
        self.salt = derive_seed(0, "tenant-namespace", name) if isolated else 0

    def wrap(self, fp: int) -> int:
        """Namespace one fingerprint (identity when not isolated)."""
        if not self.isolated:
            return int(fp)
        return mix_scalar(int(fp) ^ self.salt)

    def wrap_many(self, fps) -> np.ndarray:
        """Namespace a fingerprint batch (vectorized)."""
        arr = np.asarray(fps, dtype=np.uint64)
        if not self.isolated:
            return arr
        return mix_inplace(arr ^ np.uint64(self.salt))


class TenantStoreSet:
    """Tenant-aware container placement: one store per tenant, one disk.

    With ``isolated=False`` every tenant resolves to one shared store —
    the classic single-namespace layout.
    """

    def __init__(
        self,
        disk,
        config: StoreConfig,
        isolated: bool = True,
    ) -> None:
        self.disk = disk
        self.config = config
        self.isolated = isolated
        self._stores: Dict[str, ContainerStore] = {}
        self._shared: Optional[ContainerStore] = None

    def store_for(self, tenant: str) -> ContainerStore:
        if not self.isolated:
            if self._shared is None:
                self._shared = ContainerStore(self.disk, config=self.config)
            return self._shared
        store = self._stores.get(tenant)
        if store is None:
            store = self._stores[tenant] = ContainerStore(
                self.disk, config=self.config
            )
        return store

    def items(self) -> Iterator[Tuple[str, ContainerStore]]:
        if not self.isolated:
            if self._shared is not None:
                yield "*", self._shared
            return
        yield from sorted(self._stores.items())
