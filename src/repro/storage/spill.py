"""Spill backends: the out-of-core half of the container store.

The simulation keeps only container *metadata* (fingerprints + sizes) in
RAM, but at backup-store scale even that metadata outgrows memory —
thousands of sealed containers each holding tens of thousands of chunk
records. A spill backend is where a :class:`~repro.storage.store
.ContainerStore` with a ``resident_containers`` budget parks sealed
containers it evicts from RAM, and where reads fault them back from.

Two backends implement the same protocol
(``put``/``get``/``delete``/``__contains__``/``cids`` over encoded
blobs):

* :class:`PackSpill` — one append-only pack file per spill directory,
  read with ``os.pread`` through an in-RAM ``cid -> (offset, length)``
  table: the real out-of-core store (used by ``--spill-dir`` and the
  memory bench). Deletes append tombstones, and the pack compacts once
  its dead bytes exceed its live bytes.
* :class:`MemorySpill` — a dict of the same encoded blobs: the tmpfs
  shim tests and the chaos sweep use, so the full
  serialize/evict/fault-back cycle is exercised without touching the
  filesystem.

Spill IO is **real machine IO, never simulated IO**: it moves the
Python process's working set, not the modeled backup appliance's disk
head. No spill operation may charge the simulated
:class:`~repro.storage.disk.DiskModel` — that is what keeps the
twin-run contract (results byte-identical with spilling on or off).

The blob format is versioned and self-describing so the recovery
scanner can trust a spill directory that survived a crash::

    MAGIC(4s) | version(u16) | reserved(u16) | cid(i64) | n_chunks(u32)
    | fingerprints: n_chunks * u64 | sizes: n_chunks * u32

A pack frames each blob as ``cid(i64) | length(u32) | blob``; reopening
a pack drops a torn tail record, so an interrupted append loses only
the container being written.
"""

from __future__ import annotations

import os
import struct
import weakref
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.storage.container import SealedContainer

__all__ = [
    "encode_container",
    "decode_container",
    "ContainerSpill",
    "MemorySpill",
    "PackSpill",
    "make_spill",
]

#: blob header: magic, format version, reserved, cid, n_chunks
_HEADER = struct.Struct("<4sHHqI")
_MAGIC = b"RCTN"
_VERSION = 1

#: pack record header: cid, blob length (0 marks a tombstone)
_RECORD = struct.Struct("<qI")


def encode_container(sealed: SealedContainer) -> bytes:
    """Serialize a sealed container to its spill blob."""
    fps = np.ascontiguousarray(sealed.fingerprints, dtype=np.uint64)
    sizes = np.ascontiguousarray(sealed.sizes, dtype=np.uint32)
    header = _HEADER.pack(_MAGIC, _VERSION, 0, sealed.cid, len(fps))
    return header + fps.tobytes() + sizes.tobytes()


def decode_container(blob: bytes) -> SealedContainer:
    """Rebuild a sealed container from its spill blob.

    Raises:
        ValueError: on a foreign or truncated blob (a spill directory
            is durable state; corruption must fail loudly, not yield a
            silently short container).
    """
    if len(blob) < _HEADER.size:
        raise ValueError(f"spill blob truncated: {len(blob)} B < header")
    magic, version, _, cid, n = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"not a container spill blob (magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"unsupported spill blob version {version}")
    want = _HEADER.size + n * 8 + n * 4
    if len(blob) != want:
        raise ValueError(f"spill blob for cid {cid}: {len(blob)} B != {want} B")
    off = _HEADER.size
    fps = np.frombuffer(blob, dtype=np.uint64, count=n, offset=off)
    sizes = np.frombuffer(blob, dtype=np.uint32, count=n, offset=off + n * 8)
    return SealedContainer(cid=int(cid), fingerprints=fps, sizes=sizes)


class ContainerSpill:
    """Protocol of a spill backend (blob-level; the store owns codecs)."""

    def put(self, cid: int, blob: bytes) -> None:
        raise NotImplementedError

    def get(self, cid: int) -> bytes:
        raise NotImplementedError

    def delete(self, cid: int) -> None:
        raise NotImplementedError

    def __contains__(self, cid: int) -> bool:
        raise NotImplementedError

    def cids(self) -> Iterator[int]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any OS handle the backend holds (a no-op unless it
        has one)."""


class MemorySpill(ContainerSpill):
    """Dict-backed spill: the in-memory tmpfs shim for tests and chaos.

    Holds the *encoded* blobs, so every spill/fault-back still round-
    trips the serialization — only the filesystem is elided. Like a
    durable disk, its contents survive a simulated power loss
    (:meth:`ContainerStore.crash` drops volatile state only).
    """

    def __init__(self) -> None:
        self._blobs: Dict[int, bytes] = {}

    def put(self, cid: int, blob: bytes) -> None:
        self._blobs[int(cid)] = blob

    def get(self, cid: int) -> bytes:
        return self._blobs[int(cid)]

    def delete(self, cid: int) -> None:
        self._blobs.pop(int(cid), None)

    def __contains__(self, cid: int) -> bool:
        return int(cid) in self._blobs

    def cids(self) -> Iterator[int]:
        return iter(sorted(self._blobs))

    def __len__(self) -> int:
        return len(self._blobs)


def _open_rw(path: Path, truncate: bool = False):
    """An unbuffered read/write handle, created if missing (positioned
    IO only: every read and write names its offset)."""
    flags = os.O_RDWR | os.O_CREAT | (os.O_TRUNC if truncate else 0)
    return open(os.open(path, flags, 0o644), "r+b", buffering=0)


def _pwrite(fd: int, data: bytes, offset: int) -> None:
    written = os.pwrite(fd, data, offset)
    if written != len(data):
        raise OSError(f"short spill write: {written} of {len(data)} B at {offset}")


class PackSpill(ContainerSpill):
    """One append-only pack file of container records under a spill
    directory: the real out-of-core store.

    Each record is ``cid(i64) | length(u32) | blob``; a record with
    ``length`` 0 is the tombstone of a delete (a blob is never empty).
    An in-RAM table maps every live cid to its blob's ``(offset,
    length)``, so :meth:`get` is one ``os.pread`` and :meth:`put` one
    positioned write at the end of the file. A delete appends a
    tombstone, and the deleted record plus its tombstone count as dead
    bytes. When dead bytes exceed live bytes the pack is rewritten with
    the live records only (tmp file, then ``os.replace``).

    Opening a directory that already holds a pack rescans it and
    truncates a torn tail record (a header or blob cut short by an
    interrupted append), so a machine-level interruption loses at most
    the record being written. The file handle is closed by
    :meth:`close`, or by a finalizer once the spill is collected.
    """

    NAME = "containers.pack"

    def __init__(self, path) -> None:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        #: the pack file itself
        self.pack = path / self.NAME
        self._handle = _open_rw(self.pack)
        self._finalizer = weakref.finalize(self, self._handle.close)
        self._fd = self._handle.fileno()
        #: live cid -> (blob offset, blob length), in file order
        self._table: Dict[int, Tuple[int, int]] = {}
        #: bytes of live records (header + blob)
        self.live_bytes = 0
        #: bytes of deleted or overwritten records and of tombstones
        self.dead_bytes = 0
        self._scan()

    def _scan(self) -> None:
        """Rebuild the table from the file; truncate a torn tail."""
        size = os.fstat(self._fd).st_size
        end = 0
        while end + _RECORD.size <= size:
            cid, n = _RECORD.unpack(os.pread(self._fd, _RECORD.size, end))
            if end + _RECORD.size + n > size:
                break
            self._forget(cid)
            if n:
                self._table[cid] = (end + _RECORD.size, n)
                self.live_bytes += _RECORD.size + n
            else:
                self.dead_bytes += _RECORD.size
            end += _RECORD.size + n
        if end < size:
            os.ftruncate(self._fd, end)

    def _forget(self, cid: int) -> bool:
        """Move ``cid``'s record, if live, from live to dead bytes."""
        entry = self._table.pop(cid, None)
        if entry is None:
            return False
        nbytes = _RECORD.size + entry[1]
        self.live_bytes -= nbytes
        self.dead_bytes += nbytes
        return True

    def _append(self, cid: int, blob: bytes) -> int:
        """Write one record at the end of the file; returns the blob's
        offset."""
        offset = self.live_bytes + self.dead_bytes
        _pwrite(self._fd, _RECORD.pack(cid, len(blob)) + blob, offset)
        return offset + _RECORD.size

    def put(self, cid: int, blob: bytes) -> None:
        if not blob:
            raise ValueError(f"empty spill blob for cid {cid}")
        cid = int(cid)
        self._forget(cid)
        self._table[cid] = (self._append(cid, blob), len(blob))
        self.live_bytes += _RECORD.size + len(blob)

    def get(self, cid: int) -> bytes:
        offset, n = self._table[int(cid)]
        blob = os.pread(self._fd, n, offset)
        if len(blob) != n:
            raise ValueError(f"{self.pack} short for cid {cid}: {len(blob)} B != {n} B")
        return blob

    def delete(self, cid: int) -> None:
        cid = int(cid)
        if not self._forget(cid):
            return
        self._append(cid, b"")
        self.dead_bytes += _RECORD.size
        if self.dead_bytes > self.live_bytes:
            self.compact()

    def compact(self) -> None:
        """Rewrite the pack with its live records only, in file order."""
        tmp = self.pack.with_suffix(".tmp")
        new = _open_rw(tmp, truncate=True)
        table: Dict[int, Tuple[int, int]] = {}
        end = 0
        try:
            for cid, (offset, n) in self._table.items():
                _pwrite(new.fileno(), _RECORD.pack(cid, n) + os.pread(self._fd, n, offset), end)
                table[cid] = (end + _RECORD.size, n)
                end += _RECORD.size + n
            os.replace(tmp, self.pack)
        except BaseException:
            new.close()
            raise
        self.close()
        self._handle = new
        self._finalizer = weakref.finalize(self, new.close)
        self._fd = new.fileno()
        self._table = table
        self.dead_bytes = 0

    def close(self) -> None:
        """Close the pack's file handle (idempotent)."""
        self._finalizer()

    def __contains__(self, cid: int) -> bool:
        return int(cid) in self._table

    def cids(self) -> Iterator[int]:
        return iter(sorted(self._table))


def make_spill(spill_dir: Optional[str]) -> ContainerSpill:
    """The backend a store config resolves to: a :class:`PackSpill`
    when a directory is named, the :class:`MemorySpill` shim otherwise."""
    if spill_dir is None:
        return MemorySpill()
    return PackSpill(spill_dir)
