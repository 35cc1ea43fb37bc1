"""An evolving file system at chunk granularity.

The model tracks every file as a sequence of ``(fingerprint, size)``
chunks and applies per-generation churn:

* **in-place edits** — runs of chunks replaced by brand-new chunks, with
  one extra neighbouring chunk disturbed to mimic content-defined-
  chunking boundary shift around an edit;
* **insertions / deletions** of chunk runs inside files;
* **whole-file events** — files created, deleted, or fully rewritten.

A full backup is the concatenation of all live files in stable creation
order (a file-tree walk), which is what makes consecutive generations
highly redundant yet progressively *de-linearized* once a deduplicator
scatters their physical copies — the paper's setting.

Fingerprints come from :class:`ChunkIdAllocator`: splitmix64 of a global
counter, which is collision-free by construction (splitmix64 is a
bijection) while still uniformly distributed for the index structures.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._util import KIB, check_fraction, check_positive, rng_from
from repro.chunking.base import ChunkStream
from repro.chunking.fingerprint import splitmix64_array

log = logging.getLogger(__name__)


class ChunkIdAllocator:
    """Issues globally unique, uniformly distributed 64-bit chunk ids.

    All users of one workload share a single allocator so that chunks
    created anywhere in the workload can never collide, while chunks
    *copied* between files/users share ids (that is what dedup sees).
    """

    def __init__(self, seed: int) -> None:
        # offset the counter space by the seed so two workloads with
        # different seeds produce disjoint, uncorrelated id streams
        self._counter = (int(seed) & 0xFFFF_FFFF) << 32
        self._sizes_rng = rng_from(seed, "chunk-sizes")

    def take(self, n: int) -> np.ndarray:
        """Allocate ``n`` fresh fingerprints."""
        check_positive("n", n)
        start = self._counter
        self._counter += n
        return splitmix64_array(np.arange(start, start + n, dtype=np.uint64))

    def chunk_sizes(self, n: int, avg_bytes: int, min_bytes: int, max_bytes: int) -> np.ndarray:
        """Sample ``n`` content-defined-looking chunk sizes.

        CDC produces sizes that are roughly ``min + Exp(avg - min)``
        truncated at ``max``; we sample exactly that.
        """
        check_positive("n", n)
        span = max(avg_bytes - min_bytes, 1)
        raw = self._sizes_rng.exponential(scale=span, size=n)
        sizes = np.clip(min_bytes + raw, min_bytes, max_bytes)
        return sizes.astype(np.uint32)


@dataclass(frozen=True)
class ChurnProfile:
    """Per-generation mutation rates of a user file system.

    All fractions are per generation. Defaults are tuned to backup-style
    churn: most data stable, a noticeable minority of files touched.

    Attributes:
        modify_frac: fraction of files receiving in-place edits.
        edits_per_file_mean: Poisson mean of edit sites per modified file.
        edit_run_mean: geometric mean of chunks replaced per edit site.
        insert_prob: probability an edit inserts new chunks instead of
            replacing (grows the file).
        delete_prob: probability an edit deletes the run instead of
            replacing (shrinks the file).
        boundary_shift: probability an edit also disturbs the following
            chunk (CDC boundary-shift effect).
        file_delete_frac: fraction of files deleted outright.
        file_create_frac: new-file bytes per generation, as a fraction of
            current FS bytes.
        file_rewrite_frac: fraction of files completely rewritten.
        hot_fraction: fraction of files eligible for in-place edits (a
            stable "hot set" — real file systems concentrate churn in a
            minority of files; 1.0 spreads edits uniformly).
        file_move_frac: fraction of files moved/renamed per generation.
            A move keeps the content but relocates the file in the
            backup stream order (directory walks change), perturbing
            segment composition — the disorder that similarity-based
            detection is sensitive to.
    """

    modify_frac: float = 0.12
    edits_per_file_mean: float = 4.0
    edit_run_mean: float = 2.0
    insert_prob: float = 0.15
    delete_prob: float = 0.10
    boundary_shift: float = 0.5
    file_delete_frac: float = 0.01
    file_create_frac: float = 0.015
    file_rewrite_frac: float = 0.01
    hot_fraction: float = 1.0
    file_move_frac: float = 0.0

    def __post_init__(self) -> None:
        check_fraction("file_move_frac", self.file_move_frac)
        check_fraction("hot_fraction", self.hot_fraction)
        if self.hot_fraction == 0.0:
            raise ValueError("hot_fraction must be > 0 (no files could be edited)")
        check_fraction("modify_frac", self.modify_frac)
        check_fraction("insert_prob", self.insert_prob)
        check_fraction("delete_prob", self.delete_prob)
        check_fraction("boundary_shift", self.boundary_shift)
        check_fraction("file_delete_frac", self.file_delete_frac)
        check_fraction("file_create_frac", self.file_create_frac)
        check_fraction("file_rewrite_frac", self.file_rewrite_frac)
        if self.insert_prob + self.delete_prob > 1.0:
            raise ValueError("insert_prob + delete_prob must be <= 1")
        check_positive("edits_per_file_mean", self.edits_per_file_mean)
        check_positive("edit_run_mean", self.edit_run_mean)


@dataclass
class _File:
    """One file's chunk content (parallel arrays)."""

    fid: int
    fps: np.ndarray
    sizes: np.ndarray

    @property
    def n_chunks(self) -> int:
        return int(self.fps.size)

    @property
    def nbytes(self) -> int:
        return int(self.sizes.sum(dtype=np.int64)) if self.n_chunks else 0


class FileSystemModel:
    """One user's evolving file system.

    Args:
        seed: deterministic seed (combined with ``user`` tag).
        initial_bytes: approximate initial FS size.
        churn: per-generation mutation profile.
        avg_chunk_bytes / min_chunk_bytes / max_chunk_bytes: chunk-size
            distribution (defaults 8 KiB avg, as the paper's systems use).
        avg_file_bytes: lognormal mean file size (default 512 KiB).
        allocator: shared chunk-id allocator (one per workload); a private
            one is created when omitted.
        shared_pool: optional ``(fps, sizes)`` arrays of common content
            (OS/toolchain files); a slice of the initial FS is built from
            contiguous runs of it, giving cross-user redundancy.
        shared_frac: fraction of initial bytes drawn from the pool.
    """

    def __init__(
        self,
        seed: int,
        initial_bytes: int,
        churn: Optional[ChurnProfile] = None,
        *,
        user: str = "user0",
        avg_chunk_bytes: int = 8 * KIB,
        min_chunk_bytes: int = 2 * KIB,
        max_chunk_bytes: int = 64 * KIB,
        avg_file_bytes: int = 512 * KIB,
        allocator: Optional[ChunkIdAllocator] = None,
        shared_pool: Optional[tuple] = None,
        shared_frac: float = 0.0,
    ) -> None:
        check_positive("initial_bytes", initial_bytes)
        check_fraction("shared_frac", shared_frac)
        self.seed = int(seed)
        self.user = str(user)
        self.churn = churn if churn is not None else ChurnProfile()
        self.avg_chunk_bytes = int(avg_chunk_bytes)
        self.min_chunk_bytes = int(min_chunk_bytes)
        self.max_chunk_bytes = int(max_chunk_bytes)
        self.avg_file_bytes = int(avg_file_bytes)
        self._rng = rng_from(seed, "fs", user)
        self._alloc = allocator if allocator is not None else ChunkIdAllocator(seed)
        self._files: List[_File] = []
        self._next_fid = 0
        self.generation = 0
        # files touched by the most recent evolve() — the content of an
        # incremental backup
        self._changed_fids: set = set()
        self._populate(initial_bytes, shared_pool, float(shared_frac))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _sample_file_chunk_count(self) -> int:
        """Lognormal file size, expressed in chunks (>= 1)."""
        sigma = 1.1
        mu = np.log(self.avg_file_bytes) - 0.5 * sigma * sigma
        nbytes = float(self._rng.lognormal(mean=mu, sigma=sigma))
        # clip the lognormal tail relative to the mean so scaled-down
        # experiments are not dominated by one huge file
        nbytes = min(max(nbytes, self.min_chunk_bytes), 16 * self.avg_file_bytes)
        return max(1, int(round(nbytes / self.avg_chunk_bytes)))

    def _new_chunks(self, n: int) -> tuple:
        fps = self._alloc.take(n)
        sizes = self._alloc.chunk_sizes(
            n, self.avg_chunk_bytes, self.min_chunk_bytes, self.max_chunk_bytes
        )
        return fps, sizes

    def _make_file(self, n_chunks: int) -> _File:
        fps, sizes = self._new_chunks(n_chunks)
        f = _File(fid=self._next_fid, fps=fps, sizes=sizes)
        self._next_fid += 1
        return f

    def _make_shared_file(self, n_chunks: int, pool_fps: np.ndarray, pool_sizes: np.ndarray) -> _File:
        """A file whose content is a contiguous run of the shared pool."""
        max_start = max(pool_fps.size - n_chunks, 0)
        start = int(self._rng.integers(0, max_start + 1))
        stop = min(start + n_chunks, pool_fps.size)
        f = _File(
            fid=self._next_fid,
            fps=pool_fps[start:stop].copy(),
            sizes=pool_sizes[start:stop].copy(),
        )
        self._next_fid += 1
        return f

    def _populate(self, target_bytes: int, shared_pool, shared_frac: float) -> None:
        shared_target = int(target_bytes * shared_frac) if shared_pool is not None else 0
        produced = 0
        if shared_target:
            pool_fps, pool_sizes = shared_pool
            while produced < shared_target:
                f = self._make_shared_file(self._sample_file_chunk_count(), pool_fps, pool_sizes)
                if f.n_chunks == 0:
                    break
                self._files.append(f)
                produced += f.nbytes
        while produced < target_bytes:
            remaining = target_bytes - produced
            n_chunks = self._sample_file_chunk_count()
            # truncate the last file so the FS lands on target, not past it
            n_chunks = min(n_chunks, max(1, remaining // self.avg_chunk_bytes))
            f = self._make_file(n_chunks)
            self._files.append(f)
            produced += f.nbytes

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(f.nbytes for f in self._files)

    @property
    def total_chunks(self) -> int:
        return sum(f.n_chunks for f in self._files)

    def full_backup(self) -> ChunkStream:
        """Full-backup stream: all live files in stable creation order."""
        live = [f for f in self._files if f.n_chunks]
        if not live:
            return ChunkStream.empty()
        return ChunkStream(
            np.concatenate([f.fps for f in live]),
            np.concatenate([f.sizes for f in live]),
        )

    def file_extents(self):
        """Chunk-index extents of each live file within the full-backup
        stream: a list of ``(fid, start_chunk, n_chunks)`` in stream
        order. Lets callers restore or analyze single files out of a
        backup recipe (the paper's Fig. 1 is a per-file view)."""
        extents = []
        pos = 0
        for f in self._files:
            if f.n_chunks:
                extents.append((f.fid, pos, f.n_chunks))
                pos += f.n_chunks
        return extents

    def incremental_backup(self) -> ChunkStream:
        """Incremental stream: only files touched by the latest
        :meth:`evolve` (whole-file granularity, as file-level incremental
        backup tools ship them). Before any evolve this equals the full
        backup."""
        if self.generation == 0:
            return self.full_backup()
        changed = [f for f in self._files if f.fid in self._changed_fids and f.n_chunks]
        if not changed:
            return ChunkStream.empty()
        return ChunkStream(
            np.concatenate([f.fps for f in changed]),
            np.concatenate([f.sizes for f in changed]),
        )

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------

    def evolve(self) -> None:
        """Apply one generation of churn."""
        rng = self._rng
        c = self.churn
        self.generation += 1
        self._changed_fids = set()

        n = len(self._files)
        if n == 0:
            return

        # whole-file deletes
        n_delete = int(round(n * c.file_delete_frac))
        if n_delete:
            doomed = set(rng.choice(n, size=min(n_delete, n), replace=False).tolist())
            self._files = [f for i, f in enumerate(self._files) if i not in doomed]

        # whole-file rewrites (same file slot, all-new content)
        n = len(self._files)
        n_rewrite = int(round(n * c.file_rewrite_frac))
        if n_rewrite and n:
            targets = rng.choice(n, size=min(n_rewrite, n), replace=False)
            for i in targets:
                f = self._files[int(i)]
                fps, sizes = self._new_chunks(max(1, f.n_chunks))
                f.fps, f.sizes = fps, sizes
                self._changed_fids.add(f.fid)

        # in-place edits, drawn from the stable hot set (membership is a
        # pure function of the file id, so the hot set persists across
        # generations and survives file-list reshuffles)
        n = len(self._files)
        n_modify = int(round(n * c.modify_frac))
        if n_modify and n:
            if c.hot_fraction >= 1.0:
                eligible = np.arange(n)
            else:
                threshold = int(c.hot_fraction * 2**32)
                fids = np.asarray([f.fid for f in self._files], dtype=np.uint64)
                hot = (splitmix64_array(fids) >> np.uint64(32)) < threshold
                eligible = np.flatnonzero(hot)
                if eligible.size == 0:
                    eligible = np.arange(n)
            take = min(n_modify, eligible.size)
            targets = rng.choice(eligible, size=take, replace=False)
            for i in targets:
                self._edit_file(self._files[int(i)])
                self._changed_fids.add(self._files[int(i)].fid)

        # file moves/renames: content unchanged, stream position changes
        n = len(self._files)
        n_move = int(round(n * c.file_move_frac))
        if n_move and n > 1:
            movers = rng.choice(n, size=min(n_move, n), replace=False)
            moved = [self._files[int(i)] for i in movers]
            doomed = set(int(i) for i in movers)
            rest = [f for i, f in enumerate(self._files) if i not in doomed]
            for f in moved:
                pos = int(rng.integers(0, len(rest) + 1))
                rest.insert(pos, f)
                # renamed/moved files are re-shipped by file-level
                # incremental backup tools
                self._changed_fids.add(f.fid)
            self._files = rest

        # new files (truncating the last one so growth matches the profile)
        target_new = int(self.total_bytes * c.file_create_frac)
        produced = 0
        while produced < target_new:
            remaining = target_new - produced
            n_chunks = self._sample_file_chunk_count()
            n_chunks = min(n_chunks, max(1, remaining // self.avg_chunk_bytes))
            f = self._make_file(n_chunks)
            self._files.append(f)
            produced += f.nbytes
            self._changed_fids.add(f.fid)
        log.debug(
            "%s gen %d: %d files (%d touched), %d bytes",
            self.user,
            self.generation,
            len(self._files),
            len(self._changed_fids),
            self.total_bytes,
        )

    def _edit_file(self, f: _File) -> None:
        """Apply a Poisson number of edit sites to one file."""
        rng = self._rng
        c = self.churn
        n_edits = max(1, int(rng.poisson(c.edits_per_file_mean)))
        for _ in range(n_edits):
            if f.n_chunks == 0:
                fps, sizes = self._new_chunks(1)
                f.fps, f.sizes = fps, sizes
                continue
            pos = int(rng.integers(0, f.n_chunks))
            run = max(1, int(rng.geometric(1.0 / c.edit_run_mean)))
            u = rng.random()
            if u < c.insert_prob:
                # insertion: new chunks spliced in at pos
                fps, sizes = self._new_chunks(run)
                f.fps = np.concatenate([f.fps[:pos], fps, f.fps[pos:]])
                f.sizes = np.concatenate([f.sizes[:pos], sizes, f.sizes[pos:]])
            elif u < c.insert_prob + c.delete_prob:
                # deletion of the run
                stop = min(pos + run, f.n_chunks)
                f.fps = np.concatenate([f.fps[:pos], f.fps[stop:]])
                f.sizes = np.concatenate([f.sizes[:pos], f.sizes[stop:]])
            else:
                # replacement; boundary shift may extend the damage by one
                stop = min(pos + run, f.n_chunks)
                if rng.random() < c.boundary_shift and stop < f.n_chunks:
                    stop += 1
                length = stop - pos
                fps, sizes = self._new_chunks(length)
                f.fps = np.concatenate([f.fps[:pos], fps, f.fps[stop:]])
                f.sizes = np.concatenate([f.sizes[:pos], sizes, f.sizes[stop:]])
