"""Grouping chunk streams into segments.

Per the paper §III-B: "breaks [the stream] into serials of chunks and
groups multiple contiguous chunks into segments. Each of segments varies
from 0.5MB to 2MB based on the chunk content."

Content-defined segment boundaries are chosen by testing each chunk's
fingerprint against a divisor (the Extreme Binning / SiLo technique), so
identical data regions segment identically across backups regardless of
their position in the stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np

from repro._util import MIB, check_positive
from repro.chunking.base import ChunkStream


@dataclass(frozen=True)
class Segment:
    """A contiguous run of chunks from one backup stream.

    Attributes:
        index: segment ordinal within its stream.
        start: index of the first chunk in the parent stream.
        fps: uint64 fingerprints (a view into the parent stream's array).
        sizes: uint32 chunk sizes (parallel view).
    """

    index: int
    start: int
    fps: np.ndarray
    sizes: np.ndarray

    @property
    def n_chunks(self) -> int:
        return int(self.fps.size)

    @cached_property
    def nbytes(self) -> int:
        # cached: the arrays are views of an immutable stream, and the
        # ingest path reads this several times per segment
        return int(self.sizes.sum(dtype=np.int64)) if self.n_chunks else 0

    @property
    def stop(self) -> int:
        """Index one past the last chunk in the parent stream."""
        return self.start + self.n_chunks

    def __len__(self) -> int:
        return self.n_chunks


class Segmenter(abc.ABC):
    """Interface: split a chunk stream into contiguous segments."""

    @abc.abstractmethod
    def boundaries(self, stream: ChunkStream) -> np.ndarray:
        """Return chunk-index cut points, starting at 0, ending at
        ``len(stream)``."""

    def split(self, stream: ChunkStream) -> List[Segment]:
        """Split ``stream`` into :class:`Segment` views."""
        return self.split_at(stream, self.boundaries(stream))

    def split_at(self, stream: ChunkStream, cuts: np.ndarray) -> List[Segment]:
        """Segment views from precomputed cuts (as from
        :meth:`boundaries`) — lets callers needing both the cuts and the
        segments pay for one boundary scan."""
        fps = stream.fps
        sizes = stream.sizes
        segments: List[Segment] = []
        for i in range(len(cuts) - 1):
            a, b = int(cuts[i]), int(cuts[i + 1])
            segments.append(Segment(index=i, start=a, fps=fps[a:b], sizes=sizes[a:b]))
        return segments


@dataclass
class ContentDefinedSegmenter(Segmenter):
    """Content-defined segmenting (the paper's configuration by default).

    A chunk ends a segment when ``fp % divisor == 0`` once the segment has
    reached ``min_bytes``; a cut is forced at ``max_bytes``. With 8 KiB
    average chunks and ``divisor = avg_bytes / 8 KiB``, segments average
    ``avg_bytes``.

    Attributes:
        min_bytes: minimum segment payload (paper: 0.5 MB).
        avg_bytes: target average payload (1 MB).
        max_bytes: forced-cut payload (paper: 2 MB).
        avg_chunk_bytes: expected chunk size, used to derive the divisor.
    """

    min_bytes: int = MIB // 2
    avg_bytes: int = MIB
    max_bytes: int = 2 * MIB
    avg_chunk_bytes: int = 8 * 1024
    _divisor: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("min_bytes", self.min_bytes)
        if not self.min_bytes <= self.avg_bytes <= self.max_bytes:
            raise ValueError(
                f"need min <= avg <= max, got "
                f"{self.min_bytes}/{self.avg_bytes}/{self.max_bytes}"
            )
        check_positive("avg_chunk_bytes", self.avg_chunk_bytes)
        # After min_bytes, boundaries fire once per (avg - min) worth of
        # chunks on average, centering segment sizes on avg_bytes.
        span = max(self.avg_bytes - self.min_bytes, self.avg_chunk_bytes)
        self._divisor = max(2, span // self.avg_chunk_bytes)

    def boundaries(self, stream: ChunkStream) -> np.ndarray:
        """One searchsorted step per *segment* instead of one loop
        iteration per chunk: a segment ends at the earlier of the first
        chunk crossing ``max_bytes`` and the first boundary candidate past
        ``min_bytes`` — both monotone in the cumulative byte total, so
        each is a binary search."""
        n = len(stream)
        if n == 0:
            return np.zeros(1, dtype=np.int64)
        cum = np.cumsum(stream.sizes, dtype=np.int64)
        cand_idx = np.flatnonzero((stream.fps % np.uint64(self._divisor)) == 0)
        cand_cum = cum[cand_idx]
        cuts = [0]
        base = 0
        pos = 0
        while True:
            i_forced = int(np.searchsorted(cum, base + self.max_bytes))
            k = max(
                int(np.searchsorted(cand_idx, pos)),
                int(np.searchsorted(cand_cum, base + self.min_bytes)),
            )
            i_cand = int(cand_idx[k]) if k < cand_idx.size else n
            i = min(i_forced, i_cand)
            if i >= n:
                break
            cuts.append(i + 1)
            base = int(cum[i])
            pos = i + 1
        if cuts[-1] != n:
            cuts.append(n)
        return np.asarray(cuts, dtype=np.int64)


@dataclass
class FixedSegmenter(Segmenter):
    """Cut a new segment every ``target_bytes`` of payload (ablation
    baseline: position-defined, so segment contents shift with edits)."""

    target_bytes: int = MIB

    def __post_init__(self) -> None:
        check_positive("target_bytes", self.target_bytes)

    def boundaries(self, stream: ChunkStream) -> np.ndarray:
        n = len(stream)
        if n == 0:
            return np.zeros(1, dtype=np.int64)
        cum = np.cumsum(stream.sizes, dtype=np.int64)
        cuts = [0]
        threshold = self.target_bytes
        while True:
            i = int(np.searchsorted(cum, threshold))
            if i >= n:
                break
            cuts.append(i + 1)
            threshold = int(cum[i]) + self.target_bytes
        if cuts[-1] != n:
            cuts.append(n)
        return np.asarray(cuts, dtype=np.int64)
