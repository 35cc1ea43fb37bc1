"""SiLo blocks: groups of contiguous segments.

SiLo (Xia et al., USENIX ATC'11) exploits similarity *and* locality: each
segment is summarized by a representative fingerprint; contiguous
segments are packed into a *block*, the on-disk read/write unit. When an
incoming segment is similar to a stored one, SiLo fetches the whole block
containing it, so duplicates in neighbouring segments are found too —
provided the duplicate locality inside blocks still holds, which is
exactly what placement de-linearization erodes (paper Fig. 3/5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._util import MIB, check_positive
from repro.segmenting.segmenter import Segment

from repro.storage.container import CHUNK_METADATA_BYTES


def representative_fingerprint(fps: np.ndarray) -> int:
    """SiLo's segment summary: the minimum fingerprint of the segment.

    Min-wise sampling gives the similarity property: two segments sharing
    a large fraction of chunks pick the same representative with
    probability equal to their Jaccard similarity.
    """
    if fps.size == 0:
        raise ValueError("cannot summarize an empty segment")
    return int(fps.min())


@dataclass(frozen=True)
class Block:
    """A sealed block: the fingerprints of its member segments' chunks.

    Attributes:
        bid: block id.
        fingerprints: all chunk fingerprints in the block, write order.
        segment_reps: representative fingerprint of each member segment.
        data_bytes: payload bytes across member segments.
    """

    bid: int
    fingerprints: np.ndarray
    segment_reps: np.ndarray
    data_bytes: int

    @property
    def n_chunks(self) -> int:
        return int(self.fingerprints.size)

    @property
    def metadata_bytes(self) -> int:
        """Size of the block's on-disk fingerprint index (what a
        similarity hit transfers into RAM)."""
        return self.n_chunks * CHUNK_METADATA_BYTES


class BlockBuilder:
    """Accumulates written segments into fixed-capacity blocks.

    Args:
        block_bytes: payload capacity per block (SiLo-scale default 8 MiB).
    """

    def __init__(self, block_bytes: int = 8 * MIB) -> None:
        check_positive("block_bytes", block_bytes)
        self.block_bytes = int(block_bytes)
        self._next_bid = 0
        self._fps: List[np.ndarray] = []
        self._reps: List[int] = []
        self._bytes = 0

    @property
    def current_bid(self) -> int:
        """Id the next sealed block will get (segments added now land in
        this block)."""
        return self._next_bid

    def add_segment(self, segment: Segment, written_fps: np.ndarray, written_bytes: int) -> int:
        """Add one processed segment's *written* chunks to the open block.

        Args:
            segment: the incoming segment (for its representative).
            written_fps: fingerprints actually stored for this segment.
            written_bytes: payload bytes actually stored.

        Returns:
            The block id this segment was assigned to.
        """
        bid = self._next_bid
        if written_fps.size:
            self._fps.append(np.asarray(written_fps, dtype=np.uint64))
        self._reps.append(representative_fingerprint(segment.fps))
        self._bytes += int(written_bytes)
        return bid

    def should_seal(self) -> bool:
        """True once the open block has reached capacity."""
        return self._bytes >= self.block_bytes

    def seal(self) -> Optional[Block]:
        """Seal and return the open block (None if it is empty)."""
        if not self._reps:
            return None
        fps = (
            np.concatenate(self._fps)
            if self._fps
            else np.zeros(0, dtype=np.uint64)
        )
        block = Block(
            bid=self._next_bid,
            fingerprints=fps,
            segment_reps=np.asarray(self._reps, dtype=np.uint64),
            data_bytes=self._bytes,
        )
        self._next_bid += 1
        self._fps = []
        self._reps = []
        self._bytes = 0
        return block
