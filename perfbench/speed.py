"""Host-speed probe: a fixed reference kernel timed between operations.

On a shared machine the CPU's speed is not constant. On a 2-vCPU 2.1 GHz
host shared with other tenants' containers, a fixed Python-and-numpy loop
ran in either ~5.0 ms or ~7.2 ms, flipping every few seconds, and process
CPU time inflated by the same factor: it is a change of host speed, not
of scheduling. The same shifts spread the whole-run ingest rates of
identical runs by 0.15-0.37 (quartile distance over median).

So the benchmark times this module's :func:`reference_kernel` at least
every :data:`PROBE_INTERVAL_S` of run time, between timed operations, and
reports each operation's wall time scaled by ``REFERENCE_S / probe``,
where ``probe`` is read around the first probe after the operation: the time
the operation would have taken on a host that runs the kernel in
:data:`REFERENCE_S`. The raw wall times are printed next to the scaled
ones. The kernel does what the program's hot loops do (small-array numpy
calls, ``OrderedDict`` recency updates, dict and list churn), because
code with that footprint slows more under contention than a tight loop
does, and it is fixed: no change to the program can change it.
"""

from __future__ import annotations

import statistics
import time
from collections import OrderedDict
from typing import List

import numpy as np

#: the reference host's kernel time (about the median probe on that
#: 2-vCPU host)
REFERENCE_S = 3.0e-3
#: probe at least this often (seconds of run time)
PROBE_INTERVAL_S = 0.2

_RNG = np.random.default_rng(2012)
_ARRAYS = [_RNG.integers(0, 2**62, size=256, dtype=np.int64).astype(np.uint64)
           for _ in range(8)]


def reference_kernel() -> int:
    """~3 ms of fixed work shaped like the program's per-segment loops."""
    recency: "OrderedDict[int, int]" = OrderedDict()
    acc = 0
    for _ in range(3):
        for a in _ARRAYS:
            uniq, first = np.unique(a, return_index=True)
            pos = np.searchsorted(uniq, a[::3])
            hits = np.isin(a[:64], uniq[:128])
            acc += int(pos[-1]) + int(hits.sum()) + int(np.cumsum(first)[-1] & 1)
            for key in a[:32].tolist():
                recency[key] = acc
                recency.move_to_end(key)
            while len(recency) > 512:
                recency.popitem(last=False)
    return acc


class Speedometer:
    """Times :func:`reference_kernel` and keeps every probe."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._last = -float("inf")

    def probe(self) -> int:
        """Time the kernel now; returns the probe's index."""
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self._last = t1
        return len(self.probes) - 1

    def after_op(self) -> int:
        """Called right after a timed operation: the index of the first
        probe at or after this moment (probing now if the interval has
        passed). :meth:`probe` once more before reading the last index."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            return self.probe()
        return len(self.probes)

    def scale(self, seconds: float, index: int) -> float:
        """``seconds`` measured next to probe ``index``, on the reference
        host. The host's speed is read as the median of the five probes
        around ``index`` (about one second of run time), which damps the
        jitter of a single ~3 ms probe but follows the state flips."""
        window = self.probes[max(0, index - 2): index + 3]
        return seconds * REFERENCE_S / statistics.median(window)
