"""Span recorder that wraps the public methods of layer objects.

The benchmark builds every layer object itself (segmenter, chunker,
engine, prefetch cache, bloom filter, similarity index, on-disk index and
its shards, container store, garbage collector, restore reader) and, on a
traced pass, replaces each public method on that *instance* with a timing
wrapper. Nothing in the program changes: the wrappers live here and only
ever see the calls the program makes through the instance attribute.

Each call becomes one span ``(name, start_ns, end_ns, parent, op)``:
``parent`` is the index of the enclosing span (``-1`` at top level) and
``op`` the identifier of the benchmark operation (one backup, restore or
GC pass) the call belongs to. Spans stay in memory in flat integer arrays
and are written out once, when the benchmark ends.

Work the wrappers cannot see lands in the caller's self time. The engines
reach private state directly (``index._map.get``, ``BloomBatch._m0`` /
``_pending`` / ``_staged``, the sharded index's ``_RoutedMapView``),
refresh cache recency through the bound ``cache.touch_unit`` attribute,
and test membership with ``in`` (``__contains__`` cannot be wrapped per
instance). :data:`UNATTRIBUTED` names this for the report.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

#: where index and bloom work escapes the wrappers (printed with traces)
UNATTRIBUTED = (
    "dedup.self_s includes index and bloom work the wrappers cannot see: "
    "index._map.get peeks (dedup/ddfs.py:223, :360), "
    "BloomBatch._m0/_pending/_staged reads and BloomBatch methods "
    "(dedup/ddfs.py:216-218), the sharded index's _RoutedMapView, "
    "cache.touch_unit recency refreshes, and `in` / store.has membership "
    "tests; gc.s likewise includes its store.has probes"
)

#: per-chunk membership probes, not layer work: ``touch_unit`` is a bound
#: builtin and ``has`` a dict lookup called once per recipe chunk by the
#: GC mark loop (millions of calls), so wrapping them would time the
#: wrapper, not the layer
_SKIP = frozenset({"touch_unit", "has"})


def public_methods(obj) -> List[str]:
    """Names of the public methods defined on ``obj``'s class."""
    cls = type(obj)
    names = []
    for name in dir(cls):
        if name.startswith("_") or name in _SKIP:
            continue
        attr = getattr(cls, name, None)
        if isinstance(attr, (property, type)) or not callable(attr):
            continue
        names.append(name)
    return names


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: List[int] = []
        self._paused = False
        self.current_op = 0

    def __len__(self) -> int:
        return len(self.name)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def begin_op(self) -> None:
        """Start a new benchmark operation (one backup, restore or GC)."""
        self.current_op += 1

    def _name_id(self, label: str) -> int:
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def wrap(self, obj, layer: str, methods: Optional[Iterable[str]] = None) -> None:
        """Replace each public method of ``obj`` with a span-recording
        wrapper named ``<layer>.<method>``."""
        for method in methods if methods is not None else public_methods(obj):
            fn = getattr(obj, method)
            setattr(obj, method, self._traced(fn, self._name_id(f"{layer}.{method}")))

    def _traced(self, fn, nid: int):
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    # -- analysis ---------------------------------------------------------

    def layer_totals(self, first: int = 0) -> Dict[str, Tuple[float, int]]:
        """``layer -> (self seconds, calls)`` over spans ``first..``.

        A span's layer is its name minus the method (``index.cache`` for
        ``index.cache.lookup_many``). Self time is the span's duration
        minus the durations of its direct children; spans nest strictly
        (one thread, calls return in order), so the children never
        overlap and their sum is exactly the part they cover.
        """
        n = len(self.name)
        child = [0] * (n - first)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        layer_of = [label.rsplit(".", 1)[0] for label in self.names]
        totals: Dict[str, List[int]] = {}
        for i in range(first, n):
            layer = layer_of[self.name[i]]
            acc = totals.setdefault(layer, [0, 0])
            acc[0] += self.end[i] - self.start[i] - child[i - first]
            acc[1] += 1
        return {k: (v[0] / 1e9, v[1]) for k, v in totals.items()}

    def save(self, path: str) -> None:
        """Write every span to ``path`` as a compressed ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
