"""Correctness checks and the recipe digest, run outside timed regions.

The checks rebuild, from the store's public interface only, what the
chaos sweep's private zero-data-loss check (``repro.chaos``,
``_ScenarioRunner.verify``) asserts:

* a recipe's fingerprint and size sequence equals its input stream;
* every ``(fingerprint, container)`` reference sits in a live container
  (``store.has``) that holds that fingerprint (``store.get``);
* a restore reconstructs exactly the recipe's bytes and chunks.

Each check returns a list of one-line violations; empty means correct.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np


def check_recipe_matches(recipe, stream, what: str) -> List[str]:
    """The recipe's fingerprint and size sequence is the input stream."""
    if recipe.n_chunks != len(stream):
        return [f"{what}: {recipe.n_chunks} chunks in recipe, {len(stream)} in input"]
    errors = []
    if not np.array_equal(recipe.fingerprints, stream.fps):
        errors.append(f"{what}: recipe fingerprints differ from the input stream")
    if not np.array_equal(recipe.sizes.astype(np.int64), stream.sizes.astype(np.int64)):
        errors.append(f"{what}: recipe sizes differ from the input stream")
    return errors


def check_recipe_placement(recipe, store, what: str) -> List[str]:
    """Every reference resolves to a live container holding the chunk."""
    cids = np.asarray(recipe.containers, dtype=np.int64)
    if cids.size == 0:
        return []
    order = np.argsort(cids, kind="stable")
    sorted_cids = cids[order]
    fps = np.asarray(recipe.fingerprints)[order]
    uniq, starts = np.unique(sorted_cids, return_index=True)
    stops = np.append(starts[1:], sorted_cids.size)
    errors = []
    for cid, lo, hi in zip(uniq.tolist(), starts.tolist(), stops.tolist()):
        if not store.has(cid):
            errors.append(f"{what}: references missing container {cid}")
            continue
        held = store.get(cid).fingerprints
        missing = ~np.isin(fps[lo:hi], held)
        if missing.any():
            errors.append(
                f"{what}: {int(missing.sum())} chunks not in container {cid}"
            )
    return errors


def check_restore(report, recipe, what: str) -> List[str]:
    """A restore reconstructed exactly the recipe."""
    if report.logical_bytes != recipe.total_bytes or report.n_chunks != recipe.n_chunks:
        return [
            f"{what}: restored {report.logical_bytes} bytes / {report.n_chunks} "
            f"chunks, recipe has {recipe.total_bytes} / {recipe.n_chunks}"
        ]
    return []


def recipe_digest(recipes) -> str:
    """SHA-256 over every recipe's generation, fingerprints, sizes and
    container ids, in order (short hex)."""
    h = hashlib.sha256()
    for r in recipes:
        h.update(int(r.generation).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(r.fingerprints, dtype=np.uint64).tobytes())
        h.update(np.ascontiguousarray(r.sizes, dtype=np.uint32).tobytes())
        h.update(np.ascontiguousarray(r.containers, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]
