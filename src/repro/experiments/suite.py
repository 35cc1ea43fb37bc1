"""The experiment table and its one runner.

:data:`EXPERIMENTS` is the only place that names the experiments: the
CLI takes its choices and table formats from it, ``repro trace`` takes
its targets from it, and the markdown report takes its formats from it.
Each row points at an experiment module's uniform pair
``cells(config)`` / ``assemble(config, results)`` through lazy
``"module:function"`` refs, so running one figure does not import every
harness.

``repro all --jobs N`` collects every requested experiment's cells into
a *single* grid before running it, so cells shared between figures (the
group-workload runs figs 4 and 5 both consume) are computed exactly
once — the parallel analogue of the serial ``_GROUP_MEMO`` sharing —
and every independent cell across all figures can occupy a worker at
the same time. :func:`run_experiment` is the one-experiment form.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.experiments.common import FigureResult
from repro.experiments.config import ExperimentConfig
from repro.parallel import CellSpec, GridError, resolve, run_grid


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`."""

    #: ``"module:function"`` ref of ``cells(config) -> List[CellSpec]``
    cells: str
    #: ``"module:function"`` ref of ``assemble(config, results) -> FigureResult``
    assemble: str
    #: float format of the printed table's cells
    fmt: str = "{:.1f}"


def _row(module: str, prefix: str = "", fmt: str = "{:.1f}") -> Experiment:
    """The row whose pair is ``<prefix>cells`` / ``<prefix>assemble`` of
    ``repro.experiments.<module>``."""
    ref = f"repro.experiments.{module}:{prefix}"
    return Experiment(ref + "cells", ref + "assemble", fmt)


#: experiment name -> (cells ref, assemble ref, table format)
EXPERIMENTS: Dict[str, Experiment] = {
    "fig2": _row("fig2"),
    "fig3": _row("fig3", fmt="{:.3f}"),
    "fig4": _row("fig4"),
    "fig5": _row("fig5", fmt="{:.3f}"),
    "fig6": _row("fig6"),
    "alpha-sweep": _row("ablations", "alpha_"),
    "segment-ablation": _row("ablations", "segment_"),
    "cache-ablation": _row("ablations", "cache_"),
    "restore-ablation": _row("restore_ablation"),
    "related-work": _row("extensions", "related_"),
    "gc-study": _row("extensions", "gc_"),
    "frontier": _row("frontier", fmt="{:.2f}"),
    "tenants": _row("tenants", fmt="{:.2f}"),
}

#: what ``repro all`` runs, in print order
ALL_FIGURES: Tuple[str, ...] = ("fig2", "fig3", "fig4", "fig5", "fig6")


def run_suite(
    names: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
) -> Tuple[Dict[str, FigureResult], Dict[str, str]]:
    """Run several experiments over one deduplicated cell grid.

    Returns ``(results, errors)``: per-experiment figure results (which
    may carry per-cell ``failures``) and per-experiment fatal errors
    (every cell an experiment needed failed, so nothing was assembled).
    """
    config = config if config is not None else ExperimentConfig.default()
    specs: List[CellSpec] = []
    for name in names:
        if name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {name!r}; pick from {sorted(EXPERIMENTS)}"
            )
        specs.extend(resolve(EXPERIMENTS[name].cells)(config))
    grid = run_grid(specs, jobs=jobs, timeout_s=timeout_s)
    results: Dict[str, FigureResult] = {}
    errors: Dict[str, str] = {}
    for name in names:
        try:
            results[name] = resolve(EXPERIMENTS[name].assemble)(config, grid)
        except GridError as exc:
            errors[name] = str(exc)
    return results, errors


def suite_failed(
    results: Dict[str, FigureResult], errors: Dict[str, str]
) -> bool:
    """True when any experiment had a failed cell or failed outright."""
    return bool(errors) or any(r.failures for r in results.values())


def run_experiment(
    name: str,
    config: Optional[ExperimentConfig] = None,
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
) -> FigureResult:
    """Run one experiment of :data:`EXPERIMENTS`.

    The result may carry per-cell ``failures``; raises
    :class:`~repro.parallel.GridError` when the experiment failed
    outright (every cell it needed failed).
    """
    results, errors = run_suite([name], config, jobs=jobs, timeout_s=timeout_s)
    if name in errors:
        raise GridError(errors[name])
    return results[name]
