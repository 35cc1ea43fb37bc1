"""Experiment harnesses: one module per paper figure, plus ablations.

Every figure in the paper's evaluation has a module here that regenerates
its series on the simulated substrate:

* :mod:`~repro.experiments.fig2` — DDFS-like throughput decay, 20 full
  generations.
* :mod:`~repro.experiments.fig3` — SiLo-like efficiency decay, 20
  incremental generations.
* :mod:`~repro.experiments.fig4` — throughput: DeFrag vs DDFS-like vs
  SiLo-like, 66 generations.
* :mod:`~repro.experiments.fig5` — efficiency: DeFrag vs SiLo-like
  (partial-sharing-segment accounting), 66 generations.
* :mod:`~repro.experiments.fig6` — restore read performance: DeFrag vs
  DDFS-like, generations 1–20.
* :mod:`~repro.experiments.ablations` — α sweep, segmenter, and cache
  sizing studies.
* :mod:`~repro.experiments.frontier` — the placement-policy frontier:
  dedup ratio vs ingest rate vs restore seeks by backup age vs
  maintenance cost, across every registered engine.

Each module exposes a ``cells(config)`` / ``assemble(config, results)``
pair; :data:`repro.experiments.suite.EXPERIMENTS` names every pair and
its table format, and
:func:`~repro.experiments.suite.run_experiment` runs one by name::

    run_experiment("fig4", ExperimentConfig.small(), jobs=2)

Configs are :class:`~repro.experiments.config.ExperimentConfig` (scales:
``small`` for tests, ``default`` for the recorded results, ``large`` for
patient runs); results are
:class:`~repro.experiments.common.FigureResult` objects with the same
series the paper plots.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.common import FigureResult
from repro.experiments import (
    ablations,
    extensions,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    frontier,
)

__all__ = [
    "ExperimentConfig",
    "FigureResult",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ablations",
    "extensions",
    "frontier",
]
