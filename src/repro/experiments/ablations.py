"""Ablation studies for the design choices DESIGN.md calls out.

* :func:`alpha_sweep` — the α trade-off: kept redundancy (storage cost)
  vs ingest throughput vs restore rate, α ∈ {0, 0.05, 0.1, 0.2, 0.5}.
  The paper fixes α = 0.1 and notes it "can be adjusted and controlled
  to trade off the spatial locality improvement and the sacrificed
  compression ratios"; this quantifies that trade-off.
* ``segment-ablation`` (:func:`segment_cells` / :func:`segment_assemble`)
  — content-defined vs fixed segmenting.
* :func:`cache_ablation` — DDFS prefetch-cache capacity vs throughput
  decay (how much RAM merely *hides* de-linearization).

Grid decomposition: each sweep point (one α value, one segmenter kind,
one cache size) is an independent cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.dedup.pipeline import run_workload
from repro.api import create_engine, create_reader, create_resources
from repro.experiments.common import (
    FigureResult,
    author_jobs,
    cell_values,
    config_fingerprint,
    paper_segmenter,
)
from repro.experiments.config import ExperimentConfig
from repro.metrics.efficiency import cumulative_efficiency
from repro.metrics.storage import storage_summary
from repro.metrics.throughput import mean_throughput
from repro.parallel import CellSpec, run_grid
from repro.segmenting.segmenter import FixedSegmenter


DEFAULT_ALPHAS = (0.0, 0.05, 0.1, 0.2, 0.5)

DEFAULT_CACHE_SIZES = (4, 8, 12, 24, 48)

_NAN = float("nan")


# ----------------------------------------------------------------------
# alpha sweep
# ----------------------------------------------------------------------


def alpha_cell(config: ExperimentConfig) -> Dict:
    """Grid cell: DeFrag at one α (the α is baked into ``config``)."""
    res = create_resources(config)
    engine = create_engine("DeFrag", config, res)
    reports = run_workload(engine, author_jobs(config), paper_segmenter())
    reader = create_reader(res.store, config)
    return {
        "ingest_mbps": mean_throughput(reports) / 1e6,
        "kept_pct": 100.0 * (1.0 - cumulative_efficiency(reports)[-1]),
        "compression": storage_summary(reports).compression_ratio,
        "restore_mbps": reader.restore(reports[-1].recipe).read_rate / 1e6,
    }


def alpha_cells(
    config: ExperimentConfig, alphas: Sequence[float] = DEFAULT_ALPHAS
) -> List[CellSpec]:
    """One DeFrag cell per α point."""
    specs = []
    for alpha in alphas:
        cfg = config.with_(alpha=alpha)
        specs.append(
            CellSpec(
                key=("alpha", f"a{alpha:g}", config_fingerprint(cfg)),
                fn="repro.experiments.ablations:alpha_cell",
                config=cfg,
            )
        )
    return specs


def alpha_assemble(
    config: ExperimentConfig,
    results: Dict,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> FigureResult:
    specs = alpha_cells(config, alphas)
    values, failures = cell_values("alpha-sweep", specs, results)
    rows = [values.get(spec.key) for spec in specs]
    return FigureResult(
        figure="AblationAlpha",
        title="alpha sweep: locality gain vs compression sacrificed",
        x_label="alpha*100",
        x=[int(round(a * 100)) for a in alphas],
        series={
            "ingest MB/s": [r["ingest_mbps"] if r else _NAN for r in rows],
            "kept redund %": [r["kept_pct"] if r else _NAN for r in rows],
            "compression x": [r["compression"] if r else _NAN for r in rows],
            "restore MB/s": [r["restore_mbps"] if r else _NAN for r in rows],
        },
        notes={
            "reading": "alpha=0 is exact DDFS; larger alpha rewrites more "
            "(faster ingest+restore, lower compression)"
        },
        failures=failures,
    )


def alpha_sweep(
    config: Optional[ExperimentConfig] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    *,
    jobs: int = 1,
) -> FigureResult:
    """DeFrag across α values on the 20-generation author workload."""
    config = config if config is not None else ExperimentConfig.default()
    results = run_grid(alpha_cells(config, alphas), jobs=jobs)
    return alpha_assemble(config, results, alphas)


# ----------------------------------------------------------------------
# segmenting strategy
# ----------------------------------------------------------------------

_SEGMENTER_KINDS = ("content-defined", "fixed-1MiB")


def segment_cell(config: ExperimentConfig, kind: str) -> Dict:
    """Grid cell: DeFrag under one segmenting strategy."""
    segmenter = paper_segmenter() if kind == "content-defined" else FixedSegmenter()
    res = create_resources(config)
    engine = create_engine("DeFrag", config, res)
    reports = run_workload(engine, author_jobs(config), segmenter)
    return {
        "ingest_mbps": mean_throughput(reports) / 1e6,
        "kept_pct": 100.0 * (1.0 - cumulative_efficiency(reports)[-1]),
        "compression": storage_summary(reports).compression_ratio,
    }


def segment_cells(config: ExperimentConfig) -> List[CellSpec]:
    """One DeFrag cell per segmenting strategy."""
    return [
        CellSpec(
            key=("segmenter", kind, config_fingerprint(config)),
            fn="repro.experiments.ablations:segment_cell",
            config=config,
            kwargs={"kind": kind},
        )
        for kind in _SEGMENTER_KINDS
    ]


def segment_assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    specs = segment_cells(config)
    values, failures = cell_values("segment-ablation", specs, results)
    series = {}
    for spec in specs:
        payload = values.get(spec.key)
        series[spec.kwargs["kind"]] = (
            [payload["ingest_mbps"], payload["kept_pct"], payload["compression"]]
            if payload
            else [_NAN, _NAN, _NAN]
        )
    return FigureResult(
        figure="AblationSegmenter",
        title="segmenting strategy under DeFrag",
        x_label="metric-idx",
        x=[0, 1, 2],
        series=series,
        notes={
            "rows": "0: ingest MB/s, 1: kept redundancy %, 2: compression x",
            "reading": "content-defined segments keep SPL groups aligned "
            "across generations; fixed segments drift with inserts",
        },
        failures=failures,
    )


# ----------------------------------------------------------------------
# prefetch-cache capacity
# ----------------------------------------------------------------------


def cache_cell(config: ExperimentConfig) -> Dict:
    """Grid cell: DDFS decay at one prefetch-cache capacity (baked into
    ``config.cache_containers``)."""
    res = create_resources(config)
    engine = create_engine("DDFS-Like", config, res)
    reports = run_workload(engine, author_jobs(config), paper_segmenter())
    t = [r.throughput / 1e6 for r in reports]
    return {
        "first_mbps": t[0],
        "last_mbps": t[-1],
        "decay": t[0] / t[-1] if t[-1] else float("inf"),
    }


def cache_cells(
    config: ExperimentConfig, cache_sizes: Sequence[int] = DEFAULT_CACHE_SIZES
) -> List[CellSpec]:
    """One DDFS cell per cache capacity."""
    specs = []
    for cc in cache_sizes:
        cfg = config.with_(cache_containers=int(cc))
        specs.append(
            CellSpec(
                key=("cache", f"c{int(cc)}", config_fingerprint(cfg)),
                fn="repro.experiments.ablations:cache_cell",
                config=cfg,
            )
        )
    return specs


def cache_assemble(
    config: ExperimentConfig,
    results: Dict,
    cache_sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
) -> FigureResult:
    specs = cache_cells(config, cache_sizes)
    values, failures = cell_values("cache-ablation", specs, results)
    rows = [values.get(spec.key) for spec in specs]
    return FigureResult(
        figure="AblationCache",
        title="DDFS prefetch-cache capacity vs throughput decay",
        x_label="cache (containers)",
        x=[int(c) for c in cache_sizes],
        series={
            "gen1 MB/s": [r["first_mbps"] if r else _NAN for r in rows],
            "genN MB/s": [r["last_mbps"] if r else _NAN for r in rows],
            "decay x": [r["decay"] if r else _NAN for r in rows],
        },
        notes={
            "reading": "more cache postpones but does not remove the decay "
            "— the layout itself is what de-linearizes"
        },
        failures=failures,
    )


def cache_ablation(
    config: Optional[ExperimentConfig] = None,
    cache_sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
    *,
    jobs: int = 1,
) -> FigureResult:
    """DDFS throughput decay vs prefetch-cache capacity."""
    config = config if config is not None else ExperimentConfig.default()
    results = run_grid(cache_cells(config, cache_sizes), jobs=jobs)
    return cache_assemble(config, results, cache_sizes)
