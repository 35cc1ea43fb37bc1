"""Static HTML perf dashboard: trajectories, baselines, telemetry.

``repro dash`` renders one self-contained HTML file — inline CSS and
inline SVG only, no scripts, no external fetches — from three kinds of
artifact found on disk:

* metrics snapshots saved by ``repro trace`` (``.repro_stats.json`` or
  any ``--stats PATH``), whose time-series sections become sparkline
  grids (the paper's trajectories over *simulated* time);
* the committed ``BENCH_*.json`` baselines, which become stat tiles
  (the numbers ``repro bench`` gates against); and
* ``BENCH_history.jsonl``, the append-only perf trajectory grown by
  ``benchmarks/record.py --append-history``, plotted as one small
  line chart per headline metric over *wall-clock recording order*.

The stylesheet carries both light and dark values via CSS custom
properties: the ``prefers-color-scheme`` media query switches on the OS
setting, and a ``data-theme`` attribute on ``<html>`` can force either.
Every number also appears in a plain table, so nothing is gated on
reading a chart. Rendering only ever *reads* artifacts — running the
dashboard can not perturb any result (the twin-run contract, trivially).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench import (
    GATES,
    HISTORY_FILENAME,
    HISTORY_METRICS,
    Headline,
    load_history,
    load_record,
)

__all__ = ["build_dashboard", "render_dashboard"]

# palette roles (light, dark) — see the data-viz reference palette
_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --series-1: #2a78d6; --series-dim: #86b6ef;
  --good: #006300; --bad: #d03b3b;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root:not([data-theme="light"]) {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --series-1: #3987e5; --series-dim: #1c5cab;
    --good: #0ca30c; --bad: #e66767;
    --ring: rgba(255,255,255,0.10);
  }
}
:root[data-theme="dark"] {
  --surface-1: #1a1a19; --page: #0d0d0d;
  --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --series-1: #3987e5; --series-dim: #1c5cab;
  --good: #0ca30c; --bad: #e66767;
  --ring: rgba(255,255,255,0.10);
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 10px; }
h3 { font-size: 13px; font-weight: 600; margin: 16px 0 8px; color: var(--ink-2); }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.chips { margin: 8px 0 0; }
.chip {
  display: inline-block; padding: 1px 8px; margin: 0 6px 6px 0;
  border: 1px solid var(--ring); border-radius: 10px;
  color: var(--ink-2); font-size: 12px; background: var(--surface-1);
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 16px; min-width: 180px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; margin: 2px 0; }
.tile .delta { font-size: 12px; }
.delta.good { color: var(--good); }
.delta.bad { color: var(--bad); }
.delta.flat { color: var(--ink-muted); }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 12px;
}
.card .name { color: var(--ink-2); font-size: 12px; margin-bottom: 2px; }
.card .last { color: var(--ink-1); font-weight: 600; font-size: 13px; }
svg text { fill: var(--ink-muted); font-size: 10px; }
table { border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--ring); border-radius: 8px; }
th, td { padding: 4px 10px; text-align: right;
  font-variant-numeric: tabular-nums; border-top: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; border-top: none; }
td:first-child, th:first-child { text-align: left; }
footer { margin-top: 28px; color: var(--ink-muted); font-size: 12px; }
"""


def build_dashboard(
    out: Union[str, Path],
    stats_paths: Sequence[Union[str, Path]] = (),
    root: Union[str, Path] = ".",
) -> Path:
    """Assemble the dashboard from artifacts under ``root`` and write it.

    Args:
        out: output HTML path.
        stats_paths: ``repro trace`` snapshot files to include (missing
            ones are skipped with a note).
        root: directory holding the committed ``BENCH_*.json`` baselines
            and ``BENCH_history.jsonl``.
    """
    rootp = Path(root)
    runs: List[Dict] = []
    for p in stats_paths:
        p = Path(p)
        if not p.is_file():
            continue
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError:
            continue
        runs.append(
            {
                "path": str(p),
                "manifest": data.get("manifest", {}) if "metrics" in data else {},
                "metrics": data.get("metrics", data),
            }
        )
    bench = {}
    for name, filename, _ in _tiles():
        try:
            record = load_record(rootp / filename)
        except json.JSONDecodeError:
            continue
        if record is not None:
            bench[name] = record
    history = load_history(rootp / HISTORY_FILENAME)
    text = render_dashboard(runs=runs, bench=bench, history=history)
    outp = Path(out)
    outp.write_text(text)
    return outp


def render_dashboard(
    runs: Sequence[Dict] = (),
    bench: Optional[Dict] = None,
    history: Sequence[Dict] = (),
) -> str:
    """Render the HTML document from already-loaded artifacts."""
    bench = bench or {}
    body: List[str] = [
        "<h1>defrag-repro performance dashboard</h1>",
        '<p class="sub">Simulated-time telemetry from <code>repro trace</code>, '
        "wall-clock baselines from the committed <code>BENCH_*.json</code>, "
        "and the recorded perf trajectory.</p>",
    ]
    body += _tiles_section(bench, list(history))
    body += _engines_section()
    body += _history_section(list(history))
    for run in runs:
        body += _run_section(run)
    if not runs:
        body.append(
            '<p class="sub">No trace snapshots given — run '
            "<code>repro trace &lt;fig&gt;</code> and re-render to see "
            "simulated-time trajectories.</p>"
        )
    body.append(
        "<footer>Static artifact — no scripts, no external resources. "
        "Regenerate with <code>python -m repro dash</code>.</footer>"
    )
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        "<title>defrag-repro dashboard</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )


# -- sections ---------------------------------------------------------------


def _tiles() -> List[Tuple[str, str, Headline]]:
    """``(gate name, committed file, headline)`` of every bench gate
    whose committed headline is a stat tile."""
    return [(g.name, g.filename, g.headline) for g in GATES.values() if g.tile and g.headline]


def _tiles_section(bench: Dict, history: List[Dict]) -> List[str]:
    """Stat tiles: the committed headline numbers, each with a delta and
    a trend sparkline against the recorded history."""
    tiles: List[str] = []
    for name, _, (field, hist_key, label, unit, lower_is_better) in _tiles():
        value = bench.get(name, {}).get(name, {}).get(field)
        if value is None:
            continue
        series = [r[hist_key] for r in history if r.get(hist_key) is not None]
        delta_html = ""
        prior = [v for v in series if v != value]
        if prior:
            rel = (value - prior[-1]) / prior[-1]
            if abs(rel) <= 0.02:
                cls, arrow = "flat", "&#8594;"
            elif (rel < 0) == lower_is_better:
                cls, arrow = "good", "&#8595;" if rel < 0 else "&#8593;"
            else:
                cls, arrow = "bad", "&#8593;" if rel > 0 else "&#8595;"
            delta_html = (
                f'<div class="delta {cls}">{arrow} {rel:+.1%} '
                "vs last recorded</div>"
            )
        trend = _sparkline(series[-12:], w=120, h=28) if len(series) >= 2 else ""
        tiles.append(
            '<div class="tile">'
            f'<div class="label">{html.escape(label)} (committed)</div>'
            f'<div class="value">{value:g}<span style="font-size:13px;'
            f'color:var(--ink-2)"> {unit}</span></div>'
            f"{delta_html}{trend}</div>"
        )
    if not tiles:
        return []
    return ["<h2>Committed baselines</h2>", '<div class="tiles">'] + tiles + ["</div>"]


def _engines_section() -> List[str]:
    """Engine registry table: every registered placement policy with its
    lifecycle capabilities, read live from ``repro.api.engine_infos``."""
    from repro.api import engine_infos

    rows: List[str] = []
    for info in engine_infos():
        maint = "yes" if info.supports_maintenance else "&mdash;"
        rewrites = "yes" if info.rewrites_old_containers else "&mdash;"
        rows.append(
            "<tr>"
            f"<td><code>{html.escape(info.name)}</code></td>"
            f"<td>{maint}</td><td>{rewrites}</td>"
            f"<td>{html.escape(info.doc or '')}</td></tr>"
        )
    return [
        "<h2>Engine registry</h2>",
        "<table><thead><tr><th>engine</th><th>maintenance</th>"
        "<th>rewrites old containers</th><th>policy</th></tr></thead>",
        "<tbody>",
        *rows,
        "</tbody></table>",
    ]


def _history_section(history: List[Dict]) -> List[str]:
    """The perf trajectory: one small line chart per headline metric,
    x = recording order, plus the full table."""
    if not history:
        return []
    out: List[str] = [
        "<h2>Perf trajectory (BENCH_history.jsonl)</h2>",
        '<div class="cards">',
    ]
    for key, (label, unit, _lower) in HISTORY_METRICS.items():
        pts = [
            (i, r[key], r.get("commit") or r.get("recorded_utc") or f"run {i}")
            for i, r in enumerate(history)
            if r.get(key) is not None
        ]
        if not pts:
            continue
        out.append(
            '<div class="card">'
            f'<div class="name">{html.escape(label)} ({unit})</div>'
            + _line_chart([v for _, v, _ in pts], [t for _, _, t in pts])
            + f'<div class="last">{pts[-1][1]:g} {unit} @ '
            f"{html.escape(str(pts[-1][2]))}</div></div>"
        )
    out.append("</div>")
    # table view: every recorded line, no chart required to read it
    cols = [k for k in HISTORY_METRICS if any(r.get(k) is not None for r in history)]
    out += ["<h3>Recorded runs</h3>", "<table>", "<tr><th>run</th>"]
    out += [f"<th>{html.escape(HISTORY_METRICS[c][0])}</th>" for c in cols]
    out.append("</tr>")
    for i, r in enumerate(history):
        who = r.get("commit") or r.get("recorded_utc") or str(i)
        cells = "".join(
            f"<td>{r[c]:g}</td>" if r.get(c) is not None else "<td>-</td>"
            for c in cols
        )
        out.append(f"<tr><td>{html.escape(str(who))}</td>{cells}</tr>")
    out.append("</table>")
    return out


def _run_section(run: Dict) -> List[str]:
    """One traced run: provenance chips plus a sparkline per time series."""
    manifest = run.get("manifest") or {}
    metrics = run.get("metrics") or {}
    series = metrics.get("timeseries", {})
    title = manifest.get("target") or Path(run.get("path", "run")).name
    out: List[str] = [f"<h2>Run: {html.escape(str(title))}</h2>"]
    if manifest:
        chips = "".join(
            f'<span class="chip">{html.escape(str(k))}: '
            f"{html.escape(str(v))}</span>"
            for k, v in manifest.items()
        )
        out.append(f'<div class="chips">{chips}</div>')
    if not series:
        out.append(
            '<p class="sub">No time-series samples in this snapshot.</p>'
        )
        return out
    out.append('<div class="cards">')
    for name in sorted(series):
        ts = series[name]
        samples = ts.get("samples", [])
        if len(samples) < 2:
            continue
        values = [v for _, v in samples]
        out.append(
            '<div class="card">'
            f'<div class="name">{html.escape(name)}</div>'
            + _sparkline(values, w=180, h=36)
            + f'<div class="last">last {values[-1]:g} &middot; '
            f"min {min(values):g} &middot; max {max(values):g}</div></div>"
        )
    out.append("</div>")
    return out


# -- inline SVG marks -------------------------------------------------------


def _scale(values: Sequence[float], w: int, h: int, pad: int) -> List[Tuple[float, float]]:
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = (w - 2 * pad) / max(n - 1, 1)
    return [
        (pad + i * step, h - pad - (v - lo) / span * (h - 2 * pad))
        for i, v in enumerate(values)
    ]


def _sparkline(values: Sequence[float], w: int = 120, h: int = 28) -> str:
    """A 2px de-emphasized line with the current value accented — the
    stat-tile trend mark. Values only; axes live in the table view."""
    if len(values) < 2:
        return ""
    pts = _scale(values, w, h, pad=4)
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
    cx, cy = pts[-1]
    return (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}" role="img" '
        f'aria-label="trend of {len(values)} values">'
        f'<polyline points="{path}" fill="none" stroke="var(--series-dim)" '
        'stroke-width="2" stroke-linecap="round" stroke-linejoin="round"/>'
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="var(--series-1)" '
        'stroke="var(--surface-1)" stroke-width="2"/>'
        "</svg>"
    )


def _line_chart(
    values: Sequence[float], labels: Sequence[str], w: int = 260, h: int = 96
) -> str:
    """A single-series line chart (one hue, no legend): hairline grid,
    2px line, >=8px end marker with a surface ring, min/max tick text.
    Each point carries a <title> so hovering reveals run + value."""
    pad = 10
    if len(values) == 1:
        values = list(values) * 2
        labels = list(labels) * 2
    pts = _scale(values, w, h, pad)
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
    lo, hi = min(values), max(values)
    grid_y = (pad, h / 2, h - pad)
    grid = "".join(
        f'<line x1="{pad}" y1="{y:.1f}" x2="{w - pad}" y2="{y:.1f}" '
        'stroke="var(--grid)" stroke-width="1"/>'
        for y in grid_y
    )
    dots = "".join(
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="var(--series-1)" '
        'stroke="var(--surface-1)" stroke-width="2">'
        f"<title>{html.escape(str(label))}: {value:g}</title></circle>"
        for (x, y), value, label in zip(pts, values, labels)
    )
    return (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}" role="img" '
        f'aria-label="trajectory of {len(values)} recorded runs">'
        f"{grid}"
        f'<polyline points="{path}" fill="none" stroke="var(--series-1)" '
        'stroke-width="2" stroke-linecap="round" stroke-linejoin="round"/>'
        f"{dots}"
        f'<text x="{w - pad}" y="{pad - 2}" text-anchor="end">{hi:g}</text>'
        f'<text x="{w - pad}" y="{h - 1}" text-anchor="end">{lo:g}</text>'
        "</svg>"
    )
