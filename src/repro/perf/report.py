"""Self-contained HTML perf dashboard + terminal summary.

``render_html`` turns a perf history into **one** HTML file with inline
SVG — no scripts, no external assets, nothing fetched — so the file can
be archived as a CI artifact and opened years later.  The charts:

* per-workload **dynamic 32-bit extension** trend, one line per paper
  variant (the headline quantity of Tables 1/2 / Figures 11-12);
* **phase breakdown** stacked bars for the default variant: compile
  buckets (sign-ext, chains, others) plus the execute phase per run;
* **cache hit-rate** trend from the ``driver.cache.*`` counters;
* **engine speedup** trend (reference / closure execute time) where a
  run measured both engines.

Styling follows the repo's chart conventions: categorical hues are
assigned to entities in a *fixed* order and never re-used for a
different series; light and dark palettes are both declared (the file
respects ``prefers-color-scheme``); every chart carries a legend and a
collapsible data table, so nothing is readable by color alone; marks
carry native ``<title>`` tooltips.
"""

from __future__ import annotations

import html
import time
from typing import Any, Callable, Iterable, Sequence

from .record import RunRecord

# Categorical palette (validated light/dark pairs, fixed slot order).
_SERIES_LIGHT = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948"]
_SERIES_DARK = ["#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767"]

#: variants plotted in the trend charts, in slot order (identity is
#: fixed: a variant keeps its hue whether or not others are present)
VARIANT_SLOTS = [
    "baseline",
    "basic ud/du",
    "insert",
    "order",
    "array",
    "new algorithm (all)",
]

#: phase stack order (slot order) for the breakdown chart
PHASE_SLOTS = ["sign_ext", "chains", "others", "execute"]

DEFAULT_VARIANT = "new algorithm (all)"

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
""" + "".join(
    f"  --series-{i + 1}: {hex_};\n"
    for i, hex_ in enumerate(_SERIES_LIGHT)
) + """}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
""" + "".join(
    f"    --series-{i + 1}: {hex_};\n"
    for i, hex_ in enumerate(_SERIES_DARK)
) + """  }
}
body { background: var(--page); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 2rem auto; max-width: 1080px; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 1rem 0; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px; }
.tile .v { font-size: 1.5rem; }
.tile .k { color: var(--text-secondary); font-size: 0.8rem; }
figure { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; margin: 1rem 0; padding: 12px 16px; }
figcaption { color: var(--text-secondary); margin-bottom: 6px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0;
  color: var(--text-secondary); font-size: 0.8rem; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
details { margin-top: 8px; color: var(--text-secondary);
  font-size: 0.8rem; }
table { border-collapse: collapse; margin-top: 6px; }
td, th { border-bottom: 1px solid var(--grid); padding: 2px 10px 2px 0;
  text-align: right; font-variant-numeric: tabular-nums; }
th { color: var(--muted); font-weight: 500; }
td:first-child, th:first-child { text-align: left; }
svg text { fill: var(--muted); font-size: 10px;
  font-family: system-ui, sans-serif; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
footer { color: var(--muted); font-size: 0.8rem; margin-top: 2rem; }
"""


def _esc(text: Any) -> str:
    return html.escape(str(text))


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


# -- chart geometry -----------------------------------------------------------

_W, _H = 640, 220
_ML, _MR, _MT, _MB = 56, 16, 12, 28


def _scale(lo: float, hi: float, px_lo: float,
           px_hi: float) -> Callable[[float], float]:
    span = (hi - lo) or 1.0
    return lambda v: px_lo + (v - lo) / span * (px_hi - px_lo)


def _grid_and_axes(y_lo: float, y_hi: float,
                   y_fmt: Callable[[float], str]) -> list[str]:
    parts = []
    for i in range(5):
        value = y_lo + (y_hi - y_lo) * i / 4
        y = _scale(y_lo, y_hi, _H - _MB, _MT)(value)
        cls = "axis" if i == 0 else "grid"
        parts.append(f'<line class="{cls}" x1="{_ML}" y1="{y:.1f}" '
                     f'x2="{_W - _MR}" y2="{y:.1f}"/>')
        parts.append(f'<text x="{_ML - 6}" y="{y + 3:.1f}" '
                     f'text-anchor="end">{_esc(y_fmt(value))}</text>')
    return parts


def _x_tick_labels(labels: Sequence[str],
                   x_of: Callable[[float], float]) -> list[str]:
    parts = []
    step = max(1, len(labels) // 8)
    for i in range(0, len(labels), step):
        x = x_of(i)
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 14}" '
                     f'text-anchor="middle">{_esc(labels[i])}</text>')
    return parts


def _line_chart(
    series: list[tuple[str, int, list[tuple[int, float]]]],
    x_labels: Sequence[str],
    y_fmt: Callable[[float], str] = _fmt,
) -> str:
    """Polyline chart; ``series`` is (name, slot, [(x index, y)])."""
    values = [y for _, _, pts in series for _, y in pts]
    if not values:
        return ""
    y_lo = min(0.0, min(values))
    y_hi = max(values) or 1.0
    y_hi += (y_hi - y_lo) * 0.05
    x_of = _scale(0, max(1, len(x_labels) - 1), _ML, _W - _MR)
    y_of = _scale(y_lo, y_hi, _H - _MB, _MT)

    parts = [f'<svg viewBox="0 0 {_W} {_H}" role="img" '
             f'width="100%" xmlns="http://www.w3.org/2000/svg">']
    parts.extend(_grid_and_axes(y_lo, y_hi, y_fmt))
    parts.extend(_x_tick_labels(x_labels, x_of))
    for name, slot, points in series:
        color = f"var(--series-{slot})"
        coords = " ".join(f"{x_of(x):.1f},{y_of(y):.1f}"
                          for x, y in points)
        if len(points) > 1:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="2" stroke-linejoin="round" '
                         f'points="{coords}"/>')
        for x, y in points:
            parts.append(
                f'<circle cx="{x_of(x):.1f}" cy="{y_of(y):.1f}" r="3" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{_esc(name)} · '
                f'{_esc(x_labels[x] if x < len(x_labels) else x)}: '
                f'{_esc(y_fmt(y))}</title></circle>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _stacked_bars(
    stacks: list[tuple[str, list[tuple[str, int, float]]]],
    y_fmt: Callable[[float], str] = _fmt,
) -> str:
    """``stacks`` is (x label, [(segment name, slot, value)])."""
    totals = [sum(v for _, _, v in segments) for _, segments in stacks]
    if not any(totals):
        return ""
    y_hi = max(totals) * 1.05
    y_of = _scale(0.0, y_hi, _H - _MB, _MT)
    n = len(stacks)
    band = (_W - _ML - _MR) / max(1, n)
    bar_w = min(40.0, band * 0.7)

    parts = [f'<svg viewBox="0 0 {_W} {_H}" role="img" '
             f'width="100%" xmlns="http://www.w3.org/2000/svg">']
    parts.extend(_grid_and_axes(0.0, y_hi, y_fmt))
    for i, (label, segments) in enumerate(stacks):
        x = _ML + band * i + (band - bar_w) / 2
        base = 0.0
        for name, slot, value in segments:
            if value <= 0:
                continue
            y0, y1 = y_of(base), y_of(base + value)
            # 2px surface gap between stacked segments
            height = max(0.0, (y0 - y1) - 2)
            parts.append(
                f'<rect x="{x:.1f}" y="{y1 + 1:.1f}" '
                f'width="{bar_w:.1f}" height="{height:.1f}" rx="2" '
                f'fill="var(--series-{slot})"><title>{_esc(label)} · '
                f'{_esc(name)}: {_esc(y_fmt(value))}</title></rect>'
            )
            base += value
        parts.append(f'<text x="{x + bar_w / 2:.1f}" '
                     f'y="{_H - _MB + 14}" text-anchor="middle">'
                     f'{_esc(label)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _legend(entries: list[tuple[str, int]]) -> str:
    if len(entries) < 2:
        return ""
    spans = "".join(
        f'<span><span class="swatch" '
        f'style="background:var(--series-{slot})"></span>'
        f'{_esc(name)}</span>'
        for name, slot in entries
    )
    return f'<div class="legend">{spans}</div>'


def _data_table(header: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in header)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (f"<details><summary>data table</summary><table>"
            f"<tr>{head}</tr>{body}</table></details>")


def _figure(caption: str, chart: str, legend: str = "",
            table: str = "") -> str:
    if not chart:
        return ""
    return (f"<figure><figcaption>{_esc(caption)}</figcaption>"
            f"{legend}{chart}{table}</figure>")


# -- history shaping ----------------------------------------------------------

def _runs_in_order(records: list[RunRecord]) -> list[str]:
    """Run ids ordered by first record creation time."""
    first_seen: dict[str, float] = {}
    for record in records:
        run_id = record.run_id or "unbatched"
        if run_id not in first_seen:
            first_seen[run_id] = record.created
    return sorted(first_seen, key=lambda run: first_seen[run])


def _run_label(records: list[RunRecord]) -> str:
    for record in records:
        if record.git_rev and record.git_rev != "unknown":
            return record.git_rev[:7]
    created = min((r.created for r in records if r.created), default=0)
    if created:
        try:
            return time.strftime("%m-%d %H:%M", time.localtime(created))
        except (OverflowError, OSError):  # past the platform's time_t
            pass
    return "run"


def _best_phase(records: list[RunRecord], phase: str) -> float | None:
    values = [r.phases[phase] for r in records if phase in r.phases]
    return min(values) if values else None


class _History:
    """Records bucketed by run, then by cell key."""

    def __init__(self, records: list[RunRecord]) -> None:
        self.records = records
        self.run_ids = _runs_in_order(records)
        self.by_run: dict[str, list[RunRecord]] = {}
        for record in records:
            self.by_run.setdefault(record.run_id or "unbatched",
                                   []).append(record)
        self.run_labels = [_run_label(self.by_run[run])
                           for run in self.run_ids]

    def workloads(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.workload)
        return list(seen)

    def cell(self, run_id: str, *, workload: str | None = None,
             variant: str | None = None,
             engine: str | None = None) -> list[RunRecord]:
        return [
            r for r in self.by_run.get(run_id, ())
            if (workload is None or r.workload == workload)
            and (variant is None or r.variant == variant)
            and (engine is None or r.engine == engine)
        ]


# -- sections -----------------------------------------------------------------

def _tiles(history: _History) -> str:
    hosts = {r.host_id for r in history.records if r.host_id}
    revs = {r.git_rev for r in history.records
            if r.git_rev and r.git_rev != "unknown"}
    tiles = [
        ("records", len(history.records)),
        ("runs", len(history.run_ids)),
        ("workloads", len(history.workloads())),
        ("hosts", len(hosts) or 1),
        ("revisions", len(revs) or 1),
    ]
    spans = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>'
        for k, v in tiles
    )
    return f'<div class="tiles">{spans}</div>'


def _extends_section(history: _History, workload: str) -> str:
    series = []
    rows = []
    for slot, variant in enumerate(VARIANT_SLOTS, start=1):
        points = []
        for x, run_id in enumerate(history.run_ids):
            cells = history.cell(run_id, workload=workload,
                                 variant=variant)
            if cells:
                value = min(c.measures.get("dyn_extend32", 0)
                            for c in cells)
                points.append((x, float(value)))
                rows.append((history.run_labels[x], variant, int(value)))
        if points:
            series.append((variant, slot, points))
    chart = _line_chart(series, history.run_labels)
    legend = _legend([(name, slot) for name, slot, _ in series])
    table = _data_table(("run", "variant", "dyn extend32"), rows)
    return _figure(f"{workload}: dynamic 32-bit sign extensions per "
                   f"variant", chart, legend, table)


def _phase_section(history: _History, workload: str) -> str:
    stacks = []
    rows = []
    for x, run_id in enumerate(history.run_ids):
        cells = history.cell(run_id, workload=workload,
                             variant=DEFAULT_VARIANT)
        if not cells:
            continue
        segments = []
        for slot, phase in enumerate(PHASE_SLOTS, start=1):
            value = _best_phase(cells, phase)
            if value is not None:
                segments.append((phase, slot, value))
                rows.append((history.run_labels[x], phase,
                             f"{value * 1000:.2f} ms"))
        if segments:
            stacks.append((history.run_labels[x], segments))
    chart = _stacked_bars(stacks, y_fmt=lambda v: f"{v * 1000:.1f}ms")
    legend = _legend([(p, s + 1) for s, p in enumerate(PHASE_SLOTS)])
    table = _data_table(("run", "phase", "seconds"), rows)
    return _figure(f"{workload}: phase wall time, variant "
                   f"“{DEFAULT_VARIANT}” (min of repeats)",
                   chart, legend, table)


def _hit_rate(records: list[RunRecord]) -> float | None:
    hits = misses = 0
    for record in records:
        for name, value in record.counters.items():
            if name.startswith("driver.cache.hits"):
                hits += value
            elif name.startswith("driver.cache.misses"):
                misses += value
    if hits + misses == 0:
        return None
    return 100.0 * hits / (hits + misses)


def _cache_section(history: _History) -> str:
    points = []
    rows = []
    for x, run_id in enumerate(history.run_ids):
        rate = _hit_rate(history.by_run[run_id])
        if rate is not None:
            points.append((x, rate))
            rows.append((history.run_labels[x], f"{rate:.1f}%"))
    chart = _line_chart([("cache hit rate", 1, points)],
                        history.run_labels,
                        y_fmt=lambda v: f"{v:.0f}%")
    table = _data_table(("run", "hit rate"), rows)
    return _figure("compile-cache hit rate (driver.cache.* counters)",
                   chart, "", table)


def _speedup_section(history: _History) -> str:
    series = []
    rows = []
    for slot, workload in enumerate(history.workloads()[:3], 1):
        points = []
        for x, run_id in enumerate(history.run_ids):
            timed = _best_phase(
                history.cell(run_id, workload=workload,
                             engine="closure"), "execute")
            reference = _best_phase(
                history.cell(run_id, workload=workload,
                             engine="reference"), "execute")
            if timed and reference:
                speedup = reference / timed
                points.append((x, speedup))
                rows.append((history.run_labels[x], workload,
                             f"{speedup:.2f}x"))
        if points:
            series.append((workload, slot, points))
    chart = _line_chart(series, history.run_labels,
                        y_fmt=lambda v: f"{v:.1f}x")
    legend = _legend([(name, slot) for name, slot, _ in series])
    table = _data_table(("run", "workload", "speedup"), rows)
    return _figure("closure-engine speedup over reference "
                   "(execute phase, min of repeats)", chart, legend,
                   table)


def _serving_sections(history: _History) -> list[str]:
    """One latency-percentile figure per loadtest cell (closed/open).

    Serving records (``engine == "serve"``) carry the latency
    distribution of one ``repro loadtest`` campaign in their measures;
    the chart tracks p50/p95/p99 across campaigns, the table adds
    throughput and the shed/coalesced disposition counts.
    """
    quantiles = (("p50", "p50_ms"), ("p95", "p95_ms"), ("p99", "p99_ms"))
    sections = []
    for workload in history.workloads():
        series = []
        for slot, (label, measure) in enumerate(quantiles, start=1):
            points = []
            for x, run_id in enumerate(history.run_ids):
                values = [
                    c.measures[measure]
                    for c in history.cell(run_id, workload=workload)
                    if measure in c.measures
                ]
                if values:
                    points.append((x, min(values)))
            if points:
                series.append((label, slot, points))
        rows = []
        for x, run_id in enumerate(history.run_ids):
            for cell in history.cell(run_id, workload=workload):
                measures = cell.measures
                rows.append((
                    history.run_labels[x],
                    f"{measures.get('p50_ms', 0):.1f}",
                    f"{measures.get('p95_ms', 0):.1f}",
                    f"{measures.get('p99_ms', 0):.1f}",
                    f"{measures.get('throughput_rps', 0):.1f}",
                    int(measures.get("shed", 0)),
                    int(measures.get("coalesced", 0)),
                ))
        chart = _line_chart(series, history.run_labels,
                            y_fmt=lambda v: f"{v:.0f}ms")
        legend = _legend([(name, slot) for name, slot, _ in series])
        table = _data_table(
            ("run", "p50 ms", "p95 ms", "p99 ms", "req/s", "shed",
             "coalesced"), rows)
        sections.append(_figure(
            f"{workload}: served request latency percentiles "
            f"(repro loadtest)", chart, legend, table))
    return sections


# -- entry points -------------------------------------------------------------

def render_html(records: list[RunRecord],
                title: str = "repro perf dashboard",
                profiles: list | None = None) -> str:
    """The whole dashboard as one self-contained HTML document.

    ``profiles`` optionally appends one hot-block heatmap figure per
    :class:`~repro.profile.ExecutionProfile` artifact (the
    ``repro perf report --profiles DIR`` view).
    """
    # Serving-latency rows measure the front door, not the compiler;
    # they get their own section instead of polluting the trend charts.
    serving = [r for r in records if r.engine == "serve"]
    history = _History([r for r in records if r.engine != "serve"])
    sections = [_tiles(_History(records)), _cache_section(history),
                _speedup_section(history)]
    for workload in history.workloads():
        sections.append(_extends_section(history, workload))
        sections.append(_phase_section(history, workload))
    if serving:
        sections.append("<h2>serving latency (repro serve)</h2>")
        sections.extend(_serving_sections(_History(serving)))
    extra_css = ""
    if profiles:
        from ..profile.heatmap import HEAT_CSS, heatmap_section

        extra_css = HEAT_CSS
        sections.append("<h2>hot blocks (profile artifacts)</h2>")
        sections.extend(heatmap_section(p) for p in profiles)
    generated = time.strftime("%Y-%m-%d %H:%M:%S")
    body = "".join(s for s in sections if s)
    if not records and not profiles:
        body = "<p>No perf records yet — run <code>repro perf record"\
               "</code> first.</p>"
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        "<meta name=\"viewport\" content=\"width=device-width, "
        "initial-scale=1\">"
        f"<title>{_esc(title)}</title><style>{_CSS}{extra_css}</style>"
        "</head>"
        f"<body><h1>{_esc(title)}</h1>{body}"
        f"<footer>generated {generated} · {len(records)} records · "
        "all assets inline</footer></body></html>\n"
    )


def format_history_summary(records: list[RunRecord]) -> str:
    """Terminal table: the latest run's cells and their best times."""
    if not records:
        return "perf history is empty"
    history = _History(records)
    latest = history.run_ids[-1]
    cells: dict[tuple, list[RunRecord]] = {}
    for record in history.by_run[latest]:
        cells.setdefault(record.key(), []).append(record)
    lines = [
        f"latest run {history.run_labels[-1]} "
        f"({len(history.by_run[latest])} records, "
        f"{len(history.run_ids)} runs in history)",
        f"{'cell':<58s}{'execute':>10s}{'extends32':>11s}"
        f"{'repeats':>9s}",
    ]
    for key in sorted(cells):
        group = cells[key]
        execute = _best_phase(group, "execute")
        extends = min((r.measures.get("dyn_extend32") for r in group
                       if "dyn_extend32" in r.measures),
                      default=None)
        lines.append(
            f"{key.label():<58s}"
            f"{(f'{execute * 1000:.2f}ms' if execute is not None else '-'):>10s}"
            f"{(str(int(extends)) if extends is not None else '-'):>11s}"
            f"{len(group):>9d}"
        )
    return "\n".join(lines)
