"""Static self-contained HTML run reports.

``repro obs report`` renders one HTML file -- no external scripts,
stylesheets or fonts -- from the observability artefacts a run leaves
behind:

* **Phase waterfall** -- per-algorithm wall-clock split across the
  restructure / compute / writeout phases, from RunRecord spans;
* **Page-access heatmap** -- page bins x time, per traced algorithm,
  from a Chrome trace file written by ``--trace-out``;
* **Pool residency timeline** -- distinct resident (and pinned) pages
  over each traced run;
* **BENCH trajectory** -- per-cell ``total_io`` bars from the run
  records (or a ``BENCH_summary.json``).

The styling follows the repository's data-viz conventions: colors are
CSS custom properties with a selected dark mode (``prefers-color-scheme``
plus a ``data-theme`` override), identity is carried by labels rather
than color alone, every panel ships a table view, and text always wears
the text tokens, never a series color.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Sequence

from repro.obs.heatmap import page_heatmap, residency_timeline
from repro.obs.record import NUMBER, RunRecord, check_type
from repro.obs.tracing import TraceEventRecord

__all__ = ["build_report", "render_report"]

# Validated reference palette (see docs/OBSERVABILITY.md#reports).
_CSS = """\
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --heat-0: #cde2fb; --heat-1: #b7d3f6; --heat-2: #9ec5f4; --heat-3: #86b6ef;
  --heat-4: #6da7ec; --heat-5: #5598e7; --heat-6: #3987e5; --heat-7: #2a78d6;
  --heat-8: #256abf; --heat-9: #1c5cab; --heat-10: #184f95; --heat-11: #104281;
  --heat-12: #0d366b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --heat-0: #0d366b; --heat-1: #104281; --heat-2: #184f95; --heat-3: #1c5cab;
    --heat-4: #256abf; --heat-5: #2a78d6; --heat-6: #3987e5; --heat-7: #5598e7;
    --heat-8: #6da7ec; --heat-9: #86b6ef; --heat-10: #9ec5f4; --heat-11: #b7d3f6;
    --heat-12: #cde2fb;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
  --series-2: #d95926;
  --series-3: #199e70;
  --heat-0: #0d366b; --heat-1: #104281; --heat-2: #184f95; --heat-3: #1c5cab;
  --heat-4: #256abf; --heat-5: #2a78d6; --heat-6: #3987e5; --heat-7: #5598e7;
  --heat-8: #6da7ec; --heat-9: #86b6ef; --heat-10: #9ec5f4; --heat-11: #b7d3f6;
  --heat-12: #cde2fb;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
.viz-root .subtitle { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.panel {
  background: var(--surface-1);
  border: 1px solid var(--gridline);
  border-radius: 8px;
  padding: 16px 20px;
  margin: 0 0 20px;
  max-width: 980px;
}
.panel h2 { font-size: 14px; font-weight: 600; margin: 0 0 2px; }
.panel .note { color: var(--text-secondary); font-size: 12px; margin: 0 0 12px; }
.panel svg { display: block; }
.panel svg text { font-family: inherit; }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--text-secondary);
          margin: 10px 0 0; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
                  border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
details { margin-top: 10px; font-size: 12px; }
details summary { color: var(--text-muted); cursor: pointer; }
details table { border-collapse: collapse; margin-top: 8px; }
details th, details td { border: 1px solid var(--gridline); padding: 3px 8px;
                         text-align: right; font-variant-numeric: tabular-nums; }
details th { color: var(--text-secondary); font-weight: 600; }
details td:first-child, details th:first-child { text-align: left; }
"""

_PHASES = ("restructure", "compute", "writeout")
_PHASE_VARS = {"restructure": "--series-1", "compute": "--series-2",
               "writeout": "--series-3"}


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    if value >= 100:
        return f"{value:,.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return (
        "<details><summary>table view</summary>"
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
        "</details>"
    )


# -- panel: phase waterfall --------------------------------------------------

def _phase_seconds(record: RunRecord) -> dict[str, float]:
    spans = record.spans or {}
    return {
        phase: float(spans.get(f"run/{phase}", {}).get("total_seconds", 0.0))
        for phase in _PHASES
    }


def phase_waterfall_svg(records: Sequence[RunRecord]) -> str:
    """Per-algorithm horizontal bars, one segment per execution phase."""
    rows: list[tuple[str, dict[str, float]]] = []
    seen: set[str] = set()
    for record in records:
        if record.algorithm in seen or not record.spans:
            continue
        seen.add(record.algorithm)
        rows.append((record.algorithm, _phase_seconds(record)))
    if not rows:
        return "<p class='note'>(no span data in the supplied records)</p>"
    max_total = max(sum(phases.values()) for _, phases in rows) or 1.0
    label_w, bar_w, row_h, gap = 90, 720, 20, 8
    height = len(rows) * (row_h + gap) + 24
    parts = [
        f"<svg viewBox='0 0 {label_w + bar_w + 90} {height}' "
        f"width='{label_w + bar_w + 90}' height='{height}' role='img' "
        "aria-label='Phase waterfall'>"
    ]
    y = 4
    for name, phases in rows:
        total = sum(phases.values())
        parts.append(
            f"<text x='{label_w - 8}' y='{y + 14}' text-anchor='end' "
            f"font-size='12' fill='var(--text-secondary)'>{_esc(name)}</text>"
        )
        x = float(label_w)
        for phase in _PHASES:
            seconds = phases[phase]
            w = bar_w * seconds / max_total
            if w <= 0:
                continue
            # 2px surface gap between stacked segments.
            parts.append(
                f"<rect x='{x:.1f}' y='{y}' width='{max(w - 2, 1):.1f}' "
                f"height='{row_h}' rx='2' fill='var({_PHASE_VARS[phase]})'>"
                f"<title>{_esc(name)} {phase}: {seconds:.4f}s</title></rect>"
            )
            x += w
        parts.append(
            f"<text x='{x + 6:.1f}' y='{y + 14}' font-size='12' "
            f"fill='var(--text-primary)'>{total:.3f}s</text>"
        )
        y += row_h + gap
    parts.append(
        f"<line x1='{label_w}' y1='{y}' x2='{label_w + bar_w}' y2='{y}' "
        "stroke='var(--baseline)' stroke-width='1'/>"
    )
    parts.append("</svg>")
    legend = "".join(
        f"<span><span class='swatch' style='background:var({_PHASE_VARS[p]})'></span>"
        f"{p}</span>"
        for p in _PHASES
    )
    table = _table(
        ["algorithm", *_PHASES, "total s"],
        [
            [name, *(f"{phases[p]:.4f}" for p in _PHASES),
             f"{sum(phases.values()):.4f}"]
            for name, phases in rows
        ],
    )
    return "".join(parts) + f"<div class='legend'>{legend}</div>" + table


# -- panel: bench trajectory -------------------------------------------------

def bench_trajectory_svg(entries: Sequence[dict[str, Any]]) -> str:
    """Per-cell ``total_io`` bars (single series: identity is the label)."""
    cells = [
        (
            f"{e.get('algorithm')} {e.get('family') or ''} {e.get('query')}"
            + (f" M={e['buffer_pages']}" if e.get("buffer_pages") else ""),
            float(e.get("total_io", 0.0)),
            int(e.get("runs", 1)),
        )
        for e in entries
    ]
    if not cells:
        return "<p class='note'>(no records to chart)</p>"
    max_io = max(value for _, value, _ in cells) or 1.0
    label_w, bar_w, row_h, gap = 220, 600, 16, 6
    height = len(cells) * (row_h + gap) + 20
    parts = [
        f"<svg viewBox='0 0 {label_w + bar_w + 90} {height}' "
        f"width='{label_w + bar_w + 90}' height='{height}' role='img' "
        "aria-label='BENCH trajectory'>"
    ]
    y = 4
    for label, value, runs in cells:
        w = max(bar_w * value / max_io, 1)
        parts.append(
            f"<text x='{label_w - 8}' y='{y + 12}' text-anchor='end' "
            f"font-size='11' fill='var(--text-secondary)'>{_esc(label)}</text>"
        )
        parts.append(
            f"<rect x='{label_w}' y='{y}' width='{w:.1f}' height='{row_h}' "
            f"rx='2' fill='var(--series-1)'>"
            f"<title>{_esc(label)}: total_io {_fmt(value)} over {runs} run(s)"
            f"</title></rect>"
        )
        parts.append(
            f"<text x='{label_w + w + 6:.1f}' y='{y + 12}' font-size='11' "
            f"fill='var(--text-primary)'>{_fmt(value)}</text>"
        )
        y += row_h + gap
    parts.append(
        f"<line x1='{label_w}' y1='{y}' x2='{label_w + bar_w}' y2='{y}' "
        "stroke='var(--baseline)' stroke-width='1'/>"
    )
    parts.append("</svg>")
    table = _table(
        ["cell", "total_io", "runs"],
        [[label, _fmt(value), runs] for label, value, runs in cells],
    )
    return "".join(parts) + table


# -- panel: page heatmap -----------------------------------------------------

def heatmap_svg(label: str, events: Sequence[TraceEventRecord]) -> str:
    """Page-bin x time grid of page touches on the sequential ramp."""
    grid = page_heatmap(events)
    if not grid["rows"]:
        return "<p class='note'>(no page events in this trace)</p>"
    cell_w, cell_h, gap = 14, 13, 1
    label_w = 150
    rows, buckets = grid["rows"], grid["buckets"]
    width = label_w + buckets * (cell_w + gap) + 20
    height = len(rows) * (cell_h + gap) + 26
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        f"role='img' aria-label='Page heatmap for {_esc(label)}'>"
    ]
    max_count = grid["max_count"] or 1
    for r, row in enumerate(rows):
        y = r * (cell_h + gap) + 2
        pages = (
            f"p{row['page_lo']}"
            if row["page_lo"] == row["page_hi"]
            else f"p{row['page_lo']}-{row['page_hi']}"
        )
        parts.append(
            f"<text x='{label_w - 8}' y='{y + 10}' text-anchor='end' "
            f"font-size='10' fill='var(--text-secondary)'>"
            f"{_esc(row['kind'])} {pages}</text>"
        )
        for b, count in enumerate(row["counts"]):
            if not count:
                continue
            step = min(12, int(12 * count / max_count))
            x = label_w + b * (cell_w + gap)
            parts.append(
                f"<rect x='{x}' y='{y}' width='{cell_w}' height='{cell_h}' "
                f"fill='var(--heat-{step})'>"
                f"<title>{_esc(row['kind'])} {pages}, slice {b + 1}/{buckets}: "
                f"{count} touch(es)</title></rect>"
            )
    y_axis = len(rows) * (cell_h + gap) + 14
    parts.append(
        f"<text x='{label_w}' y='{y_axis}' font-size='10' "
        "fill='var(--text-muted)'>run start</text>"
    )
    parts.append(
        f"<text x='{label_w + buckets * (cell_w + gap)}' y='{y_axis}' "
        "text-anchor='end' font-size='10' fill='var(--text-muted)'>run end</text>"
    )
    parts.append("</svg>")
    table = _table(
        ["row", "touches"],
        [
            [f"{row['kind']} p{row['page_lo']}-{row['page_hi']}", sum(row["counts"])]
            for row in rows
        ],
    )
    return "".join(parts) + table


# -- panel: residency timeline -----------------------------------------------

def residency_svg(label: str, events: Sequence[TraceEventRecord]) -> str:
    """Resident-page count over the run (single 2px line)."""
    timeline = residency_timeline(events)
    samples = timeline["resident"]
    if not samples:
        return "<p class='note'>(no pool events in this trace)</p>"
    width, height, pad = 720, 120, 8
    peak = max(timeline["peak_resident"], 1)
    step = (width - 2 * pad) / max(len(samples) - 1, 1)
    points = " ".join(
        f"{pad + i * step:.1f},{height - pad - (height - 2 * pad) * v / peak:.1f}"
        for i, v in enumerate(samples)
    )
    parts = [
        f"<svg viewBox='0 0 {width + 60} {height + 20}' width='{width + 60}' "
        f"height='{height + 20}' role='img' "
        f"aria-label='Pool residency for {_esc(label)}'>",
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
        f"y2='{height - pad}' stroke='var(--baseline)' stroke-width='1'/>",
        f"<line x1='{pad}' y1='{height - pad - (height - 2 * pad):.1f}' "
        f"x2='{width - pad}' y2='{height - pad - (height - 2 * pad):.1f}' "
        "stroke='var(--gridline)' stroke-width='1' stroke-dasharray='2 4'/>",
        f"<polyline points='{points}' fill='none' stroke='var(--series-1)' "
        "stroke-width='2'><title>resident pages over the run"
        f" (peak {peak})</title></polyline>",
        f"<text x='{width + 2}' y='{height - pad - (height - 2 * pad) + 4:.1f}' "
        f"font-size='11' fill='var(--text-secondary)'>peak {peak}</text>",
        f"<text x='{pad}' y='{height + 12}' font-size='10' "
        "fill='var(--text-muted)'>run start</text>",
        f"<text x='{width - pad}' y='{height + 12}' text-anchor='end' "
        "font-size='10' fill='var(--text-muted)'>run end</text>",
        "</svg>",
    ]
    stride = max(len(samples) // 12, 1)
    table = _table(
        ["sample", "resident", "pinned"],
        [
            [i + 1, samples[i], timeline["pinned"][i]]
            for i in range(0, len(samples), stride)
        ],
    )
    return "".join(parts) + table


# -- assembly ----------------------------------------------------------------

def _panel(title: str, note: str, body: str) -> str:
    return (
        f"<figure class='panel'><h2>{_esc(title)}</h2>"
        f"<p class='note'>{_esc(note)}</p>{body}</figure>"
    )


def build_report(
    records: Sequence[RunRecord] = (),
    trace_sections: Sequence[tuple[str, Sequence[TraceEventRecord]]] = (),
    bench_entries: Sequence[dict[str, Any]] | None = None,
    title: str = "repro run report",
) -> str:
    """Assemble the full self-contained HTML document."""
    from repro.obs.bench import build_bench_summary

    panels: list[str] = []
    if records:
        panels.append(
            _panel(
                "Phase waterfall",
                "wall-clock seconds per execution phase, from RunRecord spans",
                phase_waterfall_svg(records),
            )
        )
    if bench_entries is None and records:
        bench_entries = build_bench_summary(list(records))
    if bench_entries:
        panels.append(
            _panel(
                "BENCH trajectory",
                "total simulated page I/O per benchmark cell",
                bench_trajectory_svg(bench_entries),
            )
        )
    for label, events in trace_sections:
        panels.append(
            _panel(
                f"Page heatmap - {label}",
                "page touches (hit/fetch/create) per page bin over the run",
                heatmap_svg(label, events),
            )
        )
        panels.append(
            _panel(
                f"Pool residency - {label}",
                "distinct resident pages over the run, from trace events",
                residency_svg(label, events),
            )
        )
    if not panels:
        panels.append(
            _panel("Nothing to report", "no records or trace events supplied", "")
        )
    summary_bits = []
    if records:
        summary_bits.append(f"{len(records)} run record(s)")
    if trace_sections:
        events = sum(len(evs) for _, evs in trace_sections)
        summary_bits.append(
            f"{len(trace_sections)} trace section(s), {events} event(s)"
        )
    subtitle = " - ".join(summary_bits) or "empty inputs"
    return (
        "<!DOCTYPE html>\n<html lang='en'>\n<head>\n<meta charset='utf-8'>\n"
        f"<title>{_esc(title)}</title>\n"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>\n"
        f"<style>\n{_CSS}</style>\n</head>\n"
        "<body class='viz-root'>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f"<p class='subtitle'>{_esc(subtitle)}</p>\n"
        + "\n".join(panels)
        + "\n</body>\n</html>\n"
    )


def render_report(
    out_path: str | Path,
    records: Sequence[RunRecord] = (),
    trace_payload: dict[str, Any] | None = None,
    bench_entries: Sequence[dict[str, Any]] | None = None,
    title: str = "repro run report",
) -> Path:
    """Render the report to ``out_path`` and return it.

    ``trace_payload`` is a parsed Chrome trace file (the format
    ``--trace-out`` writes); its sections are reconstructed via
    :func:`repro.obs.tracing.events_from_chrome`.
    """
    from repro.obs.tracing import events_from_chrome

    sections: Sequence[tuple[str, Sequence[TraceEventRecord]]] = ()
    if trace_payload is not None:
        sections = events_from_chrome(trace_payload)
    document = build_report(records, sections, bench_entries, title=title)
    out = Path(out_path)
    out.write_text(document, encoding="utf-8")
    return out


def load_bench_entries(path: str | Path) -> list[dict[str, Any]]:
    """Load a ``BENCH_summary.json`` file for the trajectory panel: an
    array of objects whose ``total_io`` and ``runs``, if present, are
    numbers.  A bad entry raises :class:`ValueError` naming ``FILE:
    entry N`` (from 1)."""
    entries = json.loads(Path(path).read_text())
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON array of bench entries")
    for number, entry in enumerate(entries, start=1):
        try:
            check_type("the entry", entry, dict)
            for name in ("total_io", "runs"):
                if name in entry:
                    check_type(name, entry[name], NUMBER)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {number}: {exc}") from exc
    return entries
