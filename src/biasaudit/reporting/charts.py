"""Standalone SVG renderers for the nine chart kinds.

Output is deterministic: fixed canvas, fixed palette, fixed float
formatting, no timestamps or generated ids. Category rectangles and
wedges carry ``data-label`` attributes so tests (and downstream tooling)
can inspect them structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import ArityMismatchError, EmptyDataError

WIDTH, HEIGHT = 640, 480
MARGIN = 56
PALETTE = ("#4878a8", "#66aa64", "#966e32", "#8888cc", "#c05a5a",
           "#50a0a0", "#b08ac8", "#a0a050", "#d08850", "#708090")


class ChartKind(str, Enum):
    BAR = "bar"
    PIE = "pie"
    HORIZONTAL_BAR = "horizontal_bar"
    TREEMAP = "treemap"
    HEATMAP = "heatmap"
    CORRELATION_HEATMAP = "correlation_heatmap"
    STACKED_BAR = "stacked_bar"
    GROUPED_BAR = "grouped_bar"
    BOX = "box"


@dataclass(frozen=True)
class ChartSpec:
    kind: ChartKind
    data: dict
    title: str = ""

    # data shapes per kind:
    #   bar / pie / horizontal_bar / treemap / heatmap:
    #       {"series": {label: value}}
    #   stacked_bar / grouped_bar:
    #       {"groups": {outer_label: {inner_label: value}}}
    #   correlation_heatmap:
    #       {"labels": [...], "matrix": [[...], ...]}  values in [-1, 1]
    #   box:
    #       {"groups": {label: [numbers]}}


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") or "0"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


class _Svg:
    def __init__(self, title):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]
        if title:
            self.text(WIDTH / 2, 28, title, size=16, anchor="middle")

    def rect(self, x, y, w, h, color, label=None):
        attr = f' data-label="{_esc(label)}"' if label is not None else ""
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{color}" stroke="#333333"{attr}/>')

    def line(self, x1, y1, x2, y2, color="#333333"):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}"/>')

    def text(self, x, y, s, size=11, anchor="middle", color="#222222"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{color}">'
            f'{_esc(s)}</text>')

    def path(self, d, color, label=None):
        attr = f' data-label="{_esc(label)}"' if label is not None else ""
        self.parts.append(f'<path d="{d}" fill="{color}" stroke="#333333"{attr}/>')

    def circle(self, cx, cy, r, color, label=None):
        attr = f' data-label="{_esc(label)}"' if label is not None else ""
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{color}" stroke="#333333"{attr}/>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render_chart(spec: ChartSpec, path=None) -> str:
    """Render a chart to SVG markup; optionally write it to ``path``."""
    renderer = _RENDERERS[spec.kind]
    markup = renderer(spec)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(markup)
    return markup


def _series(spec) -> dict:
    series = spec.data.get("series") or {}
    if not series:
        raise EmptyDataError(f"{spec.kind.value}: empty series")
    if any(v < 0 for v in series.values()):
        raise ArityMismatchError(f"{spec.kind.value}: negative values")
    return {str(k): float(v) for k, v in sorted(series.items(), key=lambda kv: str(kv[0]))}


def _bar(spec):
    series = _series(spec)
    svg = _Svg(spec.title)
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN
    top = max(series.values()) or 1.0
    n = len(series)
    slot = plot_w / n
    svg.line(MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN)
    svg.line(MARGIN, MARGIN, MARGIN, HEIGHT - MARGIN)
    for i, (label, value) in enumerate(series.items()):
        h = plot_h * value / top
        x = MARGIN + i * slot + slot * 0.15
        svg.rect(x, HEIGHT - MARGIN - h, slot * 0.7, h,
                 PALETTE[i % len(PALETTE)], label=label)
        svg.text(MARGIN + (i + 0.5) * slot, HEIGHT - MARGIN + 16, label)
        svg.text(MARGIN + (i + 0.5) * slot, HEIGHT - MARGIN - h - 6, _fmt(value))
    return svg.render()


def _horizontal_bar(spec):
    series = _series(spec)
    svg = _Svg(spec.title)
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN
    top = max(series.values()) or 1.0
    slot = plot_h / len(series)
    svg.line(MARGIN, MARGIN, MARGIN, HEIGHT - MARGIN)
    for i, (label, value) in enumerate(series.items()):
        w = plot_w * value / top
        y = MARGIN + i * slot + slot * 0.15
        svg.rect(MARGIN, y, w, slot * 0.7, PALETTE[i % len(PALETTE)], label=label)
        svg.text(MARGIN - 6, MARGIN + (i + 0.5) * slot + 4, label, anchor="end")
        svg.text(MARGIN + w + 6, MARGIN + (i + 0.5) * slot + 4, _fmt(value),
                 anchor="start")
    return svg.render()


def _pie(spec):
    series = _series(spec)
    svg = _Svg(spec.title)
    cx, cy = WIDTH / 2, HEIGHT / 2 + 10
    radius = min(WIDTH, HEIGHT) / 2 - MARGIN
    total = sum(series.values())
    if total <= 0:
        raise EmptyDataError("pie: all values are zero")
    if len(series) == 1:
        label = next(iter(series))
        svg.circle(cx, cy, radius, PALETTE[0], label=label)
        svg.text(cx, cy + 4, label)
        return svg.render()
    angle = -math.pi / 2
    for i, (label, value) in enumerate(series.items()):
        sweep = 2 * math.pi * value / total
        x1 = cx + radius * math.cos(angle)
        y1 = cy + radius * math.sin(angle)
        angle2 = angle + sweep
        x2 = cx + radius * math.cos(angle2)
        y2 = cy + radius * math.sin(angle2)
        large = 1 if sweep > math.pi else 0
        d = (f"M {_fmt(cx)} {_fmt(cy)} L {_fmt(x1)} {_fmt(y1)} "
             f"A {_fmt(radius)} {_fmt(radius)} 0 {large} 1 {_fmt(x2)} {_fmt(y2)} Z")
        svg.path(d, PALETTE[i % len(PALETTE)], label=label)
        mid = angle + sweep / 2
        svg.text(cx + radius * 0.7 * math.cos(mid),
                 cy + radius * 0.7 * math.sin(mid), label)
        angle = angle2
    return svg.render()


def _treemap(spec):
    series = _series(spec)
    svg = _Svg(spec.title)
    items = [(k, v) for k, v in series.items() if v > 0]
    if not items:
        raise EmptyDataError("treemap: all values are zero")
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    rects = _squarify(items, MARGIN, MARGIN,
                      WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN)
    for i, (label, x, y, w, h) in enumerate(rects):
        svg.rect(x, y, w, h, PALETTE[i % len(PALETTE)], label=label)
        if w > 40 and h > 18:
            svg.text(x + w / 2, y + h / 2 + 4, label)
    return svg.render()


def _squarify(items, x, y, w, h):
    """Squarified treemap layout over (label, value) items, largest first."""
    total = sum(v for _, v in items)
    scale = w * h / total
    sizes = [(label, v * scale) for label, v in items]
    out = []
    while sizes:
        row = [sizes.pop(0)]
        side = min(w, h)

        def worst(r):
            s = sum(a for _, a in r)
            return max(max((side ** 2) * a / (s ** 2), (s ** 2) / ((side ** 2) * a))
                       for _, a in r)

        while sizes:
            candidate = row + [sizes[0]]
            if worst(candidate) <= worst(row):
                row.append(sizes.pop(0))
            else:
                break
        area = sum(a for _, a in row)
        if w >= h:  # lay the row as a vertical strip
            strip_w = area / h
            yy = y
            for label, a in row:
                hh = a / strip_w
                out.append((label, x, yy, strip_w, hh))
                yy += hh
            x += strip_w
            w -= strip_w
        else:
            strip_h = area / w
            xx = x
            for label, a in row:
                ww = a / strip_h
                out.append((label, xx, y, ww, strip_h))
                xx += ww
            y += strip_h
            h -= strip_h
    return out


def _heatmap(spec):
    """Frequency strip for one column: one cell per category, shaded by count."""
    series = _series(spec)
    svg = _Svg(spec.title)
    top = max(series.values()) or 1.0
    n = len(series)
    slot = (WIDTH - 2 * MARGIN) / n
    cell_h = 120
    y = (HEIGHT - cell_h) / 2
    for i, (label, value) in enumerate(series.items()):
        shade = int(235 - 180 * (value / top))
        color = f"#{shade:02x}{shade:02x}f0"
        svg.rect(MARGIN + i * slot, y, slot, cell_h, color, label=label)
        svg.text(MARGIN + (i + 0.5) * slot, y + cell_h + 18, label)
        svg.text(MARGIN + (i + 0.5) * slot, y + cell_h / 2 + 4, _fmt(value))
    return svg.render()


def _correlation_heatmap(spec):
    labels = spec.data.get("labels") or []
    matrix = spec.data.get("matrix") or []
    if not labels or not matrix:
        raise EmptyDataError("correlation_heatmap: empty matrix")
    if len(matrix) != len(labels) or any(len(r) != len(labels) for r in matrix):
        raise ArityMismatchError("correlation_heatmap: matrix must be square "
                                 "with one row per label")
    if any(abs(v) > 1 + 1e-9 for row in matrix for v in row):
        raise ArityMismatchError("correlation_heatmap: values must lie in [-1, 1]")
    svg = _Svg(spec.title)
    n = len(labels)
    size = min(WIDTH, HEIGHT) - 2 * MARGIN
    cell = size / n
    x0 = (WIDTH - size) / 2
    y0 = MARGIN
    for i in range(n):
        for j in range(n):
            v = matrix[i][j]
            if v >= 0:  # white -> blue for positive, white -> red for negative
                shade = int(245 - 165 * v)
                color = f"#{shade:02x}{shade:02x}f5"
            else:
                shade = int(245 + 165 * v)
                color = f"#f5{shade:02x}{shade:02x}"
            svg.rect(x0 + j * cell, y0 + i * cell, cell, cell, color,
                     label=f"{labels[i]}/{labels[j]}")
            svg.text(x0 + (j + 0.5) * cell, y0 + (i + 0.5) * cell + 4, _fmt(v))
    for i, label in enumerate(labels):
        svg.text(x0 + (i + 0.5) * cell, y0 + size + 18, label)
        svg.text(x0 - 8, y0 + (i + 0.5) * cell + 4, label, anchor="end")
    return svg.render()


def _two_level(spec):
    groups = spec.data.get("groups") or {}
    if not groups:
        raise EmptyDataError(f"{spec.kind.value}: empty groups")
    outer = sorted(groups, key=str)
    inner = sorted({k for g in groups.values() for k in g}, key=str)
    if not inner:
        raise EmptyDataError(f"{spec.kind.value}: empty inner series")
    return outer, inner, groups


def _stacked_bar(spec):
    outer, inner, groups = _two_level(spec)
    svg = _Svg(spec.title)
    plot_h = HEIGHT - 2 * MARGIN
    totals = {o: sum(groups[o].get(k, 0) for k in inner) for o in outer}
    top = max(totals.values()) or 1.0
    slot = (WIDTH - 2 * MARGIN) / len(outer)
    svg.line(MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN)
    for i, o in enumerate(outer):
        y = HEIGHT - MARGIN
        for j, k in enumerate(inner):
            v = groups[o].get(k, 0)
            h = plot_h * v / top
            y -= h
            if v > 0:
                svg.rect(MARGIN + i * slot + slot * 0.15, y, slot * 0.7, h,
                         PALETTE[j % len(PALETTE)], label=f"{o}/{k}")
        svg.text(MARGIN + (i + 0.5) * slot, HEIGHT - MARGIN + 16, o)
    _legend(svg, inner)
    return svg.render()


def _grouped_bar(spec):
    outer, inner, groups = _two_level(spec)
    svg = _Svg(spec.title)
    plot_h = HEIGHT - 2 * MARGIN
    top = max((groups[o].get(k, 0) for o in outer for k in inner), default=0) or 1.0
    slot = (WIDTH - 2 * MARGIN) / len(outer)
    sub = slot * 0.8 / len(inner)
    svg.line(MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN)
    for i, o in enumerate(outer):
        for j, k in enumerate(inner):
            v = groups[o].get(k, 0)
            h = plot_h * v / top
            x = MARGIN + i * slot + slot * 0.1 + j * sub
            svg.rect(x, HEIGHT - MARGIN - h, sub * 0.9, h,
                     PALETTE[j % len(PALETTE)], label=f"{o}/{k}")
        svg.text(MARGIN + (i + 0.5) * slot, HEIGHT - MARGIN + 16, o)
    _legend(svg, inner)
    return svg.render()


def _legend(svg, labels):
    for j, k in enumerate(labels):
        y = MARGIN + 14 * j
        svg.rect(WIDTH - MARGIN + 8, y, 10, 10, PALETTE[j % len(PALETTE)])
        svg.text(WIDTH - MARGIN + 22, y + 9, k, anchor="start", size=10)


def _box(spec):
    groups = spec.data.get("groups") or {}
    if not groups or any(len(v) == 0 for v in groups.values()):
        raise EmptyDataError("box: every group needs a non-empty numeric series")
    keys = sorted(groups, key=str)
    values = {k: np.sort(np.asarray(groups[k], dtype=float)) for k in keys}
    lo = min(v[0] for v in values.values())
    hi = max(v[-1] for v in values.values())
    span = (hi - lo) or 1.0
    svg = _Svg(spec.title)
    plot_h = HEIGHT - 2 * MARGIN
    slot = (WIDTH - 2 * MARGIN) / len(keys)

    def ypos(v):
        return HEIGHT - MARGIN - plot_h * (v - lo) / span

    def quantile(sorted_v, q):
        pos = q * (len(sorted_v) - 1)
        i = int(pos)
        frac = pos - i
        if i + 1 < len(sorted_v):
            return sorted_v[i] * (1 - frac) + sorted_v[i + 1] * frac
        return sorted_v[i]

    svg.line(MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN)
    for i, k in enumerate(keys):
        v = values[k]
        q1, q2, q3 = (quantile(v, q) for q in (0.25, 0.5, 0.75))
        cx = MARGIN + (i + 0.5) * slot
        half = slot * 0.3
        svg.line(cx, ypos(v[0]), cx, ypos(q1))
        svg.line(cx, ypos(q3), cx, ypos(v[-1]))
        svg.line(cx - half / 2, ypos(v[0]), cx + half / 2, ypos(v[0]))
        svg.line(cx - half / 2, ypos(v[-1]), cx + half / 2, ypos(v[-1]))
        svg.rect(cx - half, ypos(q3), 2 * half, max(ypos(q1) - ypos(q3), 0.5),
                 PALETTE[i % len(PALETTE)], label=k)
        svg.line(cx - half, ypos(q2), cx + half, ypos(q2), color="#111111")
        svg.text(cx, HEIGHT - MARGIN + 16, k)
    return svg.render()


_RENDERERS = {
    ChartKind.BAR: _bar,
    ChartKind.PIE: _pie,
    ChartKind.HORIZONTAL_BAR: _horizontal_bar,
    ChartKind.TREEMAP: _treemap,
    ChartKind.HEATMAP: _heatmap,
    ChartKind.CORRELATION_HEATMAP: _correlation_heatmap,
    ChartKind.STACKED_BAR: _stacked_bar,
    ChartKind.GROUPED_BAR: _grouped_bar,
    ChartKind.BOX: _box,
}
