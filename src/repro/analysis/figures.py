"""Paper-figure renderers: deterministic SVG, optional matplotlib PNG.

Each figure family from the paper maps to one small spec dataclass —
:class:`LineFigure` (latency/throughput curves, Figs 6 and 8),
:class:`BarFigure` (cost/power per endpoint, Figs 11c/d), and
:class:`GroupedBarFigure` (workload completion times) — with two
backends:

- ``render_svg()`` writes the SVG text itself, needing only numpy,
  with **byte-deterministic output**: fixed coordinate precision,
  fixed styling, no timestamps, every iteration in input order.  Equal
  figure data renders to equal bytes, which is what lets CI assert
  reproduction reports are byte-identical across reruns and worker
  counts.  Per-point and per-cell elements (curve points, markers,
  heatmap cells) are computed in array passes, with the same float64
  operations, in the same order, as the scalar transforms.
- ``render_png(path)`` goes through matplotlib when it is installed
  (:data:`HAVE_MATPLOTLIB`); the dependency is optional and gated, so
  the SVG pipeline works on a bare numpy/scipy environment.

Styling follows one fixed system: categorical series colors are
assigned in a fixed slot order (well-known entities — protocols,
topologies — always get the same slot via :data:`SERIES_COLORS`, so a
protocol keeps its color across every figure), 2px lines with >=8px
markers, bars with rounded data-ends, recessive grid, and a legend
whenever a figure has two or more series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import importlib.util

import numpy as np

#: Probed without importing (matplotlib costs hundreds of ms to load
#: and only the optional PNG path uses it; render_png imports lazily).
HAVE_MATPLOTLIB = importlib.util.find_spec("matplotlib") is not None

#: Categorical palette, fixed slot order (light-surface steps).  Slots
#: are assigned in order and never cycled; figures with more series
#: than slots fall back to the overflow gray + direct labels.
PALETTE = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)
OVERFLOW_COLOR = "#9a9895"

#: Color follows the entity: a protocol or topology keeps its slot in
#: every figure it appears in, regardless of which others are present.
SERIES_COLORS = {
    "SF-MIN": PALETTE[0],
    "SF": PALETTE[0],
    "SF-VAL": PALETTE[1],
    "SF-UGAL-L": PALETTE[2],
    "SF-UGAL-G": PALETTE[3],
    "DF-UGAL-L": PALETTE[4],
    "DF-UGAL-G": PALETTE[4],
    "DF": PALETTE[4],
    "FT-ANCA": PALETTE[5],
    "FT-3": PALETTE[5],
}

_SURFACE = "#fcfcfb"
_TEXT = "#0b0b0b"
_TEXT_2 = "#52514e"
_GRID = "#e8e7e4"
_AXIS = "#c3c2b7"
_FONT = "Helvetica, Arial, sans-serif"


def assign_colors(names: Sequence[str]) -> list[str]:
    """Colors for one figure's series, collision-free.

    Pinned entities keep their :data:`SERIES_COLORS` slot; unknown
    labels take the lowest palette slots no present series pins.  When
    two pinned entities share a slot (aliases that never co-appear in
    the paper's figures, e.g. DF-UGAL-L/DF-UGAL-G), the first
    occurrence keeps it and later ones fall back to a free slot, so no
    two series in one figure render alike.  Past eight series the
    overflow gray repeats — rely on the legend there.
    """
    free = [
        c for c in PALETTE if c not in {SERIES_COLORS.get(n) for n in names}
    ]
    used: set[str] = set()
    out = []
    for name in names:
        color = SERIES_COLORS.get(name)
        if color is None or color in used:
            color = free.pop(0) if free else OVERFLOW_COLOR
        used.add(color)
        out.append(color)
    return out


def line_series_colors(series) -> list[str]:
    """Per-series colors with fidelity-overlay sharing.

    :func:`assign_colors` on the series names, then dashed series
    named ``"<base> (<suffix>)"`` inherit the color of a same-figure
    series called ``<base>`` — a flow-level overlay keeps its
    protocol's color and differs only by line style.
    """
    colors = assign_colors([s.name for s in series])
    by_name = {s.name: c for s, c in zip(series, colors)}
    for i, s in enumerate(series):
        if getattr(s, "dash", False) and s.name.endswith(")") and " (" in s.name:
            base = s.name.rsplit(" (", 1)[0]
            if base in by_name:
                colors[i] = by_name[base]
    return colors


def _fmt(v: float) -> str:
    """Fixed-precision coordinate formatting (determinism)."""
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _fmt_all(values: np.ndarray) -> list[str]:
    """:func:`_fmt` of every element of a float64 array, in order."""
    return [_fmt(v) for v in values.tolist()]


def _fmt_tick(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.4g}"


def nice_ticks(lo: float, hi: float, max_ticks: int = 6) -> list[float]:
    """Deterministic 1-2-5 axis ticks covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(1, max_ticks - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= max_ticks - 1:
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else round(t, 10))
        t += step
    return ticks


class _SVG:
    """Minimal element sink with fixed formatting."""

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
            f'<rect width="{_fmt(width)}" height="{_fmt(height)}" '
            f'fill="{_SURFACE}"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke, width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{_fmt(width)}"{d}/>'
        )

    # Per-point and per-cell elements take coordinates already
    # formatted (by _fmt / _fmt_all), so a point shared by several
    # elements is formatted once.

    def polyline(self, xs, ys, stroke, width=2.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        pts = " ".join(map(",".join, zip(xs, ys)))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-linejoin="round"{d}/>'
        )

    def markers(self, cxs, cys, hollow, r, color):
        """One circle per (cx, cy, hollow) triple, in order: a ``color``
        disc, or a surface-filled ``color`` ring where ``hollow``."""
        head = f'" r="{_fmt(r)}" fill="'
        tails = (
            f'{head}{color}"/>',
            f'{head}{_SURFACE}" stroke="{color}" stroke-width="1.5"/>',
        )
        self.parts.extend(
            f'<circle cx="{x}" cy="{y}{tails[h]}'
            for x, y, h in zip(cxs, cys, hollow)
        )

    def rects(self, xs, y, width, height, fills):
        """One rect per (x, fill) pair, all sharing y, width, height."""
        mid = f'" y="{y}" width="{width}" height="{height}" fill="'
        self.parts.extend(
            f'<rect x="{x}{mid}{fill}"/>' for x, fill in zip(xs, fills)
        )

    def bar(self, x, y, w, h, fill, radius=4.0):
        """A bar with rounded data-end, anchored flat on the baseline."""
        r = min(radius, w / 2.0, h)
        if h <= 0:
            return
        self.parts.append(
            f'<path d="M{_fmt(x)},{_fmt(y + h)} L{_fmt(x)},{_fmt(y + r)} '
            f'Q{_fmt(x)},{_fmt(y)} {_fmt(x + r)},{_fmt(y)} '
            f'L{_fmt(x + w - r)},{_fmt(y)} '
            f'Q{_fmt(x + w)},{_fmt(y)} {_fmt(x + w)},{_fmt(y + r)} '
            f'L{_fmt(x + w)},{_fmt(y + h)} Z" fill="{fill}"/>'
        )

    def text(self, x, y, s, size=11, fill=_TEXT_2, anchor="start",
             bold=False, rotate=None):
        w = ' font-weight="bold"' if bold else ""
        rot = f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"' \
            if rotate is not None else ""
        s = (
            str(s)
            .replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
        )
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="{_FONT}" '
            f'font-size="{_fmt(size)}" fill="{fill}" '
            f'text-anchor="{anchor}"{w}{rot}>{s}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


@dataclass
class _Frame:
    """Plot-area geometry plus data->pixel transforms."""

    x0: float
    y0: float
    w: float
    h: float
    xlo: float
    xhi: float
    ylo: float
    yhi: float

    # Both take a scalar or a float64 array; an array gets the same
    # operations in the same order, hence the same doubles, per element.

    def px(self, x):
        return self.x0 + (x - self.xlo) / (self.xhi - self.xlo) * self.w

    def py(self, y):
        return self.y0 + self.h - (y - self.ylo) / (self.yhi - self.ylo) * self.h


def _draw_frame(svg: _SVG, frame: _Frame, title, xlabel, ylabel) -> None:
    svg.text(frame.x0, 20, title, size=13, fill=_TEXT, bold=True)
    for t in nice_ticks(frame.ylo, frame.yhi):
        y = frame.py(t)
        svg.line(frame.x0, y, frame.x0 + frame.w, y, _GRID)
        svg.text(frame.x0 - 6, y + 3.5, _fmt_tick(t), size=10, anchor="end")
    for t in nice_ticks(frame.xlo, frame.xhi):
        x = frame.px(t)
        svg.line(x, frame.y0 + frame.h, x, frame.y0 + frame.h + 4, _AXIS)
        svg.text(x, frame.y0 + frame.h + 16, _fmt_tick(t), size=10,
                 anchor="middle")
    svg.line(frame.x0, frame.y0, frame.x0, frame.y0 + frame.h, _AXIS)
    svg.line(frame.x0, frame.y0 + frame.h, frame.x0 + frame.w,
             frame.y0 + frame.h, _AXIS)
    svg.text(frame.x0 + frame.w / 2, frame.y0 + frame.h + 34, xlabel,
             anchor="middle")
    svg.text(16, frame.y0 + frame.h / 2, ylabel, anchor="middle", rotate=-90)


def _draw_legend(svg: _SVG, names: Sequence[str], colors: Sequence[str],
                 x: float, y: float) -> None:
    for i, (name, color) in enumerate(zip(names, colors)):
        yy = y + i * 18
        svg.markers([_fmt(x + 5)], [_fmt(yy - 3.5)], [False], 5, color)
        svg.text(x + 15, yy, name, size=11)


@dataclass
class LineSeries:
    """One curve: name, points, optional per-point saturation flags.

    ``dash`` renders the line dashed — the convention for reduced-
    fidelity (flow-level) curves overlaid on cycle-accurate ones.  A
    dashed series whose name is ``"<base> (<suffix>)"`` shares the
    base entity's color when that base is present in the same figure,
    so a protocol's two fidelities read as one entity, distinguished
    by line style.
    """

    name: str
    x: list[float]
    y: list[float]
    saturated: list[bool] | None = None
    dash: bool = False


@dataclass
class LineFigure:
    """Latency/throughput curves (the Fig 6 / Fig 8 families).

    Points whose saturation flag is set render as open markers — the
    paper's convention for points past the saturation throughput.
    """

    title: str
    xlabel: str
    ylabel: str
    series: list[LineSeries] = field(default_factory=list)
    diagonal: bool = False  # y = x guide (accepted == offered)

    def render_svg(self, width: float = 640, height: float = 400) -> str:
        legend_w = 130 if len(self.series) > 1 else 0
        svg = _SVG(width + legend_w, height)
        xs = [v for s in self.series for v in s.x]
        ys = [v for s in self.series for v in s.y if v is not None]
        frame = _Frame(
            x0=64, y0=32, w=width - 64 - 16, h=height - 32 - 48,
            xlo=min(xs, default=0.0), xhi=max(xs, default=1.0),
            ylo=min(0.0, min(ys, default=0.0)), yhi=max(ys, default=1.0) or 1.0,
        )
        if frame.xhi <= frame.xlo:
            frame.xhi = frame.xlo + 1.0
        if frame.yhi <= frame.ylo:  # constant nonpositive data
            frame.yhi = frame.ylo + 1.0
        _draw_frame(svg, frame, self.title, self.xlabel, self.ylabel)
        if self.diagonal:
            # Clamp the y=x guide to the visible window (it can fall
            # entirely outside for collapsed accepted-load curves).
            lo = max(frame.xlo, frame.ylo)
            hi = min(frame.xhi, frame.yhi)
            if hi > lo:
                svg.line(frame.px(lo), frame.py(lo),
                         frame.px(hi), frame.py(hi), _AXIS, dash="4 3")
        colors = line_series_colors(self.series)
        for color, s in zip(colors, self.series):
            drawn = [i for i, y in enumerate(s.y[:len(s.x)]) if y is not None]
            xs = _fmt_all(frame.px(np.array([s.x[i] for i in drawn], float)))
            ys = _fmt_all(frame.py(np.array([s.y[i] for i in drawn], float)))
            if len(drawn) > 1:
                svg.polyline(xs, ys, color, dash="6 4" if s.dash else None)
            # A saturated list shorter than x marks only its own points.
            flags = s.saturated or [False] * len(s.x)
            svg.markers(xs, ys, [bool(flags[i]) for i in drawn
                                 if i < len(flags)], 4, color)
        if legend_w:
            _draw_legend(svg, [s.name for s in self.series], colors,
                         width + 8, 44)
        return svg.render()

    def render_png(self, path) -> Path:
        _require_matplotlib()
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(6.4, 4.0), dpi=100)
        colors = line_series_colors(self.series)
        for color, s in zip(colors, self.series):
            flags = s.saturated or [False] * len(s.x)
            pts = [
                (x, y, sat)
                for x, y, sat in zip(s.x, s.y, flags)
                if y is not None
            ]
            ax.plot([p[0] for p in pts], [p[1] for p in pts],
                    linewidth=2, label=s.name, color=color,
                    linestyle="--" if s.dash else "-")
            # Same convention as the SVG backend: saturated points
            # render as open markers.
            for face, keep in ((color, False), ("white", True)):
                marked = [(x, y) for x, y, sat in pts if sat is keep]
                ax.plot([m[0] for m in marked], [m[1] for m in marked],
                        "o", linestyle="none", color=color,
                        markerfacecolor=face)
        if self.diagonal:
            xs = [v for s in self.series for v in s.x]
            ys = [v for s in self.series for v in s.y if v is not None]
            lo = max(min(xs, default=0.0), min(0.0, min(ys, default=0.0)))
            hi = min(max(xs, default=1.0), max(ys, default=1.0))
            if hi > lo:
                ax.plot([lo, hi], [lo, hi], linestyle="--", color=_AXIS)
        _style_axes(ax, self.title, self.xlabel, self.ylabel,
                    legend=len(self.series) > 1)
        return _save_png(fig, path)


@dataclass
class BarFigure:
    """One measure across categories (cost/power per endpoint bars).

    Identity lives on the axis, so bars share one hue; values are
    direct-labeled on the data ends.
    """

    title: str
    xlabel: str
    ylabel: str
    categories: list[str] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    color: str = PALETTE[0]
    value_fmt: str = "{:.0f}"

    def render_svg(self, width: float = 640, height: float = 400) -> str:
        svg = _SVG(width, height)
        hi = max(self.values, default=1.0) or 1.0
        frame = _Frame(
            x0=64, y0=32, w=width - 64 - 16, h=height - 32 - 48,
            xlo=0.0, xhi=1.0, ylo=0.0, yhi=hi * 1.12,
        )
        svg.text(frame.x0, 20, self.title, size=13, fill=_TEXT, bold=True)
        for t in nice_ticks(0.0, frame.yhi):
            y = frame.py(t)
            svg.line(frame.x0, y, frame.x0 + frame.w, y, _GRID)
            svg.text(frame.x0 - 6, y + 3.5, _fmt_tick(t), size=10, anchor="end")
        svg.line(frame.x0, frame.y0, frame.x0, frame.y0 + frame.h, _AXIS)
        svg.line(frame.x0, frame.y0 + frame.h, frame.x0 + frame.w,
                 frame.y0 + frame.h, _AXIS)
        n = max(1, len(self.categories))
        slot = frame.w / n
        bar_w = min(slot * 0.66, 56.0)
        for i, (cat, val) in enumerate(zip(self.categories, self.values)):
            x = frame.x0 + slot * i + (slot - bar_w) / 2
            y = frame.py(val)
            svg.bar(x, y, bar_w, frame.y0 + frame.h - y, self.color)
            svg.text(x + bar_w / 2, y - 5, self.value_fmt.format(val),
                     size=10, anchor="middle")
            svg.text(frame.x0 + slot * i + slot / 2, frame.y0 + frame.h + 16,
                     cat, size=10, anchor="middle")
        svg.text(frame.x0 + frame.w / 2, frame.y0 + frame.h + 34,
                 self.xlabel, anchor="middle")
        svg.text(16, frame.y0 + frame.h / 2, self.ylabel, anchor="middle",
                 rotate=-90)
        return svg.render()

    def render_png(self, path) -> Path:
        _require_matplotlib()
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(6.4, 4.0), dpi=100)
        ax.bar(self.categories, self.values, color=self.color, width=0.66)
        _style_axes(ax, self.title, self.xlabel, self.ylabel, legend=False)
        return _save_png(fig, path)


@dataclass
class GroupedBarFigure:
    """Several series across categories (completion-time bars).

    ``values[series][group]`` may be ``None`` for a missing cell (a
    run that hit its cycle cap); missing cells render as a gap.
    """

    title: str
    xlabel: str
    ylabel: str
    groups: list[str] = field(default_factory=list)
    series: list[str] = field(default_factory=list)
    values: list[list[float | None]] = field(default_factory=list)

    def render_svg(self, width: float = 700, height: float = 400) -> str:
        legend_w = 130 if len(self.series) > 1 else 0
        # Widen rather than let wide clusters bleed into neighbouring
        # groups: every cluster needs >= 4px bars plus 2px gaps.
        n_series = max(1, len(self.series))
        min_slot = (4.0 * n_series + 2.0 * (n_series - 1)) / 0.8
        width = max(width, 80 + min_slot * max(1, len(self.groups)))
        svg = _SVG(width + legend_w, height)
        flat = [v for row in self.values for v in row if v is not None]
        hi = max(flat, default=1.0) or 1.0
        frame = _Frame(
            x0=64, y0=32, w=width - 64 - 16, h=height - 32 - 48,
            xlo=0.0, xhi=1.0, ylo=0.0, yhi=hi * 1.1,
        )
        svg.text(frame.x0, 20, self.title, size=13, fill=_TEXT, bold=True)
        for t in nice_ticks(0.0, frame.yhi):
            y = frame.py(t)
            svg.line(frame.x0, y, frame.x0 + frame.w, y, _GRID)
            svg.text(frame.x0 - 6, y + 3.5, _fmt_tick(t), size=10, anchor="end")
        svg.line(frame.x0, frame.y0, frame.x0, frame.y0 + frame.h, _AXIS)
        svg.line(frame.x0, frame.y0 + frame.h, frame.x0 + frame.w,
                 frame.y0 + frame.h, _AXIS)
        n_groups = max(1, len(self.groups))
        slot = frame.w / n_groups
        bar_w = max(4.0, min((slot * 0.8 - 2.0 * (n_series - 1)) / n_series, 36.0))
        cluster_w = bar_w * n_series + 2.0 * (n_series - 1)
        colors = assign_colors(self.series)
        for g, group in enumerate(self.groups):
            gx = frame.x0 + slot * g + (slot - cluster_w) / 2
            for s in range(len(self.series)):
                # Ragged matrices (short rows, missing rows) render as
                # gaps, exactly like explicit None cells.
                row = self.values[s] if s < len(self.values) else []
                val = row[g] if g < len(row) else None
                if val is None:
                    continue
                x = gx + s * (bar_w + 2.0)
                y = frame.py(val)
                svg.bar(x, y, bar_w, frame.y0 + frame.h - y, colors[s],
                        radius=2.0)
            svg.text(frame.x0 + slot * g + slot / 2, frame.y0 + frame.h + 16,
                     group, size=10, anchor="middle")
        svg.text(frame.x0 + frame.w / 2, frame.y0 + frame.h + 34,
                 self.xlabel, anchor="middle")
        svg.text(16, frame.y0 + frame.h / 2, self.ylabel, anchor="middle",
                 rotate=-90)
        if legend_w:
            _draw_legend(svg, self.series, colors, width + 8, 44)
        return svg.render()

    def render_png(self, path) -> Path:
        _require_matplotlib()
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(7.0, 4.0), dpi=100)
        n = max(1, len(self.series))
        w = 0.8 / n
        colors = assign_colors(self.series)
        for s, name in enumerate(self.series):
            # Same semantics as the SVG backend: ragged rows are
            # tolerated and None cells render as gaps, not 0-bars.
            row = self.values[s] if s < len(self.values) else []
            cells = [
                (g + s * w, row[g])
                for g in range(len(self.groups))
                if g < len(row) and row[g] is not None
            ]
            ax.bar([c[0] for c in cells], [c[1] for c in cells], width=w,
                   label=name, color=colors[s])
        ax.set_xticks([g + 0.4 - w / 2 for g in range(len(self.groups))])
        ax.set_xticklabels(self.groups)
        _style_axes(ax, self.title, self.xlabel, self.ylabel,
                    legend=len(self.series) > 1)
        return _save_png(fig, path)


#: Fixed heat ramp for :class:`HeatmapFigure` (cool surface -> hot
#: red), interpolated in RGB.  Stops are part of the byte-determinism
#: contract, like :data:`PALETTE`.
HEAT_STOPS = ("#f3f2ee", "#f5d066", "#eb6834", "#a01813")


#: :data:`HEAT_STOPS` as float RGB rows; segment i runs row i -> i+1.
_HEAT_RGB = np.array(
    [[int(stop[k:k + 2], 16) for k in (1, 3, 5)] for stop in HEAT_STOPS],
    dtype=float,
)
#: Each channel value 0..255 as two hex digits.
_HEX = tuple(f"{c:02x}" for c in range(256))


def _heat_colors(t) -> list[str]:
    """:func:`heat_color` of every element of ``t``, in one array pass.

    Clamping to [0, 1] sends NaN to 0, the segment index truncates, and
    each channel is interpolated in float64 and rounded half to even:
    the steps of the scalar ``min``/``max``/``int``/``round`` ramp, so
    the colors are the same strings.
    """
    t = np.asarray(t, dtype=float)
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    segs = len(HEAT_STOPS) - 1
    i = np.minimum((t * segs).astype(np.int64), segs - 1)
    f = (t * segs - i)[:, None]
    rgb = np.rint(_HEAT_RGB[i] * (1 - f) + _HEAT_RGB[i + 1] * f)
    h = _HEX
    return ["#" + h[r] + h[g] + h[b] for r, g, b in rgb.astype(int).tolist()]


def heat_color(t: float) -> str:
    """Deterministic color for ``t`` in [0, 1] on :data:`HEAT_STOPS`.

    Values outside [0, 1] clamp to its ends; NaN renders as 0.
    """
    return _heat_colors([t])[0]


@dataclass
class HeatmapFigure:
    """A row × column grid of scalar cells (Fig 9 channel-load maps).

    ``values[row][col]`` may be ``None`` for a missing cell (renders
    as the bare surface).  Color is normalised over the figure's own
    finite cells unless ``vmax`` pins the scale; rows render top to
    bottom in input order.  Like every figure here, ``render_svg`` is
    byte-deterministic.
    """

    title: str
    xlabel: str
    ylabel: str
    rows: list[str] = field(default_factory=list)
    values: list[list[float | None]] = field(default_factory=list)
    vmax: float | None = None
    #: Label on the color scale (e.g. "flits/cycle").
    scale_label: str = ""

    def _vmax(self) -> float:
        if self.vmax is not None:
            return self.vmax or 1.0
        flat = [v for row in self.values for v in row if v is not None]
        return max(flat, default=1.0) or 1.0

    def render_svg(self, width: float = 700, height: float = 400) -> str:
        n_rows = max(1, len(self.rows))
        n_cols = max(
            1, max((len(row) for row in self.values), default=1)
        )
        # Tall enough for readable row bands, short enough that a
        # couple of rows don't become giant slabs.
        row_h = min(48.0, max(18.0, (height - 120) / n_rows))
        height = 32 + row_h * n_rows + 88
        label_w = 16 + 9 * max(
            (len(r) for r in self.rows), default=4
        )
        label_w = min(170.0, max(64.0, label_w))
        svg = _SVG(width, height)
        frame = _Frame(
            x0=label_w, y0=32, w=width - label_w - 16,
            h=row_h * n_rows,
            xlo=0.0, xhi=float(n_cols), ylo=0.0, yhi=float(n_rows),
        )
        svg.text(frame.x0, 20, self.title, size=13, fill=_TEXT, bold=True)
        hi = self._vmax()
        cell_w = frame.w / n_cols
        col_x = _fmt_all(frame.x0 + np.arange(n_cols) * cell_w)
        # Cells overlap by a hair so antialiased seams never show
        # between columns.
        cell_width, cell_height = _fmt(cell_w + 0.35), _fmt(row_h)
        for r, name in enumerate(self.rows):
            y = frame.y0 + r * row_h
            row = self.values[r] if r < len(self.values) else []
            cols = [c for c, v in enumerate(row) if v is not None]
            # Silent like float division: a tiny hi overflows to inf.
            with np.errstate(all="ignore"):
                scaled = np.array([row[c] for c in cols], float) / hi
            svg.rects([col_x[c] for c in cols], _fmt(y), cell_width,
                      cell_height, _heat_colors(scaled))
            svg.text(frame.x0 - 8, y + row_h / 2 + 3.5, name, size=10,
                     anchor="end")
        for t in nice_ticks(0.0, float(n_cols)):
            if t > n_cols:
                continue
            x = frame.px(t)
            svg.line(x, frame.y0 + frame.h, x, frame.y0 + frame.h + 4, _AXIS)
            svg.text(x, frame.y0 + frame.h + 16, _fmt_tick(t), size=10,
                     anchor="middle")
        svg.line(frame.x0, frame.y0, frame.x0, frame.y0 + frame.h, _AXIS)
        svg.line(frame.x0, frame.y0 + frame.h, frame.x0 + frame.w,
                 frame.y0 + frame.h, _AXIS)
        svg.text(frame.x0 + frame.w / 2, frame.y0 + frame.h + 34,
                 self.xlabel, anchor="middle")
        svg.text(16, frame.y0 + frame.h / 2, self.ylabel, anchor="middle",
                 rotate=-90)
        # Horizontal color scale: 48 discrete strips + end labels.
        bar_y = frame.y0 + frame.h + 48
        bar_w = min(220.0, frame.w * 0.5)
        strips = 48
        i = np.arange(strips)
        svg.rects(_fmt_all(frame.x0 + i * bar_w / strips), _fmt(bar_y),
                  _fmt(bar_w / strips + 0.35), _fmt(10),
                  _heat_colors((i + 0.5) / strips))
        svg.text(frame.x0, bar_y + 22, "0", size=10)
        svg.text(frame.x0 + bar_w, bar_y + 22, _fmt_tick(hi), size=10,
                 anchor="end")
        if self.scale_label:
            svg.text(frame.x0 + bar_w + 12, bar_y + 9, self.scale_label,
                     size=10)
        return svg.render()

    def render_png(self, path) -> Path:
        _require_matplotlib()
        import matplotlib.pyplot as plt
        from matplotlib.colors import LinearSegmentedColormap

        n_cols = max(
            1, max((len(row) for row in self.values), default=1)
        )
        grid = [
            [
                (row[c] if c < len(row) and row[c] is not None else float("nan"))
                for c in range(n_cols)
            ]
            for row in self.values
        ]
        fig, ax = plt.subplots(figsize=(7.0, 4.0), dpi=100)
        cmap = LinearSegmentedColormap.from_list("repro-heat", HEAT_STOPS)
        im = ax.imshow(grid, aspect="auto", cmap=cmap, vmin=0.0,
                       vmax=self._vmax(), interpolation="nearest")
        ax.set_yticks(range(len(self.rows)))
        ax.set_yticklabels(self.rows)
        cbar = fig.colorbar(im, ax=ax)
        if self.scale_label:
            cbar.set_label(self.scale_label)
        _style_axes(ax, self.title, self.xlabel, self.ylabel, legend=False)
        ax.grid(False)
        return _save_png(fig, path)


Figure = LineFigure | BarFigure | GroupedBarFigure | HeatmapFigure


def _require_matplotlib() -> None:
    if not HAVE_MATPLOTLIB:
        raise RuntimeError(
            "PNG rendering needs matplotlib, which is not installed; "
            "the SVG backend (render_svg / save_figure) needs only "
            "numpy"
        )


def _style_axes(ax, title, xlabel, ylabel, legend):  # pragma: no cover
    ax.set_title(title, fontsize=13, loc="left")
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.grid(axis="y", color=_GRID)
    for side in ("top", "right"):
        ax.spines[side].set_visible(False)
    if legend:
        ax.legend(frameon=False, fontsize=9)


def _save_png(fig, path) -> Path:  # pragma: no cover
    path = Path(path)
    fig.savefig(path, format="png")
    import matplotlib.pyplot as plt

    plt.close(fig)
    return path


def save_figure(figure: Figure, out_dir, name: str,
                formats: Sequence[str] = ("svg",)) -> list[Path]:
    """Write ``figure`` as ``<out_dir>/<name>.<fmt>`` per format.

    ``svg`` always works (byte-deterministic builtin backend); ``png``
    requires matplotlib and raises :class:`RuntimeError` without it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        path = out_dir / f"{name}.{fmt}"
        if fmt == "svg":
            # Pinned encoding/newlines: byte-determinism must not
            # depend on locale or platform newline translation.
            path.write_text(figure.render_svg(), encoding="utf-8",
                            newline="\n")
        elif fmt == "png":
            figure.render_png(path)
        else:
            raise ValueError(f"unknown figure format {fmt!r} (svg | png)")
        written.append(path)
    return written
