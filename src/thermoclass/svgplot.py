"""Minimal static SVG rendering: axes, ticks, polylines and scatter markers.
Figures are derived artifacts here; the CSV tables stay the source of truth.

Coordinates are mapped to pixels as numpy arrays. A scatter plot writes each
marker through one printf-style template. A line plot formats the shared x
pixels, and each series' y pixels, once per distinct value with
tables.format_array (converged curves repeat a few values many times), and
builds each polyline by concatenating object arrays of these texts. So a plot
costs a few array operations per series rather than Python calls per point.
"""

from __future__ import annotations

import numpy as np

from .tables import format_array

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 36, 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _finite(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values[np.isfinite(values)]


def _axis_range(*arrays):
    """Padded (lo, hi) over the finite values of all arrays, taken one array
    at a time so that no concatenation is built."""
    finite = [a for a in map(_finite, arrays) if a.size]
    if not finite:
        return 0.0, 1.0
    lo = min(float(a.min()) for a in finite)
    hi = max(float(a.max()) for a in finite)
    if lo == hi:
        # 1 where a tenth of |lo| is 0, as for lo = 0 or a subnormal lo
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Frame:
    """Data-to-pixel mapping; px and py take numbers or numpy arrays and
    evaluate the same operations in the same order on either."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def px(self, x):
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - MARGIN_T - MARGIN_B)

    def points(self, xs, ys) -> list:
        """(px, py) pixel pairs of the points of equal-length arrays, as
        Python floats."""
        return list(zip(self.px(xs).tolist(), self.py(ys).tolist()))


def _ticks(lo, hi, count=5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _chrome(frame, title, xlabel, ylabel):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{ylabel}</text>',
    ]
    for tx in _ticks(frame.x0, frame.x1):
        px = frame.px(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.1f}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(frame.y0, frame.y1):
        py = frame.py(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end">{ty:.4g}</text>')
    return parts


def _legend(i, label, color) -> str:
    return (f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16 * (i + 1)}" '
            f'text-anchor="end" fill="{color}">{label}</text>')


def line_plot(xs, series, labels, title="", xlabel="", ylabel="") -> str:
    """Polyline plot of one or more y-series, each with one y per x, against
    a shared x axis; points whose y is not finite are left out."""
    xs = np.asarray(xs, dtype=float)
    series = [np.asarray(ys, dtype=float) for ys in series]
    frame = _Frame(_axis_range(xs), _axis_range(*series))
    parts = _chrome(frame, title, xlabel, ylabel)
    x_texts = format_array(frame.px(xs), "%.1f,")
    for i, (ys, label) in enumerate(zip(series, labels)):
        color = PALETTE[i % len(PALETTE)]
        keep = np.isfinite(ys)
        points = " ".join((x_texts[keep] + format_array(frame.py(ys[keep]), "%.1f")).tolist())
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(_legend(i, label, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_plot(groups, title="", xlabel="", ylabel="") -> str:
    """Scatter plot of {label: (xs, ys)} groups, one color per label."""
    groups = {label: (np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, (xs, ys) in groups.items()}
    frame = _Frame(_axis_range(*(xs for xs, _ in groups.values())),
                   _axis_range(*(ys for _, ys in groups.values())))
    parts = _chrome(frame, title, xlabel, ylabel)
    for i, (label, (xs, ys)) in enumerate(groups.items()):
        color = PALETTE[i % len(PALETTE)]
        marker = f'<circle cx="%.1f" cy="%.1f" r="4" fill="{color}"/>'
        parts.extend(map(marker.__mod__, frame.points(xs, ys)))
        parts.append(_legend(i, label, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
