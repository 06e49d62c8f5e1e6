"""Minimal static SVG rendering: axes, ticks, polylines and scatter markers.
Figures are derived artifacts here; the CSV tables stay the source of truth.

Coordinates are mapped to pixels as numpy arrays, all series of a plot at
once. Every pixel is written as "%.1f" by _tenths: a value in [0, 1000)
whose tenfold is more than 1e-6 from a tie is looked up, by the nearest
integer of that tenfold, in a table of the texts 0.0 ... 999.9; every other
value goes through C's "%". The points are then laid out as fixed-width
byte records (a polyline's x text, ",", y text and space, or a marker's
whole <circle> element), the records of a left-out point are zeroed, and
one bytes.translate drops the padding. So a plot costs a few array
operations rather than Python calls per point.
"""

from __future__ import annotations

import numpy as np

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


_TENTHS = None  # "S7" texts of 0.0 ... 999.9, built on first use


def _tenths_table() -> np.ndarray:
    """The "%.1f" texts of k / 10 for k in 0 ... 9999, indexed by k."""
    table = np.zeros((10000, 7), dtype=np.uint8)
    for start, stop, width in ((0, 100, 1), (100, 1000, 2), (1000, 10000, 3)):
        k, rows = np.arange(start, stop), table[start:stop]
        for j in range(width):  # the integer digits, units first
            rows[:, width - 1 - j] = k // 10 ** (j + 1) % 10 + ord("0")
        rows[:, width] = ord(".")
        rows[:, width + 1] = k % 10 + ord("0")
    return table.view("S7")[:, 0]


def _tenths(values: np.ndarray) -> np.ndarray:
    """The "%.1f" texts of a float64 array, NUL-padded in a bytes array of
    its shape, at least 7 bytes wide.

    For 0 <= v, m = 10 v is rounded once, by at most 1e-12 below 1e4, so
    where m is more than 1e-6 from a tie, rint(m) is the nearest integer to
    the exact 10 v, the digits C writes. Such a value below 999.95 is looked
    up in the table; every other one (ties, negatives and -0.0, 999.95 and
    up, infinities and NaNs) is written by C's "%"."""
    global _TENTHS
    if _TENTHS is None:
        _TENTHS = _tenths_table()
    with np.errstate(over="ignore", invalid="ignore"):  # infinities and NaNs fail the test
        scaled = values * 10.0
        whole = np.rint(scaled)
        fast = ~np.signbit(values) & (whole < 10000) & (np.abs(scaled - whole) < 0.5 - 1e-6)
    slow = ~fast
    texts = ("%.1f " * np.count_nonzero(slow) % tuple(values[slow].tolist())).split(" ")[:-1]
    slow_texts = np.array(texts, dtype=bytes)
    out = np.empty(values.shape, dtype=f"S{max(7, slow_texts.itemsize)}")
    out[fast] = _TENTHS[whole[fast].astype(np.intp)]
    out[slow] = slow_texts
    return out


def _records(*fields) -> np.ndarray:
    """One fixed-width byte record per point: the fields are bytes constants
    and arrays of texts, broadcast against each other."""
    fields = [np.asarray(field) for field in fields]
    records = np.empty(np.broadcast_shapes(*(field.shape for field in fields)),
                       dtype=[(f"f{i}", field.dtype) for i, field in enumerate(fields)])
    for i, field in enumerate(fields):
        records[f"f{i}"] = field
    return records


def _text(records: np.ndarray) -> str:
    """The records' bytes without their NUL padding."""
    return records.tobytes().translate(None, b"\0").decode("ascii")


def line_plot(xs, series, labels, title="", xlabel="", ylabel="") -> str:
    """Polyline plot of one or more y-series, each with one y per x, against
    a shared x axis; points whose y is not finite are left out."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(series, dtype=float).reshape(len(series), len(xs))
    frame = _Frame(_axis_range(xs), _axis_range(ys))
    parts = _chrome(frame, title, xlabel, ylabel)
    records = _records(_tenths(frame.px(xs)), b",", _tenths(frame.py(ys)), b" ")
    records[~np.isfinite(ys)] = np.zeros((), records.dtype)
    for i, (points, label) in enumerate(zip(records, labels)):
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<polyline points="{_text(points)[:-1]}" fill="none" stroke="{color}" stroke-width="1.5"/>')
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
        if len(xs):
            parts.append(_text(_records(b'<circle cx="', _tenths(frame.px(xs)), b'" cy="', _tenths(frame.py(ys)),
                                        f'" r="4" fill="{color}"/>\n'.encode())).removesuffix("\n"))
        parts.append(_legend(i, label, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
