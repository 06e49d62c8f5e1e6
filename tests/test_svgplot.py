import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoclass import svgplot
from thermoclass.svgplot import MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, HEIGHT, PALETTE, WIDTH


# Reference: the per-point rendering, one Python call per point, with the
# same chrome.

def _finite(values):
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def _axis_range(values):
    finite = _finite(values)
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Frame:
    def __init__(self, xs, ys):
        self.x0, self.x1 = _axis_range(xs)
        self.y0, self.y1 = _axis_range(ys)

    def px(self, x):
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - MARGIN_T - MARGIN_B)


def _points(frame, xs, ys):
    """(px, py) pixel pairs of the points of equal-length arrays, as Python
    floats."""
    return list(zip(frame.px(xs).tolist(), frame.py(ys).tolist()))


def line_plot_per_point(xs, series, labels, title="", xlabel="", ylabel=""):
    all_y = [y for ys in series for y in ys]
    frame = _Frame(list(xs), all_y)
    parts = svgplot._chrome(frame, title, xlabel, ylabel)
    for i, (ys, label) in enumerate(zip(series, labels)):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{frame.px(x):.1f},{frame.py(y):.1f}"
            for x, y in zip(xs, ys)
            if math.isfinite(y)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16 * (i + 1)}" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_plot_per_point(groups, title="", xlabel="", ylabel=""):
    all_x = [x for xs, _ in groups.values() for x in xs]
    all_y = [y for _, ys in groups.values() for y in ys]
    frame = _Frame(all_x, all_y)
    parts = svgplot._chrome(frame, title, xlabel, ylabel)
    for i, (label, (xs, ys)) in enumerate(groups.items()):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{frame.px(x):.1f}" cy="{frame.py(y):.1f}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16 * (i + 1)}" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_finite_values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, 3.0, 1e-300]))
_values = st.one_of(_finite_values, st.sampled_from([math.nan, math.inf, -math.inf]))
_xs = st.one_of(
    st.lists(_finite_values, max_size=30),
    st.lists(st.integers(-10**6, 10**6), max_size=30),
    st.integers(0, 30).map(lambda n: list(range(0, 10 * n, 10))),
)


@st.composite
def _line_inputs(draw):
    xs = draw(_xs)
    n = len(xs)
    series = draw(st.lists(
        st.one_of(st.lists(_values, min_size=n, max_size=n),
                  _values.map(lambda v: [v] * n)),  # constant series
        min_size=1, max_size=4))
    return xs, series


@settings(max_examples=150, deadline=None)
@given(inputs=_line_inputs())
def test_line_plot_matches_per_point_code(inputs):
    xs, series = inputs
    labels = [f"curve{i}" for i in range(len(series))]
    expected = line_plot_per_point(xs, series, labels, title="t", xlabel="x", ylabel="y")
    assert svgplot.line_plot(xs, series, labels, title="t", xlabel="x", ylabel="y") == expected
    # every pixel keeps its bits, not only its one-decimal text
    frame = svgplot._Frame(svgplot._axis_range(xs), svgplot._axis_range(*series))
    reference = _Frame(list(xs), [y for ys in series for y in ys])
    for ys in series:
        keep = np.isfinite(ys)
        expected_points = [(reference.px(x), reference.py(y)) for x, y in zip(xs, ys) if math.isfinite(y)]
        assert _points(frame, np.asarray(xs, dtype=float)[keep], np.asarray(ys)[keep]) == expected_points
    # arrays in, as the CLI may pass them, give the same bytes
    assert svgplot.line_plot(np.array(xs, dtype=float), [np.array(ys) for ys in series], labels,
                             title="t", xlabel="x", ylabel="y") == expected


@st.composite
def _groups(draw):
    groups = {}
    for label in draw(st.lists(st.sampled_from(["class1", "class2", "c3"]), max_size=3, unique=True)):
        n = draw(st.integers(1, 20))
        groups[label] = (draw(st.lists(_values, min_size=n, max_size=n)),
                         draw(st.lists(_values, min_size=n, max_size=n)))
    return groups


@settings(max_examples=150, deadline=None)
@given(groups=_groups())
def test_scatter_plot_matches_per_point_code(groups):
    assert svgplot.scatter_plot(groups, title="s") == scatter_plot_per_point(groups, title="s")


def test_plot_corner_cases():
    cases = [
        ([2.0], [[5.0]]),                            # a single point
        ([0, 1, 2], [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),  # constant series, integer x
        ([0.0, 1.0], [[math.nan, math.inf]]),        # no finite y at all
        ([], [[]]),                                  # no points
        # non-finite y at both ends and mid-series: those records are zeroed
        ([0, 1, 2, 3, 4], [[math.nan, 1.0, math.inf, 2.0, -math.inf], [1.0, 2.0, 3.0, 4.0, 5.0]]),
    ]
    for xs, series in cases:
        labels = ["a"] * len(series)
        assert svgplot.line_plot(xs, series, labels) == line_plot_per_point(xs, series, labels)
    groups = {"class1": ([1.0], [2.0]), "class2": ([1.0, math.nan], [2.0, 3.0])}
    assert svgplot.scatter_plot(groups) == scatter_plot_per_point(groups)


def _c_tenths(values):
    return [("%.1f" % v).encode() for v in values]


# each k / 10 + 0.05 rounds to a double near a tie of "%.1f"; one ulp either
# side of it lands on both sides of the tie
_near_ties = st.integers(-20000, 20000).flatmap(lambda k: st.sampled_from(
    [math.nextafter(k / 10 + 0.05, -math.inf), k / 10 + 0.05, math.nextafter(k / 10 + 0.05, math.inf)]))
_tenths_values = st.one_of(
    st.integers(-2000, 2000).flatmap(lambda k: st.sampled_from([k + 0.25, k + 0.75])),  # exact ties
    _near_ties,
    st.sampled_from([0.0, -0.0, -0.04, -0.05, 999.9499999999999, 999.95, 1000.0, 1e300, -1e300,
                     5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
    st.floats(0, 1000),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_tenths_values, max_size=40))
def test_tenths_matches_c_formatting(values):
    texts = svgplot._tenths(np.array(values, dtype=float))
    assert texts.dtype.itemsize >= 7
    assert texts.tolist() == _c_tenths(values)


def test_tenths_matches_c_formatting_at_every_table_entry():
    k = np.arange(10000)
    tie = k / 10 + 0.05
    values = np.concatenate([k / 10, np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)])
    # a 2-D array keeps its shape
    assert svgplot._tenths(values.reshape(4, -1)).tolist() == np.array(_c_tenths(values.tolist())).reshape(4, -1).tolist()
