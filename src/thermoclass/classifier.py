"""Binary classification on the steady-state temperature: decision rules,
relaxation-curve and rate-sweep tables, random labeled instances, and a
classical perceptron used to certify that the labeled instances are linearly
separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lindblad, qmat
from .tables import ResultTable

CLASS_HOT = "class1"   # steady temperature at or above the threshold
CLASS_COLD = "class2"

GAMMA_SPACE = "gamma"
TEMPERATURE_SPACE = "temperature"

# the names of the two feature columns of an instance table, per space
_FEATURE_NAMES = {GAMMA_SPACE: ("gamma1", "gamma2"), TEMPERATURE_SPACE: ("t1", "t2")}


@dataclass(frozen=True)
class DecisionRule:
    """Threshold rule: either the per-instance mean of the bath temperatures
    or a fixed value theta.

    With equal coupling rates the steady temperature never falls below the
    instance mean (the mode occupation is convex in temperature), so the
    per-instance-mean rule labels every equal-rate instance hot-side; a fixed
    threshold is the mode that yields a genuine two-class split of the
    temperature plane and is the default throughout the CLI.
    """

    mode: str
    theta: float | None = None

    def __post_init__(self):
        if self.mode not in ("instance_mean", "fixed_threshold"):
            raise ValueError(f"unknown decision rule mode {self.mode!r}")
        if self.mode == "fixed_threshold":
            if self.theta is None or not 0 < self.theta < math.inf:
                raise ValueError(f"fixed_threshold requires a finite theta > 0, got {self.theta}")
        elif self.theta is not None:
            raise ValueError("instance_mean takes no theta")

    @classmethod
    def instance_mean(cls) -> "DecisionRule":
        return cls(mode="instance_mean")

    @classmethod
    def fixed(cls, theta: float) -> "DecisionRule":
        return cls(mode="fixed_threshold", theta=theta)

    def thresholds(self, temperatures: np.ndarray) -> np.ndarray:
        """Threshold of each row of an (n, k) array of bath temperatures."""
        if self.mode == "instance_mean":
            return lindblad.mean_temperatures(temperatures)
        return np.full(len(temperatures), float(self.theta))


@dataclass(frozen=True)
class ClassificationResult:
    steady_temperature: float
    threshold: float
    label: str


def _label(temperatures: np.ndarray, rates: np.ndarray, rule: DecisionRule, omega: float) -> tuple:
    """Steady temperatures, thresholds and hot-side flags of (n, k)
    reservoir sets; the threshold comparison is inclusive on the hot side."""
    t_ss = lindblad.steady_temperatures(temperatures, rates, omega)
    thresholds = rule.thresholds(temperatures)
    return t_ss, thresholds, t_ss >= thresholds


def classify(config: lindblad.SystemConfig, rule: DecisionRule) -> ClassificationResult:
    """Label one reservoir configuration from its closed-form steady temperature."""
    [t_ss], [threshold], [hot] = (values.tolist() for values in _label(
        np.array([config.temperatures]), np.array([config.rates]), rule, config.omega_s
    ))
    return ClassificationResult(steady_temperature=t_ss, threshold=threshold,
                                label=CLASS_HOT if hot else CLASS_COLD)


def thermalization_curves(
    temperatures, rates, t_end: float = 2000.0, dt: float = 0.05, sample_every: float = 1.0, omega: float = 1.0
) -> ResultTable:
    """Integrate n reservoir sets, the rows of (n, k) temperatures and rates
    (see lindblad.evolve_many), together from the ground state (zero
    temperature) on a shared time grid and tabulate the effective
    temperature curves: a record table whose rows are a view of one
    (n_records, 1 + n_curves) float64 block, the time in its column 0."""
    trajectories = lindblad.evolve_many(temperatures, rates, qmat.ground_state(), t_end, dt, sample_every, omega)
    columns = ["time"] + [f"T_S_curve{i + 1}" for i in range(len(trajectories))]
    block = np.column_stack([trajectories[0].times, *(traj.temperatures for traj in trajectories)])
    return ResultTable(columns=columns, rows=block.view([(name, np.float64) for name in columns])[:, 0])


def gamma_sweep(
    t1: float, t2: float, gamma_total: float, n_points: int = 41, omega: float = 1.0
) -> ResultTable:
    """Steady temperature along the rate split Gamma_1 = Gamma/2 + d,
    Gamma_2 = Gamma/2 - d for d across [-Gamma/2, +Gamma/2].

    The endpoints are the single-reservoir limits (one rate exactly zero) and
    are evaluated as such, so they reproduce the bath temperatures exactly.
    """
    if n_points < 3:
        raise ValueError(f"need at least 3 sweep points, got {n_points}")
    # the guards, Gamma > 0 included, once, in the order the sweep meets them: (T2, Gamma) first
    for temperature in (t2, t1):
        lindblad.make_config((temperature,), (gamma_total,), omega)
    deltas = np.linspace(-gamma_total / 2.0, gamma_total / 2.0, n_points)
    rates = np.column_stack((gamma_total / 2.0 + deltas, gamma_total / 2.0 - deltas))
    temps = np.tile((t1, t2), (n_points, 1))
    t_ss = lindblad.steady_temperatures(temps, rates, omega)
    return ResultTable.of_columns({"delta_gamma": deltas, "gamma1": rates[:, 0], "gamma2": rates[:, 1],
                                   "steady_temperature": t_ss})


def generate_instances(
    space: str,
    n: int,
    ranges,
    seed: int,
    rule: DecisionRule,
    fixed,
    omega: float = 1.0,
) -> ResultTable:
    """Draw n uniform feature pairs and label each by its steady temperature;
    returns a record table with one row per instance: the two features
    (gamma1, gamma2 or t1, t2), the steady temperature, the threshold and
    the label (ASCII bytes).

    space="temperature": features are bath temperatures, fixed = the two
    coupling rates; space="gamma": features are coupling rates, fixed = the
    two bath temperatures. ranges is ((lo, hi), (lo, hi)) per feature axis.
    Identical seeds reproduce identical tables bit for bit.
    """
    if n < 1:
        raise ValueError(f"need at least one instance, got n={n}")
    (lo1, hi1), (lo2, hi2) = ranges
    if not (0 <= lo1 < hi1 and 0 <= lo2 < hi2):
        raise ValueError(f"ranges must be positive and increasing, got {ranges}")
    fixed = tuple(float(v) for v in fixed)
    if space == GAMMA_SPACE:
        lindblad.make_config(fixed, (hi1, hi2), omega)
    elif space == TEMPERATURE_SPACE:
        lindblad.make_config((hi1, hi2), fixed, omega)
    else:
        raise ValueError(f"space must be {GAMMA_SPACE!r} or {TEMPERATURE_SPACE!r}, got {space!r}")
    # every instance shares the fixed values and draws its features inside
    # the ranges, so the guards checked above hold for all of them

    rng = np.random.default_rng(seed)
    x1 = rng.uniform(lo1, hi1, n)
    x2 = rng.uniform(lo2, hi2, n)
    features = np.column_stack((x1, x2))
    pinned = np.tile(fixed, (n, 1))
    temps, rates = (pinned, features) if space == GAMMA_SPACE else (features, pinned)
    t_ss, thresholds, hot = _label(temps, rates, rule, omega)
    name1, name2 = _FEATURE_NAMES[space]
    return ResultTable.of_columns({
        name1: x1, name2: x2, "steady_temperature": t_ss, "threshold": thresholds,
        "label": np.where(hot, CLASS_HOT.encode(), CLASS_COLD.encode()),
    })


def step(y: float) -> float:
    """Step activation: +-1 with the tie at zero resolved to +1."""
    return 1.0 if y >= 0 else -1.0


@dataclass(frozen=True)
class Perceptron:
    """Linear threshold unit f(w . x + b) in raw feature coordinates."""

    weights: tuple
    bias: float

    def score(self, features) -> float:
        return float(np.dot(self.weights, features) + self.bias)

    def predict(self, features) -> float:
        return step(self.score(features))


@dataclass(frozen=True)
class NotSeparable:
    """Returned when the training loop exhausts its epoch budget with
    misclassified points remaining: `errors` is the count of the last
    epoch."""

    epochs: int
    errors: int


_LABEL_SIGN = {CLASS_HOT: 1.0, CLASS_COLD: -1.0}


def perceptron_fit(features, labels, max_epochs: int = 1000) -> Perceptron | NotSeparable:
    """Rosenblatt training on an (n, d) feature array and the n class names
    (CLASS_HOT or CLASS_COLD) of its rows, until zero training error.

    Features are standardized to zero mean and unit variance internally
    (raw rate and temperature scales differ by two orders of magnitude and
    stall convergence); the returned weights are mapped back to raw feature
    coordinates and re-verified there. A set containing a single label is
    trivially separable and short-circuits to a constant-side hyperplane.

    An epoch is a fixed map of the state (w, b) it starts from, so once an
    epoch starts from a state that an earlier one started from, training
    cycles for ever: the loop stops there and returns the NotSeparable that
    the full epoch budget would give, with the error count of the cycle's
    epoch that falls on max_epochs.
    """
    x = np.array(features, dtype=float)
    if x.ndim != 2 or len(x) < 2:
        raise ValueError(f"need an (n, d) feature array of at least two points, got shape {x.shape}")
    if len(labels) != len(x):
        raise ValueError(f"{len(x)} feature rows but {len(labels)} labels")
    signs = [_LABEL_SIGN.get(label) for label in labels]
    if None in signs:
        raise ValueError(
            f"labels must be {CLASS_HOT!r} or {CLASS_COLD!r}, got {labels[signs.index(None)]!r}"
        )
    y = np.array(signs)

    if np.all(y == y[0]):
        return Perceptron(weights=(0.0,) * x.shape[1], bias=float(y[0]))

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (x - mean) / std

    w = np.zeros(x.shape[1])
    b = 0.0
    errors = len(x)
    started = {}  # the state each epoch started from -> the epoch's index in counts
    counts = []  # the error count of each epoch so far
    for _ in range(max_epochs):
        state = (w.tobytes(), b)
        if state in started:
            # the epochs from counts[first] on repeat for ever: pick the budget's last
            first = started[state]
            last = first + (max_epochs - 1 - first) % (len(counts) - first)
            return NotSeparable(epochs=max_epochs, errors=counts[last])
        started[state] = len(counts)
        errors = 0
        for xi, yi in zip(xs, y):
            if step(float(w @ xi + b)) != yi:
                w += yi * xi
                b += yi
                errors += 1
        if errors == 0:
            raw_w = w / std
            raw_b = float(b - np.sum(w * mean / std))
            fitted = Perceptron(weights=tuple(raw_w), bias=raw_b)
            # the raw-space check can only fail on exact-zero score ties
            if all(fitted.predict(xi) == yi for xi, yi in zip(x, y)):
                return fitted
            errors = 1
        counts.append(errors)
    return NotSeparable(epochs=max_epochs, errors=errors)
