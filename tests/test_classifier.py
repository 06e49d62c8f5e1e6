import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoclass import lindblad
from thermoclass.classifier import (
    CLASS_COLD,
    CLASS_HOT,
    GAMMA_SPACE,
    TEMPERATURE_SPACE,
    DecisionRule,
    NotSeparable,
    Perceptron,
    classify,
    gamma_sweep,
    generate_instances,
    perceptron_fit,
    step,
    thermalization_curves,
)


def test_decision_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule(mode="nearest")
    with pytest.raises(ValueError):
        DecisionRule.fixed(-1.0)
    with pytest.raises(ValueError):
        DecisionRule(mode="instance_mean", theta=2.0)
    with pytest.raises(ValueError):
        DecisionRule(mode="fixed_threshold")
    for theta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            DecisionRule.fixed(theta)


def test_classify_hot_weighted_pair():
    result = classify(lindblad.make_config((3.0, 1.0), (0.1, 0.05)), DecisionRule.instance_mean())
    assert result.threshold == 2.0
    assert result.steady_temperature == pytest.approx(2.3436942, abs=1e-6)
    assert result.label == CLASS_HOT


def test_classify_cold_weighted_pair():
    result = classify(lindblad.make_config((3.0, 1.0), (0.05, 0.1)), DecisionRule.instance_mean())
    assert result.steady_temperature == pytest.approx(1.6812845, abs=1e-6)
    assert result.steady_temperature < 2.0
    assert result.label == CLASS_COLD


def test_classify_single_bath_boundary_is_inclusive():
    result = classify(lindblad.make_config((2.5,), (0.05,)), DecisionRule.instance_mean())
    assert result.steady_temperature == pytest.approx(result.threshold, abs=1e-12)
    assert result.label == CLASS_HOT


def test_classify_fixed_threshold_examples():
    rule = DecisionRule.fixed(3.0)
    hot = classify(lindblad.make_config((5.0, 4.0), (0.02, 0.02)), rule)
    cold = classify(lindblad.make_config((1.0, 2.0), (0.02, 0.02)), rule)
    assert hot.label == CLASS_HOT and hot.threshold == 3.0
    assert cold.label == CLASS_COLD


def test_thermalization_curves_table():
    configs = [
        lindblad.make_config((3.0, 1.0), rates) for rates in ((0.1, 0.1), (0.1, 0.05), (0.05, 0.1))
    ]
    table = thermalization_curves(configs, t_end=300.0, dt=0.05)
    assert table.columns == ["time", "T_S_curve1", "T_S_curve2", "T_S_curve3"]
    assert table.rows[0, 1:].tolist() == [0.0, 0.0, 0.0]
    finals = table.rows[-1]
    assert finals[1] == pytest.approx(2.0136362, abs=1e-3)
    assert finals[2] == pytest.approx(2.3436942, abs=1e-3)
    assert finals[3] == pytest.approx(1.6812845, abs=1e-3)


def test_gamma_sweep_endpoints_and_monotonicity():
    table = gamma_sweep(3.0, 1.0, 0.08, n_points=41)
    temps = table.column("steady_temperature")
    assert abs(temps[-1] - 3.0) <= 1e-9
    assert abs(temps[0] - 1.0) <= 1e-9
    assert all(b > a for a, b in zip(temps, temps[1:]))
    mid = temps[20]
    assert mid == pytest.approx(2.0136362, abs=1e-6)


def test_gamma_sweep_validation():
    with pytest.raises(ValueError):
        gamma_sweep(3.0, 1.0, 0.08, n_points=2)
    with pytest.raises(ValueError):
        gamma_sweep(3.0, 1.0, 0.0)


def test_generate_instances_deterministic():
    args = dict(
        space=TEMPERATURE_SPACE, n=12, ranges=((0.5, 5.5), (0.5, 5.5)), seed=42,
        rule=DecisionRule.fixed(3.0), fixed=(0.02, 0.02),
    )
    assert generate_instances(**args) == generate_instances(**args)
    shifted = generate_instances(**{**args, "seed": 43})
    assert shifted != generate_instances(**args)


def test_generate_instances_validation():
    rule = DecisionRule.fixed(3.0)
    with pytest.raises(ValueError):
        generate_instances(TEMPERATURE_SPACE, 0, ((0.5, 5.5), (0.5, 5.5)), 1, rule, (0.02, 0.02))
    with pytest.raises(ValueError, match="weak-coupling"):
        generate_instances(GAMMA_SPACE, 5, ((0.01, 0.5), (0.01, 0.5)), 1, rule, (3.0, 1.0))
    with pytest.raises(ValueError, match="space"):
        generate_instances("rates", 5, ((0.01, 0.1), (0.01, 0.1)), 1, rule, (3.0, 1.0))


def test_generate_instances_labels_match_direct_classification():
    rule = DecisionRule.fixed(3.0)
    table = generate_instances(
        TEMPERATURE_SPACE, 10, ((0.5, 5.5), (0.5, 5.5)), 7, rule, (0.02, 0.02)
    )
    for t1, t2, t_ss, threshold, label in table.rows:
        direct = classify(lindblad.make_config((t1, t2), (0.02, 0.02)), rule)
        assert (t_ss, threshold, label) == (direct.steady_temperature, direct.threshold, direct.label)
    # rate space: the instance-mean threshold is the mean of the fixed temperatures
    rule = DecisionRule.instance_mean()
    table = generate_instances(GAMMA_SPACE, 10, ((0.005, 0.1), (0.005, 0.1)), 7, rule, (3.0, 1.0))
    for gamma1, gamma2, t_ss, threshold, label in table.rows:
        direct = classify(lindblad.make_config((3.0, 1.0), (gamma1, gamma2)), rule)
        assert (t_ss, threshold, label) == (direct.steady_temperature, 2.0, direct.label)


# (space, ranges, rule, fixed): both spaces under both rules. Temperature
# space under instance_mean has a threshold that varies by row; gamma space
# with two equal fixed temperatures has T_ss == threshold on every row.
INSTANCE_CASES = [
    (TEMPERATURE_SPACE, ((0.5, 5.5), (0.5, 5.5)), DecisionRule.fixed(3.0), (0.02, 0.02)),
    (TEMPERATURE_SPACE, ((0.5, 5.5), (1.0, 2.0)), DecisionRule.instance_mean(), (0.03, 0.01)),
    (GAMMA_SPACE, ((0.005, 0.1), (0.005, 0.1)), DecisionRule.instance_mean(), (3.0, 1.0)),
    (GAMMA_SPACE, ((0.005, 0.1), (0.005, 0.1)), DecisionRule.fixed(2.2), (3.0, 1.0)),
    (GAMMA_SPACE, ((0.005, 0.1), (0.005, 0.1)), DecisionRule.instance_mean(), (2.5, 2.5)),
]


@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("space, ranges, rule, fixed", INSTANCE_CASES)
def test_generate_instances_equals_points_built_one_at_a_time(space, ranges, rule, fixed, n):
    table = generate_instances(space, n, ranges, 11, rule, fixed)
    rng = np.random.default_rng(11)
    x = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in ranges])
    pinned = np.tile(fixed, (n, 1))
    temps, rates = (pinned, x) if space == GAMMA_SPACE else (x, pinned)
    t_ss = lindblad.steady_temperatures(temps, rates, 1.0).tolist()
    thresholds = rule.thresholds(temps).tolist()
    expected = []
    for i in range(n):
        label = CLASS_HOT if t_ss[i] >= thresholds[i] else CLASS_COLD
        expected.append((*x[i].tolist(), t_ss[i], thresholds[i], label))
    names = ("gamma1", "gamma2") if space == GAMMA_SPACE else ("t1", "t2")
    assert table.columns == [*names, "steady_temperature", "threshold", "label"]
    assert table.rows == expected
    # plain Python cells: render_csv picks each column's format from its type
    assert all(list(map(type, row)) == [float] * 4 + [str] for row in table.rows)


def test_instances_at_the_threshold_are_labeled_hot():
    # equal bath temperatures: the steady temperature is exactly their value
    table = generate_instances(GAMMA_SPACE, 3, ((0.005, 0.1), (0.005, 0.1)), 5,
                               DecisionRule.instance_mean(), (2.5, 2.5))
    assert [row[2:] for row in table.rows] == [(2.5, 2.5, CLASS_HOT)] * 3
    table = generate_instances(GAMMA_SPACE, 3, ((0.005, 0.1), (0.005, 0.1)), 5,
                               DecisionRule.fixed(2.5), (2.5, 2.5))
    assert [row[2:] for row in table.rows] == [(2.5, 2.5, CLASS_HOT)] * 3


def test_labels_invariant_under_rate_rescaling():
    rng = np.random.default_rng(14)
    rule = DecisionRule.instance_mean()
    for _ in range(25):
        temps = rng.uniform(0.5, 5.0, 2)
        rates = rng.uniform(0.005, 0.05, 2)
        base = classify(lindblad.make_config(temps, rates), rule)
        scaled = classify(lindblad.make_config(temps, 2.5 * rates), rule)
        assert base.label == scaled.label
        assert abs(base.steady_temperature - scaled.steady_temperature) <= 1e-12


def test_activation():
    assert step(0.0) == 1.0
    assert step(-0.3) == -1.0
    assert step(0.7) == 1.0


def test_perceptron_two_points():
    fitted = perceptron_fit([(1.0, 2.0), (4.0, 0.5)], [CLASS_HOT, CLASS_COLD])
    assert isinstance(fitted, Perceptron)
    assert fitted.predict((1.0, 2.0)) == 1.0
    assert fitted.predict((4.0, 0.5)) == -1.0


def test_perceptron_xor_not_separable():
    result = perceptron_fit([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)],
                            [CLASS_COLD, CLASS_HOT, CLASS_HOT, CLASS_COLD], max_epochs=500)
    assert isinstance(result, NotSeparable)
    assert result.epochs == 500
    assert result.errors == 4


def _perceptron_fit_full_budget(features, labels, max_epochs):
    """perceptron_fit as a loop that runs every epoch of its budget."""
    x = np.array(features, dtype=float)
    y = np.array([1.0 if label == CLASS_HOT else -1.0 for label in labels])
    if np.all(y == y[0]):
        return Perceptron(weights=(0.0,) * x.shape[1], bias=float(y[0]))
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (x - mean) / std
    w = np.zeros(x.shape[1])
    b = 0.0
    errors = len(x)
    for _ in range(max_epochs):
        errors = 0
        for xi, yi in zip(xs, y):
            if step(float(w @ xi + b)) != yi:
                w += yi * xi
                b += yi
                errors += 1
        if errors == 0:
            fitted = Perceptron(weights=tuple(w / std), bias=float(b - np.sum(w * mean / std)))
            if all(fitted.predict(xi) == yi for xi, yi in zip(x, y)):
                return fitted
            errors = 1
    return NotSeparable(epochs=max_epochs, errors=errors)


_grid = st.sampled_from((0.0, 0.1, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_grid, _grid, st.booleans()), min_size=2, max_size=7),
       max_epochs=st.one_of(st.integers(1, 3), st.integers(4, 60)))
# duplicates with opposite labels: XOR-like, never separable
@example(points=[(1.0, 1.0, True), (1.0, 1.0, False), (0.0, 2.0, True)], max_epochs=2)
# collinear points labeled +, -, +
@example(points=[(0.0, 0.0, True), (1.0, 1.0, False), (2.0, 2.0, True)], max_epochs=60)
# a zero-error epoch whose raw-space check fails on a score tie: a cycle of period 1
@example(points=[(3.0, 1.0 / 3.0, True), (3.0, 2.0, False)], max_epochs=3)
def test_perceptron_cycle_stop_gives_the_full_budget_result(points, max_epochs):
    features = [(x1, x2) for x1, x2, _ in points]
    labels = [CLASS_HOT if hot else CLASS_COLD for _, _, hot in points]
    fitted = perceptron_fit(features, labels, max_epochs)
    expected = _perceptron_fit_full_budget(features, labels, max_epochs)
    assert type(fitted) is type(expected)
    if isinstance(expected, Perceptron):
        assert np.array(fitted.weights).tobytes() == np.array(expected.weights).tobytes()
        assert np.array(fitted.bias).tobytes() == np.array(expected.bias).tobytes()
    else:
        assert fitted == expected


def test_perceptron_single_label_short_circuit():
    features = [(1.0, 1.0), (2.0, 3.0)]
    fitted = perceptron_fit(features, [CLASS_HOT, CLASS_HOT])
    assert isinstance(fitted, Perceptron)
    assert all(fitted.predict(x) == 1.0 for x in features)


@pytest.mark.parametrize("features, labels, message", [
    ([(1.0, 1.0)], [CLASS_HOT], "at least two points"),
    ([], [], "at least two points"),
    ([1.0, 2.0], [CLASS_HOT, CLASS_COLD], "at least two points"),
    ([(1.0, 1.0), (2.0, 3.0)], [CLASS_HOT], "2 feature rows but 1 labels"),
    ([(1.0, 1.0), (2.0, 3.0)], [CLASS_HOT, "class3"], "'class3'"),
    ([(1.0, 1.0), (2.0, 3.0)], [CLASS_HOT, 1.0], "got 1.0"),
])
def test_perceptron_fit_validation(features, labels, message):
    with pytest.raises(ValueError, match=message) as info:
        perceptron_fit(features, labels)
    assert "\n" not in str(info.value)


def test_perceptron_separates_labeled_temperature_instances():
    table = generate_instances(
        TEMPERATURE_SPACE, 20, ((0.5, 5.5), (0.5, 5.5)), 42,
        DecisionRule.fixed(3.0), (0.02, 0.02),
    )
    features = [row[:2] for row in table.rows]
    labels = table.column("label")
    assert set(labels) == {CLASS_HOT, CLASS_COLD}
    fitted = perceptron_fit(features, labels, max_epochs=1000)
    assert isinstance(fitted, Perceptron)
    assert fitted == _perceptron_fit_full_budget(features, labels, 1000)
    for x, label in zip(features, labels):
        assert fitted.predict(x) == (1.0 if label == CLASS_HOT else -1.0)


def test_perceptron_fit_takes_lists_and_arrays_alike():
    table = generate_instances(
        TEMPERATURE_SPACE, 20, ((0.5, 5.5), (0.5, 5.5)), 42,
        DecisionRule.fixed(3.0), (0.02, 0.02),
    )
    labels = table.column("label")
    rows = [row[:2] for row in table.rows]
    fitted = perceptron_fit(rows, labels)
    assert isinstance(fitted, Perceptron)
    assert perceptron_fit(np.array(rows), np.array(labels)) == fitted
    assert perceptron_fit(list(map(list, rows)), tuple(labels)) == fitted


def test_perceptron_recovers_random_separable_sets():
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = rng.normal(size=2)
        b = rng.normal()
        x = rng.uniform(-3, 3, size=(30, 2))
        scores = x @ w + b
        keep = np.abs(scores) > 0.05  # leave a margin so separability is clear
        labels = [CLASS_HOT if s > 0 else CLASS_COLD for s in scores[keep]]
        if len(set(labels)) < 2:
            continue
        fitted = perceptron_fit(x[keep], labels, max_epochs=2000)
        assert isinstance(fitted, Perceptron)
        for xi, label in zip(x[keep], labels):
            assert fitted.predict(xi) == (1.0 if label == CLASS_HOT else -1.0)
