import numpy as np
import pytest

from thermoclass import lindblad
from thermoclass.classifier import (
    CLASS_COLD,
    CLASS_HOT,
    GAMMA_SPACE,
    TEMPERATURE_SPACE,
    DecisionRule,
    LabeledPoint,
    NotSeparable,
    Perceptron,
    classify,
    gamma_sweep,
    generate_instances,
    instances_table,
    perceptron_fit,
    step,
    thermalization_curves,
)
from thermoclass.tables import ResultTable, render_csv


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
    for make in (generate_instances, instances_table):
        with pytest.raises(ValueError):
            make(TEMPERATURE_SPACE, 0, ((0.5, 5.5), (0.5, 5.5)), 1, rule, (0.02, 0.02))
        with pytest.raises(ValueError, match="weak-coupling"):
            make(GAMMA_SPACE, 5, ((0.01, 0.5), (0.01, 0.5)), 1, rule, (3.0, 1.0))
        with pytest.raises(ValueError, match="space"):
            make("rates", 5, ((0.01, 0.1), (0.01, 0.1)), 1, rule, (3.0, 1.0))


def test_generate_instances_labels_match_direct_classification():
    rule = DecisionRule.fixed(3.0)
    points = generate_instances(
        TEMPERATURE_SPACE, 10, ((0.5, 5.5), (0.5, 5.5)), 7, rule, (0.02, 0.02)
    )
    for p in points:
        direct = classify(lindblad.make_config(p.features, (0.02, 0.02)), rule)
        assert p.label == direct.label
        assert p.steady_temperature == direct.steady_temperature
        assert p.threshold == direct.threshold
    # rate space: the instance-mean threshold is the mean of the fixed temperatures
    rule = DecisionRule.instance_mean()
    points = generate_instances(GAMMA_SPACE, 10, ((0.005, 0.1), (0.005, 0.1)), 7, rule, (3.0, 1.0))
    for p in points:
        direct = classify(lindblad.make_config((3.0, 1.0), p.features), rule)
        assert (p.steady_temperature, p.threshold, p.label) == (
            direct.steady_temperature, 2.0, direct.label
        )


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
def test_instances_table_renders_the_points_of_generate_instances(space, ranges, rule, fixed, n):
    args = (space, n, ranges, 11, rule, fixed)
    points = generate_instances(*args)
    table = instances_table(*args)
    names = ("gamma1", "gamma2") if space == GAMMA_SPACE else ("t1", "t2")
    expected = ResultTable(
        columns=[*names, "steady_temperature", "threshold", "label"],
        rows=[(*features, t_ss, threshold, label) for features, t_ss, label, threshold in points],
    )
    assert table.columns == expected.columns
    # line by line: pytest's diff of two long unequal strings takes minutes
    assert render_csv(table).splitlines() == render_csv(expected).splitlines()


@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("space, ranges, rule, fixed", INSTANCE_CASES)
def test_generate_instances_equals_points_built_one_at_a_time(space, ranges, rule, fixed, n):
    points = generate_instances(space, n, ranges, 11, rule, fixed)
    rng = np.random.default_rng(11)
    x = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in ranges])
    pinned = np.tile(fixed, (n, 1))
    temps, rates = (pinned, x) if space == GAMMA_SPACE else (x, pinned)
    t_ss = lindblad.steady_temperatures(temps, rates, 1.0).tolist()
    thresholds = rule.thresholds(temps).tolist()
    expected = []
    for i in range(n):
        label = CLASS_HOT if t_ss[i] >= thresholds[i] else CLASS_COLD
        expected.append(LabeledPoint(tuple(x[i].tolist()), t_ss[i], label, thresholds[i]))
    assert points == expected
    assert all(type(p) is LabeledPoint and type(p.label) is str for p in points)


def test_instances_at_the_threshold_are_labeled_hot():
    # equal bath temperatures: the steady temperature is exactly their value
    table = instances_table(GAMMA_SPACE, 3, ((0.005, 0.1), (0.005, 0.1)), 5,
                            DecisionRule.instance_mean(), (2.5, 2.5))
    assert [row[2:] for row in table.rows] == [(2.5, 2.5, CLASS_HOT)] * 3
    table = instances_table(GAMMA_SPACE, 3, ((0.005, 0.1), (0.005, 0.1)), 5,
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
    points = [
        LabeledPoint((1.0, 2.0), 2.5, CLASS_HOT),
        LabeledPoint((4.0, 0.5), 1.5, CLASS_COLD),
    ]
    fitted = perceptron_fit(points)
    assert isinstance(fitted, Perceptron)
    assert fitted.predict((1.0, 2.0)) == 1.0
    assert fitted.predict((4.0, 0.5)) == -1.0


def test_perceptron_xor_not_separable():
    points = [
        LabeledPoint((0.0, 0.0), 0.0, CLASS_COLD),
        LabeledPoint((0.0, 1.0), 0.0, CLASS_HOT),
        LabeledPoint((1.0, 0.0), 0.0, CLASS_HOT),
        LabeledPoint((1.0, 1.0), 0.0, CLASS_COLD),
    ]
    result = perceptron_fit(points, max_epochs=500)
    assert isinstance(result, NotSeparable)
    assert result.epochs == 500


def test_perceptron_single_label_short_circuit():
    points = [
        LabeledPoint((1.0, 1.0), 4.0, CLASS_HOT),
        LabeledPoint((2.0, 3.0), 5.0, CLASS_HOT),
    ]
    fitted = perceptron_fit(points)
    assert isinstance(fitted, Perceptron)
    assert all(fitted.predict(p.features) == 1.0 for p in points)
    with pytest.raises(ValueError):
        perceptron_fit(points[:1])


def test_perceptron_separates_labeled_temperature_instances():
    points = generate_instances(
        TEMPERATURE_SPACE, 20, ((0.5, 5.5), (0.5, 5.5)), 42,
        DecisionRule.fixed(3.0), (0.02, 0.02),
    )
    assert {p.label for p in points} == {CLASS_HOT, CLASS_COLD}
    fitted = perceptron_fit(points, max_epochs=1000)
    assert isinstance(fitted, Perceptron)
    for p in points:
        expected = 1.0 if p.label == CLASS_HOT else -1.0
        assert fitted.predict(p.features) == expected


def test_perceptron_recovers_random_separable_sets():
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = rng.normal(size=2)
        b = rng.normal()
        x = rng.uniform(-3, 3, size=(30, 2))
        scores = x @ w + b
        keep = np.abs(scores) > 0.05  # leave a margin so separability is clear
        points = [
            LabeledPoint(tuple(xi), 0.0, CLASS_HOT if s > 0 else CLASS_COLD)
            for xi, s in zip(x[keep], scores[keep])
        ]
        if len({p.label for p in points}) < 2:
            continue
        fitted = perceptron_fit(points, max_epochs=2000)
        assert isinstance(fitted, Perceptron)
        for p in points:
            assert fitted.predict(p.features) == (1.0 if p.label == CLASS_HOT else -1.0)
