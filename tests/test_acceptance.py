"""Top-level verification criteria, one test per criterion. Each prints its
pass/fail line (visible with pytest -s; also emitted by `thermoclass verify`).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import steady_state
from thermoclass import acceptance, channel, classifier, collisions, lindblad, qmat


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_ode_matches_analytic_steady_state():
    _check(acceptance.check_ode_matches_analytic())


def test_criterion_1_runs_every_trajectory_to_t_end(monkeypatch):
    # the arrays that criterion 1 integrates, caught on their way in
    evolve_many, runs = lindblad.evolve_many, []

    def recorded(temperatures, rates, *args, **kwargs):
        runs.append((temperatures.copy(), rates.copy(), evolve_many(temperatures, rates, *args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(lindblad, "evolve_many", recorded)
    assert acceptance.check_ode_matches_analytic().passed
    [(temps, rates, trajs)] = runs
    assert temps.shape == rates.shape == (100, 4) and len(trajs) == 100
    counts = (rates > 0).sum(axis=1).tolist()
    assert sorted(set(counts)) == [1, 2, 3, 4]
    for t, g, k, traj in zip(temps.tolist(), rates.tolist(), counts, trajs):
        # each set's baths fill its first k columns, and its padding is exactly 0
        assert min(g[:k]) > 0 and t[k:] == g[k:] == [0.0] * (4 - k)
        assert traj.times[-1] == 4000.0
        assert qmat.trace_distance(traj.final_state, steady_state(lindblad.make_config(t[:k], g[:k]))) < 1e-12


def test_criterion_2_relaxation_curve_asymptotes():
    _check(acceptance.check_relaxation_curves())


def test_criterion_2_records_every_100_time_units_and_ends_on_the_dense_run(monkeypatch):
    # the curves that criterion 2 reads, caught with their arguments
    thermalization_curves, runs = classifier.thermalization_curves, []

    def recorded(*args, **kwargs):
        runs.append((args, kwargs, thermalization_curves(*args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(classifier, "thermalization_curves", recorded)
    assert acceptance.check_relaxation_curves().passed
    [(args, kwargs, sparse)] = runs
    assert kwargs["sample_every"] == 100.0 and len(sparse.rows) == 21
    dense = thermalization_curves(*args, **{**kwargs, "sample_every": 1.0})
    assert len(dense.rows) == 2001 and sparse.rows[-1]["time"] == dense.rows[-1]["time"] == 2000.0
    finals = np.array(sparse.rows[-1].tolist()[1:])
    assert np.abs(finals - dense.rows[-1].tolist()[1:]).max() <= 1e-14
    assert sparse.rows[0].tolist()[1:] == (0.0, 0.0, 0.0)


def test_criterion_3_rate_sweep_shape():
    _check(acceptance.check_rate_sweep())


def test_criterion_4_collision_homogenization():
    _check(acceptance.check_homogenization())


def test_criterion_5_collision_vs_continuous_crosscheck():
    _check(acceptance.check_collision_crosscheck())


def test_criterion_6_linear_separability():
    _check(acceptance.check_separability())


def test_criterion_7_hardware_timing_budget():
    _check(acceptance.check_hardware_budget())


def test_criterion_8_structural_properties():
    _check(acceptance.check_core_properties())


def _one_reservoir_maps(temps, coupling=0.05):
    """The collision maps of one-reservoir runs at the given temperatures, (c, 4, 4)."""
    return collisions._collision_maps(1.0, coupling, 1.0, np.array(temps, dtype=float)[:, None])[:, 0]


def _below(states, temps):
    """Whether each state of an (n + 1, len(temps), 4) run is within 1e-3 of
    the Gibbs state at its temperature."""
    targets = channel.to_coords(qmat.qubit_thermal_state(1.0, temps))
    return channel.trace_distances(states - targets) < 1e-3


# n a multiple of the stride (6084 = 78^2), not a multiple (criterion 4's
# own 6000 / 78), below the stride, and one collision
@pytest.mark.parametrize("n, stride", [(6084, 78), (6000, 78), (5, 9), (1, 1), (1, 4)])
def test_two_pass_collision_run_matches_the_one_collision_run(n, stride):
    # four reservoirs at J = 0.05 and one at J = 0.1, one run per coupling
    temps = (0.5, 1.0, 2.0, 5.0, 0.0)
    trajs = collisions.run_collisions_many([[t] for t in temps[:4]], [[1.0]] * 4, qmat.ground_state(), n)
    trajs += collisions.run_collisions_many([[temps[4]]], [[1.0]], qmat.ground_state(), n, coupling=0.1)
    expected = np.stack([traj.coords for traj in trajs], axis=1)
    maps = np.concatenate([_one_reservoir_maps(temps[:4]), _one_reservoir_maps(temps[4:], 0.1)])
    states = acceptance._every_collision(maps, n, stride)
    assert states.shape == expected.shape == (n + 1, len(temps), 4)
    # the products are only reassociated: 7e-14 apart at n = 6000
    np.testing.assert_allclose(states, expected, rtol=0.0, atol=1e-12)
    below, expected_below = _below(states, temps), _below(expected, temps)
    np.testing.assert_array_equal(below, expected_below)
    np.testing.assert_array_equal(below.argmax(axis=0), expected_below.argmax(axis=0))


@settings(max_examples=100, deadline=None)
@given(temp=st.floats(0.2, 10.0), coupling=st.floats(0.02, 0.1))
def test_first_crossing_count_has_the_closed_form(temp, coupling):
    nbar = lindblad.thermal_occupation(1.0, temp)
    p_a = nbar / (2.0 * nbar + 1.0)
    ratio = math.log(1e-3 / p_a) / math.log(math.cos(coupling) ** 2)
    # near an integer the count turns on roundoff, not on the dynamics
    assume(abs(ratio - round(ratio)) > 1e-6)
    n = 16000  # above the largest count, about 15 400 at T = 10 and J = 0.02
    below = _below(acceptance._every_collision(_one_reservoir_maps([temp], coupling), n, math.isqrt(n - 1) + 1),
                   [temp])
    assert below[-1, 0]
    assert below[:, 0].argmax() == math.ceil(ratio)


def test_criterion_4_fails_when_a_count_differs_from_the_closed_form(monkeypatch):
    every_collision = acceptance._every_collision

    def one_collision_late(maps, n, stride):
        states = every_collision(maps, n, stride)
        return np.concatenate([states[:1], states[:-1]])

    monkeypatch.setattr(acceptance, "_every_collision", one_collision_late)
    result = acceptance.check_homogenization()
    # the final state is still within 1e-3, so only the count comparison fails
    assert "T=0.5: 1913 collisions, T=1.0: 2238 collisions" in result.details
    assert not result.passed
    assert result.line().startswith("[4/8] collision homogenization: FAIL (")
