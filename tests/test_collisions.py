import math

import numpy as np
import pytest

from thermoclass import lindblad, qmat
from thermoclass.collisions import (
    CollisionConfig,
    flip_flop_hamiltonian,
    mixture_config,
    reservoir_probabilities,
    run_collisions,
    single_collision,
)
from thermoclass.errors import GuardViolation


def basic_config(temp=2.0, tau=1.0):
    return CollisionConfig(frequency=1.0, coupling=0.05, tau=tau, reservoirs=((temp, 1.0),))


def test_flip_flop_free_limit_is_diagonal():
    h = flip_flop_hamiltonian(1.0, 0.0)
    np.testing.assert_allclose(h, np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)


def test_flip_flop_single_excitation_block():
    h = flip_flop_hamiltonian(1.0, 0.05)
    np.testing.assert_allclose(h[1:3, 1:3], np.array([[0.0, 0.05], [0.05, 0.0]]), atol=1e-15)
    assert np.abs(h - h.conj().T).max() == 0.0


def test_flip_flop_conserves_total_excitation():
    h = flip_flop_hamiltonian(1.0, 0.08)
    sz = qmat.pauli("z")
    total = np.kron(sz, np.eye(2)) + np.kron(np.eye(2), sz)
    assert np.abs(h @ total - total @ h).max() < 1e-14


def test_flip_flop_swap_at_half_period():
    # at J*t = pi/2 the single excitation moves entirely between the qubits
    j = 0.05
    u = qmat.unitary_propagator(flip_flop_hamiltonian(1.0, j), math.pi / (2.0 * j))
    np.testing.assert_allclose(abs(u[2, 1]), 1.0, atol=1e-12)
    np.testing.assert_allclose(abs(u[1, 2]), 1.0, atol=1e-12)
    np.testing.assert_allclose(abs(u[1, 1]), 0.0, atol=1e-12)


def test_collision_config_validation():
    with pytest.raises(ValueError, match="sum"):
        CollisionConfig(1.0, 0.05, 1.0, ((3.0, 0.6), (1.0, 0.6)))
    with pytest.raises(ValueError, match="probability"):
        CollisionConfig(1.0, 0.05, 1.0, ((3.0, 1.2), (1.0, -0.2)))
    with pytest.raises(GuardViolation):
        CollisionConfig(1.0, 0.5, 1.0, ((3.0, 1.0),))
    with pytest.raises(ValueError, match="seed"):
        CollisionConfig(1.0, 0.05, 1.0, ((3.0, 1.0),), schedule="sampled")
    with pytest.raises(ValueError, match="schedule"):
        CollisionConfig(1.0, 0.05, 1.0, ((3.0, 1.0),), schedule="roundrobin")
    for bad in (
        (math.nan, 0.05, 1.0, ((3.0, 1.0),)),
        (1.0, 0.05, math.inf, ((3.0, 1.0),)),
        (1.0, 0.05, 1.0, ((math.nan, 1.0),)),
        (1.0, 0.05, 1.0, ((math.inf, 1.0),)),
    ):
        with pytest.raises(ValueError, match="finite"):
            CollisionConfig(*bad)


def test_single_collision_thermal_state_invariant():
    for temp in (0.5, 2.0, 5.0):
        gibbs = qmat.qubit_thermal_state(1.0, temp)
        out = single_collision(gibbs, temp, basic_config(temp))
        assert np.abs(out - gibbs).max() < 1e-12


def test_single_collision_zero_duration_is_identity():
    rng = np.random.default_rng(1)
    rho = qmat.random_density_matrix(rng)
    out = single_collision(rho, 2.0, basic_config(tau=0.0))
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_single_collision_heats_ground_state():
    out = single_collision(qmat.ground_state(), 2.0, basic_config())
    assert out[0, 0].real > 0.0
    # same sign as the continuous dynamics from the same start
    rhs = lindblad.lindblad_rhs(lindblad.make_config((2.0,), (0.1,)), qmat.ground_state())
    assert rhs[0, 0].real > 0.0


def test_single_collision_is_trace_preserving_and_positive():
    rng = np.random.default_rng(2)
    config = basic_config()
    for _ in range(25):
        rho = qmat.random_density_matrix(rng)
        out = single_collision(rho, float(rng.uniform(0.0, 5.0)), config)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_run_collisions_single_step_matches_single_collision():
    rng = np.random.default_rng(3)
    rho = qmat.random_density_matrix(rng)
    config = basic_config(3.0)
    traj = run_collisions(rho, config, n=1)
    np.testing.assert_array_equal(traj.states[-1], single_collision(rho, 3.0, config))


def test_run_collisions_composition():
    # applying n then m mixture collisions equals n+m from the same start
    config = CollisionConfig(1.0, 0.05, 1.0, ((3.0, 0.5), (1.0, 0.5)))
    rng = np.random.default_rng(4)
    rho = qmat.random_density_matrix(rng)
    once = run_collisions(rho, config, n=12).final_state
    part = run_collisions(rho, config, n=7).final_state
    rejoined = run_collisions(part, config, n=5).final_state
    assert np.abs(once - rejoined).max() < 1e-12


def test_run_collisions_recording():
    traj = run_collisions(qmat.ground_state(), basic_config(), n=25, record_every=10)
    np.testing.assert_array_equal(traj.indices, [0, 10, 20, 25])
    assert traj.temperatures[0] == 0.0
    with pytest.raises(ValueError):
        run_collisions(qmat.ground_state(), basic_config(), n=0)


def test_homogenization_reaches_reservoir_gibbs():
    # weak coupling J*tau = 0.05: converges to the ancilla state at the edges
    # of the working temperature range
    for temp in (0.5, 5.0):
        traj = run_collisions(qmat.ground_state(), basic_config(temp), n=5000, record_every=100)
        target = qmat.qubit_thermal_state(1.0, temp)
        assert qmat.trace_distance(traj.final_state, target) < 1e-3
        assert qmat.trace_distance(traj.states[-1], traj.states[-2]) < 1e-6
        if temp == 5.0:
            assert abs(traj.final_temperature - temp) / temp < 0.01


def test_sampled_schedule_deterministic_under_seed():
    config = CollisionConfig(
        1.0, 0.05, 1.0, ((3.0, 0.5), (1.0, 0.5)), schedule="sampled", seed=99
    )
    a = run_collisions(qmat.ground_state(), config, n=200, record_every=50)
    b = run_collisions(qmat.ground_state(), config, n=200, record_every=50)
    np.testing.assert_array_equal(a.final_state, b.final_state)
    other = CollisionConfig(
        1.0, 0.05, 1.0, ((3.0, 0.5), (1.0, 0.5)), schedule="sampled", seed=100
    )
    c = run_collisions(qmat.ground_state(), other, n=200, record_every=50)
    assert np.abs(a.final_state - c.final_state).max() > 0.0


def test_sampled_schedule_agrees_with_mixture_on_average():
    temps, rates = (3.0, 1.0), (0.1, 0.1)
    mixture = mixture_config(rates, temps)
    target = run_collisions(qmat.ground_state(), mixture, n=2500, record_every=2500).final_temperature
    finals = []
    for seed in range(200):
        sampled = mixture_config(rates, temps, schedule="sampled", seed=seed)
        finals.append(
            run_collisions(qmat.ground_state(), sampled, n=2500, record_every=2500).final_temperature
        )
    finals = np.asarray(finals)
    sem = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - target) <= 3.0 * sem


def test_calibrated_weights_reproduce_continuous_steady_state():
    temps, rates = (3.0, 1.0), (0.1, 0.05)
    traj = run_collisions(
        qmat.ground_state(), mixture_config(rates, temps), n=8000, record_every=1000
    )
    analytic = lindblad.steady_temperature(lindblad.make_config(temps, rates))
    assert abs(traj.final_temperature - analytic) / analytic < 1e-6


def test_plain_weights_reach_their_own_mean_excitation():
    # p ~ Gamma, no calibration: the fixed point is the probability-weighted
    # mean of the ancilla excitations, away from the continuous steady state
    temps, rates = (3.0, 1.0), (0.1, 0.1)
    probs = reservoir_probabilities(rates, temps, calibrated=False)
    np.testing.assert_allclose(probs, (0.5, 0.5), atol=1e-15)
    config = mixture_config(rates, temps, calibrated=False)
    traj = run_collisions(qmat.ground_state(), config, n=8000, record_every=1000)
    q = [1.0 / (1.0 + math.exp(1.0 / t)) for t in temps]
    p_e = sum(p * qe for p, qe in zip(probs, q))
    predicted = 1.0 / math.log((1.0 - p_e) / p_e)
    assert abs(traj.final_temperature - predicted) < 1e-6
    analytic = lindblad.steady_temperature(lindblad.make_config(temps, rates))
    assert abs(traj.final_temperature - analytic) / analytic > 0.1


def test_reservoir_probabilities_validation():
    assert reservoir_probabilities((0.1,), (2.0,)) == (1.0,)
    with pytest.raises(ValueError):
        reservoir_probabilities((0.1, 0.2), (2.0,))
    with pytest.raises(ValueError):
        reservoir_probabilities((0.0, 0.1), (2.0, 1.0))
