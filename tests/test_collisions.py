import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoclass import lindblad, qmat
from thermoclass.collisions import (
    SCHEDULES,
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


_reservoirs = st.lists(
    st.tuples(st.floats(0.0, 10.0), st.floats(0.05, 1.0)), min_size=1, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(
    state_seed=st.integers(0, 2**32 - 1),
    reservoirs=_reservoirs,
    h=st.floats(0.5, 2.0),
    coupling_ratio=st.floats(1e-3, 0.099),
    tau=st.floats(0.0, 50.0),
    schedule=st.sampled_from(SCHEDULES),
    n=st.integers(1, 4),
)
def test_run_collisions_single_step_matches_single_collision(
    state_seed, reservoirs, h, coupling_ratio, tau, schedule, n
):
    # the 4x4 transfer matrices against the joint unitary and partial trace,
    # collision by collision, for either schedule
    rho = qmat.random_density_matrix(np.random.default_rng(state_seed))
    temps = [t for t, _ in reservoirs]
    weights = np.array([w for _, w in reservoirs])
    probs = tuple(weights / weights.sum())
    config = CollisionConfig(
        h, coupling_ratio * h, tau, tuple(zip(temps, probs)), schedule=schedule, seed=state_seed
    )
    traj = run_collisions(rho, config, n=n)
    rng = np.random.default_rng(state_seed)
    expected = rho
    for state in traj.states[1:]:
        if schedule == "mixture":
            expected = sum(p * single_collision(expected, t, config) for t, p in zip(temps, probs))
        else:
            expected = single_collision(expected, temps[rng.choice(len(temps), p=probs)], config)
        np.testing.assert_allclose(state, expected, rtol=0.0, atol=1e-14)
        assert abs(np.trace(state).real - 1.0) < 1e-13
        assert np.linalg.eigvalsh(state).min() >= -1e-13


def _ancilla_excitation(h, temperature):
    return 0.0 if temperature == 0 else 1.0 / (1.0 + math.exp(h / temperature))


def test_collision_matches_analytic_flip_flop_map():
    # per collision: p_e -> (1 - s^2) p_e + s^2 q with s = sin(J tau), and the
    # coherence is scaled by cos(J tau) and rotated by h tau
    h, coupling, tau = 1.3, 0.07, 2.5
    rng = np.random.default_rng(8)
    s2, cos_jt = math.sin(coupling * tau) ** 2, math.cos(coupling * tau)
    for temp in (0.0, 0.4, 2.0, 7.0):
        config = CollisionConfig(h, coupling, tau, ((temp, 1.0),))
        rho = qmat.random_density_matrix(rng)
        out = run_collisions(rho, config, n=1).final_state
        q = _ancilla_excitation(h, temp)
        assert out[0, 0].real == pytest.approx((1.0 - s2) * rho[0, 0].real + s2 * q, abs=1e-15)
        np.testing.assert_allclose(out[0, 1], cos_jt * np.exp(-1j * h * tau) * rho[0, 1], atol=1e-15)


def test_mixture_fixed_point_is_mean_ancilla_excitation():
    # the populations relax geometrically, by 1 - sin^2(J tau) per collision,
    # toward sum_i p_i q_i; roundoff accumulates over the ~1/sin^2(J tau) = 400
    # collisions the state remembers
    h, coupling, tau = 1.0, 0.05, 1.0
    reservoirs = ((3.0, 0.2), (1.0, 0.5), (0.25, 0.3))
    config = CollisionConfig(h, coupling, tau, reservoirs)
    fixed = sum(p * _ancilla_excitation(h, t) for t, p in reservoirs)
    keep = 1.0 - math.sin(coupling * tau) ** 2
    traj = run_collisions(qmat.ground_state(), config, n=12000, record_every=100)
    np.testing.assert_allclose(traj.coords[:, 0], fixed * (1.0 - keep ** traj.times), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(traj.coords[-1, :2], (fixed, 1.0 - fixed), rtol=0.0, atol=1e-12)


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
    np.testing.assert_array_equal(traj.times, [0, 10, 20, 25])
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
