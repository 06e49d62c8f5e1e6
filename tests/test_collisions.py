import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import collision_maps, lindblad_rhs, single_collision
from thermoclass import channel, collisions, lindblad, qmat
from thermoclass.collisions import (
    SCHEDULES,
    CollisionConfig,
    flip_flop_hamiltonian,
    mixture_config,
    reservoir_probabilities,
    run_collisions,
    run_collisions_many,
)
from thermoclass.errors import GuardViolation


def one_collision(rho, temperature, config):
    """The state after one collision of run_collisions with a reservoir at temperature."""
    lone = CollisionConfig(config.frequency, config.coupling, config.tau, ((temperature, 1.0),))
    return run_collisions(rho, lone, n=1).final_state


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
        out = one_collision(gibbs, temp, basic_config(temp))
        assert np.abs(out - gibbs).max() < 1e-12


def test_single_collision_zero_duration_is_identity():
    rng = np.random.default_rng(1)
    rho = qmat.random_density_matrix(rng)
    out = one_collision(rho, 2.0, basic_config(tau=0.0))
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_single_collision_heats_ground_state():
    out = one_collision(qmat.ground_state(), 2.0, basic_config())
    assert out[0, 0].real > 0.0
    # same sign as the continuous dynamics from the same start
    rhs = lindblad_rhs(lindblad.make_config((2.0,), (0.1,)), qmat.ground_state())
    assert rhs[0, 0].real > 0.0


def test_single_collision_is_trace_preserving_and_positive():
    rng = np.random.default_rng(2)
    config = basic_config()
    for _ in range(25):
        rho = qmat.random_density_matrix(rng)
        out = one_collision(rho, float(rng.uniform(0.0, 5.0)), config)
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
    for y in traj.coords[1:]:
        state = channel.from_coords(y)
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


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_trajectories_own_their_coordinates(schedule):
    # 4097 records sit in a record buffer of 8192 rows; no trajectory keeps it alive
    config = CollisionConfig(1.0, 0.05, 1.0, ((2.0, 0.5), (1.0, 0.5)), schedule=schedule, seed=3)
    for traj in run_collisions_many(qmat.ground_state(), [config, config], n=4096):
        assert traj.coords.base is None
        assert traj.coords.nbytes == 4097 * 4 * 8


def test_homogenization_reaches_reservoir_gibbs():
    # weak coupling J*tau = 0.05: converges to the ancilla state at the edges
    # of the working temperature range
    for temp in (0.5, 5.0):
        traj = run_collisions(qmat.ground_state(), basic_config(temp), n=5000, record_every=100)
        target = qmat.qubit_thermal_state(1.0, temp)
        assert qmat.trace_distance(traj.final_state, target) < 1e-3
        assert channel.trace_distances(traj.coords[-1] - traj.coords[-2]) < 1e-6
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


def test_sampled_record_stride_beyond_run_records_ends_only():
    config = CollisionConfig(1.0, 0.05, 1.0, ((3.0, 0.5), (1.0, 0.5)), schedule="sampled", seed=7)
    whole = run_collisions(qmat.ground_state(), config, n=200, record_every=200)
    beyond = run_collisions(qmat.ground_state(), config, n=200, record_every=10**20)
    assert beyond.times.tolist() == whole.times.tolist() == [0, 200]
    np.testing.assert_array_equal(beyond.coords, whole.coords)
    assert beyond.final_state.tobytes() == whole.final_state.tobytes()


def test_sampled_schedule_agrees_with_mixture_on_average():
    temps, rates = (3.0, 1.0), (0.1, 0.1)
    mixture = mixture_config(rates, temps)
    target = run_collisions(qmat.ground_state(), mixture, n=2500, record_every=2500).final_temperature
    sampled = [mixture_config(rates, temps, schedule="sampled", seed=seed) for seed in range(200)]
    trajs = run_collisions_many(qmat.ground_state(), sampled, n=2500, record_every=2500)
    finals = np.array([traj.final_temperature for traj in trajs])
    sem = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - target) <= 3.0 * sem


def test_sampled_schedule_has_the_exact_moments():
    # each collision maps p_e -> c p_e + (1 - c) a_i, c = cos^2(J tau), with
    # a_i the excitation of the ancilla drawn; from p_e = 0 that gives, after
    # n collisions, mean p_ss (1 - c^n) and variance
    # (1 - c)^2 Var(a) (1 - c^2n) / (1 - c^2), p_ss and Var(a) taken over
    # the draw
    temps, rates, n, seeds = (3.0, 1.0), (0.1, 0.1), 2500, 400
    configs = [mixture_config(rates, temps, schedule="sampled", seed=seed) for seed in range(seeds)]
    trajs = run_collisions_many(qmat.ground_state(), configs, n=n, record_every=n)
    finals = np.array([traj.coords[-1, 0] for traj in trajs])
    probs = np.array(configs[0].probabilities)
    a = np.array([qmat.qubit_thermal_state(1.0, t)[0, 0].real for t in temps])
    p_ss = probs @ a
    var_a = probs @ (a - p_ss) ** 2
    c = math.cos(configs[0].coupling * configs[0].tau) ** 2
    mean = p_ss * (1.0 - c**n)
    variance = (1.0 - c) ** 2 * var_a * (1.0 - c ** (2 * n)) / (1.0 - c**2)
    assert abs(finals.mean() - mean) / math.sqrt(variance / seeds) <= 4.0
    assert abs(finals.var(ddof=1) / variance - 1.0) <= 4.0 * math.sqrt(2.0 / (seeds - 1))


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


_row = st.tuples(
    st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.05, 1.0)), min_size=1, max_size=3),
    st.floats(1e-3, 0.099),
    st.floats(0.0, 5.0),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=4), schedule=st.sampled_from(SCHEDULES),
       shared=st.booleans(), n=st.integers(1, 300), stride=st.sampled_from(["1", "7", "n", "1e20"]))
def test_run_collisions_many_rows_equal_lone_runs(rows, schedule, shared, n, stride):
    # rows with their own reservoir counts, couplings, durations and seeds
    record_every = {"1": 1, "7": 7, "n": n, "1e20": 10**20}[stride]
    configs = []
    for reservoirs, coupling, tau, seed in rows:
        weights = np.array([w for _, w in reservoirs])
        probs = tuple(weights / weights.sum())
        configs.append(CollisionConfig(1.0, coupling, tau, tuple(zip([t for t, _ in reservoirs], probs)),
                                       schedule=schedule, seed=seed))
    rng = np.random.default_rng(rows[0][3])
    rho0s = [qmat.random_density_matrix(rng) for _ in configs]
    batch = run_collisions_many(rho0s[0] if shared else np.stack(rho0s), configs, n, record_every)
    assert len(batch) == len(configs)
    for j, (config, traj) in enumerate(zip(configs, batch)):
        alone = run_collisions(rho0s[0 if shared else j], config, n, record_every)
        np.testing.assert_array_equal(traj.times, alone.times)
        np.testing.assert_array_equal(traj.coords, alone.coords)


_map_row = st.tuples(
    st.lists(st.one_of(st.sampled_from((0.0, 1e-3, 1e300)), st.floats(0.0, 10.0)), min_size=1, max_size=4),
    st.integers(0, 2),  # which of three (h, J, tau) triples, so that some rows share one
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_map_row, min_size=1, max_size=6),
       triples=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(1e-3, 0.099), st.floats(0.0, 50.0)),
                        min_size=3, max_size=3))
def test_batched_collision_maps_match_the_direct_form(rows, triples):
    # every reservoir's map of a batch with mixed reservoir counts and
    # (h, J, tau) triples, bit for bit against kron, U rho U^dag and a
    # partial trace applied to one basis matrix at a time
    configs = []
    for temps, which in rows:
        h, ratio, tau = triples[which]
        configs.append(CollisionConfig(h, ratio * h, tau, tuple((t, 1.0 / len(temps)) for t in temps)))
    batch = collisions._collision_maps(configs)
    assert len(batch) == len(configs)
    for config, maps in zip(configs, batch):
        assert maps.flags.c_contiguous
        assert maps.tobytes() == collision_maps(config).tobytes()


def test_run_collisions_many_validation():
    mixture = basic_config()
    sampled = CollisionConfig(1.0, 0.05, 1.0, ((3.0, 1.0),), schedule="sampled", seed=1)
    with pytest.raises(ValueError, match="one schedule"):
        run_collisions_many(qmat.ground_state(), [mixture, sampled], 10)
    with pytest.raises(ValueError, match="at least one configuration"):
        run_collisions_many(qmat.ground_state(), [], 10)
    with pytest.raises(ValueError, match="2 of them"):
        run_collisions_many(np.stack([qmat.ground_state()] * 3), [mixture, mixture], 10)
    with pytest.raises(ValueError, match="record_every"):
        run_collisions_many(qmat.ground_state(), [mixture], 10, record_every=0)


@settings(max_examples=200, deadline=None)
@given(reservoirs=st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(1e-6, 1e6)), min_size=1, max_size=4),
       omega=st.floats(0.01, 100.0))
def test_calibrated_probabilities_keep_the_bits_of_the_2nbar_plus_1_weights(reservoirs, omega):
    temps = [t for t, _ in reservoirs]
    rates = np.array([g for _, g in reservoirs])
    weights = rates * np.array([2.0 * lindblad.thermal_occupation(omega, t) + 1.0 for t in temps])
    assert reservoir_probabilities(rates, temps, omega) == tuple(weights / weights.sum())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rates, temps, omega", [
    ((0.1,), (1e308,), 1.0),  # 2 nbar + 1 overflows, nbar + 1/2 does not
    ((10.0, 10.0, 1.0), (1e308, 1e308, 0.0), 1.0),  # Gamma (nbar + 1/2) overflows
    ((1e308, 1e308), (1.0, 1.0), 1.0),  # only their sum overflows
    ((0.1, 0.1), (1e308, 1.0), 1e-3),  # nbar itself overflows
    ((0.1, 0.1), (1e300, 1.0), 1e-300),  # omega / T underflows to 0
])
def test_probabilities_of_very_hot_or_fast_reservoirs_stay_finite(rates, temps, omega):
    probs = reservoir_probabilities(rates, temps, omega)
    assert all(0.0 < p <= 1.0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-15)
    # the baths of the largest Gamma T share the weight equally; the others are negligible
    hottest = max(g * t for g, t in zip(rates, temps))
    for p, g, t in zip(probs, rates, temps):
        if g * t == hottest:
            assert p == pytest.approx(1.0 / sum(g * t == hottest for g, t in zip(rates, temps)), rel=1e-12)


def test_reservoir_probabilities_validation():
    assert reservoir_probabilities((0.1,), (2.0,)) == (1.0,)
    with pytest.raises(ValueError):
        reservoir_probabilities((0.1, 0.2), (2.0,))
    with pytest.raises(ValueError):
        reservoir_probabilities((0.0, 0.1), (2.0, 1.0))
