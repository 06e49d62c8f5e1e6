import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoclass import channel, qmat
from thermoclass.channel import boltzmann_temperature
from thermoclass.classifier import CLASS_HOT, DecisionRule, classify
from thermoclass.errors import GuardViolation
from thermoclass import lindblad
from thermoclass.lindblad import (
    SystemConfig,
    evolve,
    evolve_many,
    lindblad_rhs,
    make_config,
    mean_bath_temperature,
    steady_population_ratio,
    steady_state,
    steady_temperature,
    steady_temperatures,
    thermal_occupation,
)

# Steady temperatures for T=(3,1) with the three reference rate pairs,
# frozen from the closed-form ratio (they match the long-time integration
# below to integrator accuracy).
T_SS_EQUAL = 2.013636202
T_SS_HOT_WEIGHTED = 2.343694237
T_SS_COLD_WEIGHTED = 1.681284487
EPS = np.finfo(float).eps


def random_config(rng, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    return make_config(rng.uniform(0.5, 5.0, n), rng.uniform(0.01, 0.1, n))


def test_thermal_occupation_values():
    assert thermal_occupation(1.0, 0.0) == 0.0
    np.testing.assert_allclose(thermal_occupation(1.0, 1.0), 1.0 / math.expm1(1.0), rtol=1e-15)
    np.testing.assert_allclose(thermal_occupation(1.0, 3.0), 1.0 / math.expm1(1.0 / 3.0), rtol=1e-15)
    # six-figure anchors
    np.testing.assert_allclose(thermal_occupation(1.0, 1.0), 0.581977, atol=5e-7)
    np.testing.assert_allclose(thermal_occupation(1.0, 3.0), 2.527726, atol=5e-7)
    # exp(omega/T) overflows a double below T ~ omega/710
    assert thermal_occupation(1.0, 0.001) == 0.0
    # omega/T underflows: 1/expm1 overflows, at 0 as below it
    assert thermal_occupation(1e-10, 1e308) == math.inf
    assert thermal_occupation(1e-300, 1e300) == math.inf


def test_thermal_occupation_rejects_bad_input():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_occupation(1.0, -0.5)


def test_config_validation():
    config = SystemConfig(2.0, np.array([3.0, 1.0]), [0.1, 0.05])
    assert config == make_config((3.0, 1.0), (0.1, 0.05), omega=2.0)
    assert type(config.temperatures) is tuple and type(config.temperatures[0]) is float
    with pytest.raises(ValueError, match="at least one bath"):
        SystemConfig(1.0, (), ())
    with pytest.raises(ValueError, match="2 temperatures but 1 rates"):
        make_config((3.0, 1.0), (0.1,))
    for omega in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="qubit frequency"):
            make_config((3.0,), (0.1,), omega=omega)
    with pytest.raises(GuardViolation, match="bath 1 rate 0.25"):
        make_config((3.0, 1.0), (0.1, 0.25))
    with pytest.raises(ValueError):
        make_config((3.0,), (-0.1,))
    for temperature, rate in ((math.nan, 0.1), (math.inf, 0.1), (-1.0, 0.1), (3.0, math.nan), (3.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            make_config((temperature,), (rate,))
    # an invalid bath is a ValueError even where another bath breaks the guard
    with pytest.raises(ValueError, match="finite"):
        make_config((3.0, -1.0), (0.3, 0.1))


def test_rhs_thermal_fixed_point_single_bath():
    for temp in (0.5, 1.0, 3.0):
        config = make_config((temp,), (0.1,))
        rhs = lindblad_rhs(config, qmat.qubit_thermal_state(1.0, temp))
        assert np.abs(rhs).max() < 1e-12


def test_rhs_ground_state_heating_rate():
    # from |g><g| only the upward channel acts: dp_e/dt = Gamma * nbar
    config = make_config((2.0,), (0.08,))
    rhs = lindblad_rhs(config, qmat.ground_state())
    np.testing.assert_allclose(rhs[0, 0].real, 0.08 * thermal_occupation(1.0, 2.0), rtol=1e-12)
    assert rhs[0, 0].real > 0


def test_rhs_equal_temperature_baths_share_fixed_point():
    config = make_config((2.5, 2.5), (0.1, 0.03))
    rhs = lindblad_rhs(config, qmat.qubit_thermal_state(1.0, 2.5))
    assert np.abs(rhs).max() < 1e-12


def test_rhs_output_hermitian_traceless():
    rng = np.random.default_rng(2)
    config = random_config(rng)
    for _ in range(10):
        rhs = lindblad_rhs(config, qmat.random_density_matrix(rng))
        assert np.abs(rhs - rhs.conj().T).max() < 1e-12
        assert abs(np.trace(rhs)) < 1e-12


def test_real_generator_matches_rhs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        config = random_config(rng)
        rho = qmat.random_density_matrix(rng)
        coords = channel.to_coords(rho)
        np.testing.assert_allclose(
            lindblad.real_generator(config) @ coords,
            channel.to_coords(lindblad_rhs(config, rho)),
            atol=1e-13,
        )


_generator_temperature = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e17, 1.7976931348623157e308)), st.floats(0.0, 10.0)
)


@settings(max_examples=200, deadline=None)
@given(baths=st.lists(st.tuples(_generator_temperature, st.floats(1e-6, 0.2)), min_size=1, max_size=5),
       omega=st.sampled_from((1.0, 0.3, 7.0)))
def test_real_generator_matches_per_basis_build(baths, omega):
    # the stacked build against the generator applied to one basis matrix at
    # a time, bit for bit, signed zeros and the NaNs of overflowing
    # occupations included
    config = make_config([t for t, _ in baths], [g * omega for _, g in baths], omega)
    with np.errstate(invalid="ignore"):
        per_basis = channel.matrix_of(lambda rho: lindblad._apply_generator(config, rho))
        assert lindblad.real_generator(config).tobytes() == per_basis.tobytes()


@settings(max_examples=200, deadline=None)
@given(baths=st.lists(st.tuples(_generator_temperature, st.floats(1e-6, 0.2)), min_size=1, max_size=5),
       omega=st.sampled_from((1.0, 0.3, 7.0)))
def test_real_generator_matches_dissipators_built_per_bath(baths, omega):
    # the two basis dissipators are computed once, at import; the generator
    # is bit for bit the one that recomputes them for every bath
    config = make_config([t for t, _ in baths], [g * omega for _, g in baths], omega)
    basis = channel.BASIS
    h = 0.5 * omega * qmat.pauli("z")
    out = -1j * (h @ basis - basis @ h)
    with np.errstate(invalid="ignore"):
        for temperature, rate in zip(config.temperatures, config.rates):
            n = thermal_occupation(omega, temperature)
            out += rate * ((n + 1.0) * lindblad._dissipator(qmat.pauli("minus"), basis)
                           + n * lindblad._dissipator(qmat.pauli("plus"), basis))
        assert lindblad.real_generator(config).tobytes() == channel.to_coords(out).T.copy().tobytes()


def test_evolve_reference_asymptotes():
    for rates, expected in (((0.1, 0.1), T_SS_EQUAL), ((0.1, 0.05), T_SS_HOT_WEIGHTED)):
        config = make_config((3.0, 1.0), rates)
        traj = evolve(config, qmat.ground_state(), t_end=2000.0, dt=0.05)
        assert abs(traj.final_temperature - expected) < 1e-3


def test_evolve_does_not_stop_early_when_relaxation_is_slow():
    # at rates 1e-10 the state moves less than 1e-9 per time unit from the
    # start, far from its steady temperature 2.014; the stop test must scale
    # with the slowest decay rate instead of reading that as convergence
    config = make_config((3.0, 1.0), (1e-10, 1e-10))
    traj = evolve(config, qmat.ground_state(), t_end=200.0, dt=0.05)
    assert traj.times[-1] == 200.0
    # at ordinary rates it still stops long before the cap, within about
    # stop_tol of the steady state
    config = make_config((3.0, 1.0), (0.1, 0.1))
    traj = evolve(config, qmat.ground_state(), t_end=4000.0, dt=0.05, stop_tol=1e-9)
    assert traj.times[-1] < 100.0
    assert qmat.trace_distance(traj.final_state, steady_state(config)) < 1e-9


def test_evolve_many_matches_one_at_a_time():
    configs = [make_config((3.0, 1.0), rates) for rates in ((0.1, 0.1), (0.1, 0.05), (0.02, 0.1))]
    rho0 = qmat.random_density_matrix(np.random.default_rng(5))
    together = evolve_many(configs, rho0, t_end=60.0, dt=0.05, record_every=2.5)
    for config, traj in zip(configs, together):
        alone = evolve(config, rho0, t_end=60.0, dt=0.05, record_every=2.5, stop_tol=None)
        np.testing.assert_array_equal(traj.times, alone.times)
        np.testing.assert_array_equal(traj.coords, alone.coords)
        assert traj.max_trace_drift == alone.max_trace_drift


_bath = st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 5.0)), st.floats(0.01, 0.2))
# a random start; the closed-form steady state, which settles at the first
# check; rates scaled down to 1e-9 of these, which never settle before t_end
_row = st.tuples(st.lists(_bath, min_size=1, max_size=3), st.sampled_from(("random", "fixed point", "slow")))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.lists(_row, min_size=1, max_size=5),
       steps=st.integers(20, 4000), record_steps=st.integers(1, 400),
       stop_tol=st.one_of(st.none(), st.floats(1e-9, 1e-3)))
@example(seed=1, rows=[([(3.0, 0.1)], "fixed point"), ([(0.0, 0.02), (4.0, 0.2)], "fixed point")],
         steps=400, record_steps=7, stop_tol=1e-9)
@example(seed=2, rows=[([(3.0, 0.2)], "random"), ([(2.0, 0.05)], "random"), ([(1.0, 0.1)], "slow"),
                       ([(0.5, 0.2), (5.0, 0.2)], "random"), ([(4.0, 0.01)], "fixed point")],
         steps=4000, record_steps=30, stop_tol=1e-4)
def test_evolve_many_rows_match_evolve_alone(seed, rows, steps, record_steps, stop_tol):
    dt = 0.05
    rng = np.random.default_rng(seed)
    configs, rho0s = [], []
    for baths, kind in rows:
        scale = 1e-9 if kind == "slow" else 1.0
        configs.append(make_config([t for t, _ in baths], [g * scale for _, g in baths]))
        rho0s.append(steady_state(configs[-1]) if kind == "fixed point" else qmat.random_density_matrix(rng))
    together = evolve_many(configs, np.array(rho0s), steps * dt, dt, record_steps * dt, stop_tol)
    for (_, kind), config, rho0, traj in zip(rows, configs, rho0s, together):
        alone = evolve(config, rho0, steps * dt, dt, record_steps * dt, stop_tol)
        np.testing.assert_array_equal(traj.times, alone.times)
        np.testing.assert_array_equal(traj.coords, alone.coords)
        assert traj.max_trace_drift == alone.max_trace_drift
        if stop_tol is not None and kind != "random":
            assert traj.times[-1] == (1.0 if kind == "fixed point" else steps * dt)


def test_evolve_many_rejects_mismatched_initial_states():
    configs = [make_config((3.0,), (0.1,))] * 3
    with pytest.raises(ValueError, match="initial state"):
        evolve_many(configs, np.array([qmat.ground_state()] * 2), t_end=10.0, dt=0.05)
    bad = np.array([qmat.ground_state(), 2.0 * qmat.ground_state(), qmat.ground_state()])
    with pytest.raises(ValueError, match="trace"):
        evolve_many(configs, bad, t_end=10.0, dt=0.05)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       baths=st.lists(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 10.0)), st.floats(1e-3, 0.2)),
                               min_size=1, max_size=4), min_size=1, max_size=4),
       dt_share=st.floats(0.01, 1.0), steps=st.integers(1, 3000), record_steps=st.integers(1, 200),
       stop_tol=st.sampled_from((None, 1e-9)))
def test_evolve_many_follows_exact_relaxation(seed, baths, dt_share, steps, record_steps, stop_tol):
    # the generator is block diagonal with eigenvalues 0, -G and -G/2 +- i omega,
    # G = sum_i Gamma_i (2 nbar_i + 1): p_e relaxes to p_ss = sum_i Gamma_i nbar_i / G
    # at rate G, and the coherence decays at G/2 while it rotates at omega
    configs = [make_config([t for t, _ in b], [g for _, g in b]) for b in baths]
    # any dt the guards accept
    fastest = max(g * (thermal_occupation(1.0, t) + 1.0)
                  for config in configs for t, g in zip(config.temperatures, config.rates))
    dt = dt_share * min(lindblad.RK4_STABILITY_MAX / fastest, lindblad.RK4_ROTATION_MAX)
    rng = np.random.default_rng(seed)
    rho0s = np.array([qmat.random_density_matrix(rng) for _ in configs])
    trajs = evolve_many(configs, rho0s, steps * dt, dt, record_steps * dt, stop_tol)
    for config, rho0, traj in zip(configs, rho0s, trajs):
        nbar = np.array([thermal_occupation(1.0, t) for t in config.temperatures])
        total = float(np.sum(np.array(config.rates) * (2.0 * nbar + 1.0)))
        p_ss = float(np.sum(np.array(config.rates) * nbar)) / total
        t = traj.times
        p_e = p_ss + (rho0[0, 0].real - p_ss) * np.exp(-total * t)
        c = rho0[0, 1] * np.exp(complex(-total / 2.0, -1.0) * t)
        # RK4's one-step error on an eigenvalue lam is at most |lam dt|^5 / 120
        # e^|lam dt| of the mode's amplitude, and the modes do not grow, so
        # the errors add up over the t / dt steps (t G^5 dt^4 / 120 for p_e);
        # roundoff adds up to a few ulps per step
        for lam, amplitude, got, exact in (
            (total, abs(rho0[0, 0].real - p_ss), traj.coords[:, 0], p_e),
            (abs(complex(-total / 2.0, 1.0)), abs(rho0[0, 1]), traj.coords[:, 2] + 1j * traj.coords[:, 3], c),
        ):
            z = lam * dt
            bound = t / dt * z**5 / 120.0 * math.exp(z) * amplitude + (t / dt + 1.0) * 4.0 * EPS
            assert (np.abs(got - exact) <= bound).all()


@settings(max_examples=300, deadline=None)
@given(baths=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 100.0)), st.floats(1e-6, 0.19)),
                      min_size=1, max_size=4),
       omega=st.floats(0.1, 10.0))
@example(baths=[(0.0, 0.1)], omega=1.0)
@example(baths=[(0.0, 0.1), (0.0, 0.05)], omega=1.0)
def test_slowest_decay_rate_matches_eigenvalues(baths, omega):
    # the eigenvalues are 0, -G and -G/2 +- i omega: the coherence rate G/2
    # is the slowest nonzero one, and it sits on the generator's diagonal
    generator = lindblad.real_generator(make_config([t for t, _ in baths], [g * omega for _, g in baths], omega))
    assert lindblad._slowest_decay_rate(generator) == float(np.sort(-np.linalg.eigvals(generator).real)[1])


def _evolve_exact_stop(config, rho0, t_end, dt, record_every, stop_tol):
    """Reference for evolve's early stop: one configuration alone through
    channel.propagate, with the per-row exact trace-distance test written
    out. Returns the step marks and the raw (unnormalized) records."""
    generator = lindblad.real_generator(config)
    step = lindblad._rk4_step(generator, dt)[None]
    record_stride, check_stride = int(round(record_every / dt)), int(round(1.0 / dt))
    bound = -stop_tol * math.expm1(-lindblad._slowest_decay_rate(generator) * check_stride * dt)

    def settled(dy):
        return channel.trace_distances(dy[..., 0]) < bound

    y0 = channel.to_coords(rho0)[None, :, None]
    blocks = channel.repeated(step, int(round(t_end / dt)), math.gcd(record_stride, check_stride))
    marks, records, ends = channel.propagate(y0, blocks, record_stride, check_stride, settled)
    assert ends[0] == marks[-1]
    return marks, records


def test_early_stop_reject_keeps_criterion_1_runs_bitwise():
    # criterion 1's 100 configurations and initial states, run as it runs
    # them: in one batch, each row stopping on its own
    rng = np.random.default_rng(20240101)
    configs, rho0s = [], []
    for _ in range(100):
        n = int(rng.integers(1, 5))
        configs.append(make_config(rng.uniform(0.5, 5.0, n), rng.uniform(0.01, 0.1, n)))
        rho0s.append(qmat.random_density_matrix(rng))
    trajs = evolve_many(configs, rho0s, t_end=4000.0, dt=0.05, record_every=10.0, stop_tol=1e-9)
    assert len({traj.times[-1] for traj in trajs}) > 1
    for config, rho0, traj in zip(configs, rho0s, trajs):
        marks, records = _evolve_exact_stop(config, rho0, 4000.0, 0.05, 10.0, 1e-9)
        last = records[-1, 0, :, 0]
        assert traj.times[-1] == marks[-1] * 0.05 < 4000.0
        np.testing.assert_array_equal(traj.coords[-1], last * (1.0 / (last[0] + last[1])))


def test_evolve_fixed_point_stays_constant():
    config = make_config((2.0,), (0.1,))
    gibbs = qmat.qubit_thermal_state(1.0, 2.0)
    traj = evolve(config, gibbs, t_end=50.0, dt=0.05, stop_tol=None)
    assert max(qmat.trace_distance(s, gibbs) for s in traj.states) < 1e-9


@pytest.mark.filterwarnings("error")
def test_evolve_rejects_unstable_step():
    config = make_config((5.0,), (0.1,))
    with pytest.raises(GuardViolation, match="shrink dt"):
        evolve(config, qmat.ground_state(), t_end=10.0, dt=0.5)
    # the decay guard passes (0.047 < 0.1), but at omega dt = 3 RK4 made the
    # coherence grow to 4e26
    config = make_config((1.0,), (0.01,))
    rho0 = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(GuardViolation, match="omega \\* dt = 3 exceeds 1.0; shrink dt below 1"):
        evolve(config, rho0, t_end=500.0, dt=3.0, stop_tol=None)
    traj = evolve(config, rho0, t_end=500.0, dt=np.nextafter(1.0, 0.0), stop_tol=None)
    assert np.abs(traj.coords[:, 2:]).max() <= 0.5
    assert abs(traj.final_state[0, 1]) < 1e-3
    # 1 / expm1(omega / T) overflows at the float maximum; the guard names
    # the bath before any generator is built from it
    configs = [make_config((3.0,), (0.1,)), make_config((sys.float_info.max, 1.0), (0.1, 0.1))]
    with pytest.raises(GuardViolation, match="bath 0 temperature 1.7976931348623157e\\+308 gives a non-finite") as err:
        evolve_many(configs, qmat.ground_state(), t_end=10.0, dt=0.05)
    assert "shrink dt" not in str(err.value)


def test_evolve_trace_and_hermiticity_drift():
    config = make_config((3.0, 1.0), (0.1, 0.05))
    traj = evolve(config, qmat.ground_state(), t_end=2000.0, dt=0.01, stop_tol=None)
    assert traj.max_trace_drift < 1e-8
    for state in traj.states[:: len(traj.states) // 20]:
        assert np.abs(state - state.conj().T).max() < 1e-12
    assert np.all(np.diff(traj.times) > 0)


def test_evolve_converges_to_analytic_steady_state():
    rng = np.random.default_rng(123)
    for _ in range(20):
        config = random_config(rng)
        traj = evolve(config, qmat.random_density_matrix(rng), t_end=4000.0, dt=0.05, record_every=10.0)
        assert qmat.trace_distance(traj.final_state, steady_state(config)) < 1e-6
        for state in traj.states[:: max(1, len(traj.states) // 5)]:
            qmat.validate_density_matrix(state)


def test_evolve_damps_coherences_at_half_population_rate():
    # |c(t)| = |c(0)| exp(-t * sum Gamma (2 nbar + 1) / 2)
    config = make_config((3.0, 1.0), (0.1, 0.05))
    rho0 = np.array([[0.5, 0.3 + 0.1j], [0.3 - 0.1j, 0.5]], dtype=complex)
    traj = evolve(config, rho0, t_end=40.0, dt=0.02, stop_tol=None)
    rate = sum(g * (2.0 * thermal_occupation(1.0, t) + 1.0) for t, g in zip(config.temperatures, config.rates)) / 2.0
    c0 = abs(rho0[0, 1])
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_allclose(abs(state[0, 1]), c0 * math.exp(-rate * t), rtol=1e-6)


def test_evolve_starts_cold_from_ground():
    config = make_config((3.0, 1.0), (0.1, 0.1))
    traj = evolve(config, qmat.ground_state(), t_end=30.0, dt=0.05, stop_tol=None)
    assert traj.temperatures[0] == 0.0
    assert traj.final_temperature > 1.0


def test_steady_population_ratio_values():
    np.testing.assert_allclose(
        steady_population_ratio(make_config((3.0, 1.0), (0.1, 0.1))), 1.6431482, atol=1e-7
    )
    np.testing.assert_allclose(
        steady_population_ratio(make_config((3.0, 1.0), (0.1, 0.05))), 1.5321574, atol=1e-7
    )
    # single bath: detailed balance gives the Boltzmann factor
    np.testing.assert_allclose(
        steady_population_ratio(make_config((2.0,), (0.05,))), math.exp(0.5), rtol=1e-12
    )
    assert steady_population_ratio(make_config((0.0, 0.0), (0.1, 0.1))) == math.inf


def test_steady_state_matches_bath_gibbs():
    for temp in (0.5, 1.0, 4.0):
        config = make_config((temp,), (0.1,))
        np.testing.assert_allclose(
            steady_state(config), qmat.qubit_thermal_state(1.0, temp), atol=1e-14
        )
    np.testing.assert_allclose(
        steady_state(make_config((0.0,), (0.1,))), np.diag([0.0, 1.0]), atol=1e-15
    )


def test_steady_temperature_reference_values():
    assert steady_temperature(make_config((3.0, 1.0), (0.1, 0.1))) == pytest.approx(T_SS_EQUAL, abs=1e-8)
    assert steady_temperature(make_config((3.0, 1.0), (0.1, 0.05))) == pytest.approx(T_SS_HOT_WEIGHTED, abs=1e-8)
    assert steady_temperature(make_config((3.0, 1.0), (0.05, 0.1))) == pytest.approx(T_SS_COLD_WEIGHTED, abs=1e-8)


def test_effective_temperature_cases():
    assert boltzmann_temperature(1.0, 0.0, 1.0) == 0.0
    assert boltzmann_temperature(1.0, -1e-17, 1.0) == 0.0  # roundoff below an empty level
    assert boltzmann_temperature(0.5, 0.5, 1.0) == math.inf
    assert math.isnan(boltzmann_temperature(0.4, 0.6, 1.0))
    ratio = steady_population_ratio(make_config((3.0, 1.0), (0.1, 0.1)))
    t = boltzmann_temperature(ratio / (1.0 + ratio), 1.0 / (1.0 + ratio), 1.0)
    assert t == pytest.approx(T_SS_EQUAL, abs=1e-8)


def test_effective_temperature_inverts_gibbs():
    rng = np.random.default_rng(6)
    temps = rng.uniform(0.2, 8.0, 25)
    rhos = [qmat.qubit_thermal_state(1.0, temp) for temp in temps]
    t = boltzmann_temperature([r[1, 1].real for r in rhos], [r[0, 0].real for r in rhos], 1.0)
    np.testing.assert_allclose(t, temps, rtol=0, atol=1e-9)


def test_mean_bath_temperature():
    assert mean_bath_temperature(make_config((3.0, 1.0), (0.1, 0.1))) == 2.0
    assert mean_bath_temperature(make_config((5.0, 1.0, 3.0), (0.1, 0.1, 0.1))) == 3.0
    assert mean_bath_temperature(make_config((2.5, 2.5, 2.5), (0.1, 0.1, 0.1))) == 2.5


def test_steady_state_is_fixed_point_of_rhs():
    rng = np.random.default_rng(8)
    for _ in range(40):
        config = random_config(rng)
        assert np.abs(lindblad_rhs(config, steady_state(config))).max() < 1e-10


def test_steady_temperature_bracketed_by_bath_temperatures():
    rng = np.random.default_rng(9)
    for _ in range(200):
        config = random_config(rng)
        t = steady_temperature(config)
        assert min(config.temperatures) - 1e-12 <= t <= max(config.temperatures) + 1e-12


def test_equal_rate_high_temperature_mean():
    # warm reservoirs with equal rates: steady temperature within 2% of the mean
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        temps = rng.uniform(3.0, 30.0, n)
        config = make_config(temps, [0.05] * n)
        assert abs(steady_temperature(config) - temps.mean()) / temps.mean() <= 0.02


def _reference_steady_temperature(temps, rates, omega):
    """Per-row closed form with math, independent of steady_temperatures."""
    active = [(t, g) for t, g in zip(temps, rates) if g > 0]
    if len({t for t, _ in active}) == 1:
        return active[0][0]
    nbar = []
    for t, _ in active:
        try:
            nbar.append(0.0 if t == 0 else 1.0 / math.expm1(omega / t))
        except OverflowError:
            nbar.append(0.0)
    up = sum(g * n for (_, g), n in zip(active, nbar))
    down = sum(g * (n + 1.0) for (_, g), n in zip(active, nbar))
    return 0.0 if up == 0 else omega / math.log(down / up)


# one reservoir set: k baths, each a temperature (0, or cold enough for
# exp(omega/T) to overflow, up to hot) and a rate (0 or positive; at least
# one rate positive)
_temperature = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))
_rate = st.one_of(st.just(0.0), st.floats(1e-4, 0.2))
_reservoir_set = st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.lists(_temperature, min_size=k, max_size=k),
                        st.lists(_rate, min_size=k, max_size=k))
).filter(lambda row: any(g > 0 for g in row[1]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_reservoir_set, min_size=1, max_size=8), k=st.integers(1, 4),
       omega=st.floats(0.5, 2.0), shared=st.floats(0.0, 10.0))
def test_steady_temperatures_match_per_row_math(rows, k, omega, shared):
    # rows of mixed widths are padded with zero-rate baths up to a common width
    width = max(k, max(len(t) for t, _ in rows))
    # plus one row whose baths all share one temperature, with any rates
    rows = rows + [([shared] * width, [0.05] * width)]
    temps = np.array([t + [1.0] * (width - len(t)) for t, _ in rows])
    rates = np.array([g + [0.0] * (width - len(g)) for _, g in rows])
    got = steady_temperatures(temps, rates, omega)
    for row_t, row_g, value in zip(temps.tolist(), rates.tolist(), got.tolist()):
        expected = _reference_steady_temperature(row_t, row_g, omega)
        active = {t for t, g in zip(row_t, row_g) if g > 0}
        if len(active) == 1:
            assert value == expected
        else:
            assert value == pytest.approx(expected, rel=1e-12, abs=0)
    assert got[-1] == shared
    # one row alone gives the same bits as inside the batch
    assert steady_temperatures(temps[:1], rates[:1], omega)[0] == got[0]


_big = sys.float_info.max
# temperatures that stress the bracketing: ordinary, within a few ulps of
# the float maximum, and pairs of baths nearly equal
_edge_temperature = st.one_of(
    st.floats(1e-3, 100.0),
    st.integers(0, 2**20).map(lambda k: _big - k * 2.0**971),
    st.floats(1e300, _big),
)


@st.composite
def _bracketing_row(draw):
    k = draw(st.integers(1, 4))
    temps = draw(st.lists(_edge_temperature, min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        # a nearly equal second bath, a few ulps or a relative 1e-15 away
        base = temps[0]
        temps[1] = draw(st.sampled_from([
            np.nextafter(base, 0.0), np.nextafter(np.nextafter(base, 0.0), 0.0), base * (1 - 1e-15),
        ]))
    rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 0.2)), min_size=k, max_size=k))
    if not any(rates):
        rates[0] = 0.1
    return temps, rates


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_bracketing_row(), min_size=1, max_size=6), omega=st.floats(1e-3, 100.0))
def test_steady_temperatures_bracketed_exactly(rows, omega):
    width = max(len(t) for t, _ in rows)
    temps = np.array([t + [1.0] * (width - len(t)) for t, _ in rows])
    # rates drawn up to 0.2, scaled so that they respect the weak-coupling bound
    rates = np.array([g + [0.0] * (width - len(g)) for _, g in rows]) * omega
    got = steady_temperatures(temps, rates, omega)
    for row_t, row_g, value in zip(temps.tolist(), rates.tolist(), got.tolist()):
        active = [t for t, g in zip(row_t, row_g) if g > 0]
        assert min(active) <= value <= max(active)


def test_steady_temperature_of_nearly_equal_baths_at_float_max():
    # omega / E is subnormal here; the unclipped form gave 6e-14 (relative)
    # below the colder bath
    temps = [[_big, np.nextafter(_big, 0.0)]]
    t_ss = steady_temperatures(temps, [[0.00052, 0.00052]], 0.0026)[0]
    assert temps[0][1] <= t_ss <= temps[0][0]


@pytest.mark.filterwarnings("error")
def test_steady_temperatures_stay_finite_near_float_max():
    # sum Gamma nbar overflows, and at the float maximum omega nbar and the
    # steady temperature can round past it
    big = sys.float_info.max
    rows = [[big, 0.5 * big, big], [big, big, 0.0], [big] * 3]
    for omega in (1e-3, 1.0, 100.0):
        got = steady_temperatures(rows, np.full((3, 3), 0.2 * omega), omega)
        assert np.isfinite(got).all()
        assert all(min(row) <= t <= max(row) for row, t in zip(rows, got))
        # omega nbar ~ T - omega/2; omega / T is subnormal, so only to ~1e-12
        assert got[0] == pytest.approx(5.0 / 6.0 * big, rel=1e-9)
    assert got[-1] == big
    means = lindblad.mean_temperatures(rows)
    assert means[0] == pytest.approx(5.0 / 6.0 * big, rel=1e-15)
    assert means.tolist()[1:] == [2.0 * (big / 3.0), big]


def test_steady_temperatures_boundary_label_is_inclusive():
    t_ss = steady_temperatures([[3.0, 1.0]], [[0.1, 0.05]])[0]
    assert t_ss == steady_temperature(make_config((3.0, 1.0), (0.1, 0.05)))
    assert classify(make_config((3.0, 1.0), (0.1, 0.05)), DecisionRule.fixed(t_ss)).label == CLASS_HOT
    equal = classify(make_config((2.5, 2.5), (0.1, 0.01)), DecisionRule.fixed(2.5))
    assert equal.steady_temperature == 2.5 and equal.label == CLASS_HOT


def test_steady_temperatures_rejects_bad_input():
    for temps, rates in (
        ([[1.0, math.nan]], [[0.1, 0.1]]),
        ([[1.0, math.inf]], [[0.1, 0.1]]),
        ([[1.0, 2.0]], [[0.1, math.nan]]),
        ([[-1.0, 2.0]], [[0.1, 0.1]]),
        ([[1.0, 2.0]], [[0.0, 0.0]]),
        ([1.0, 2.0], [0.1, 0.1]),
        ([[1.0, 2.0]], [[0.1]]),
    ):
        with pytest.raises(ValueError):
            steady_temperatures(temps, rates)
    with pytest.raises(ValueError, match="frequency"):
        steady_temperatures([[1.0]], [[0.1]], omega=math.nan)
