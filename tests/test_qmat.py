import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import thermal_state
from thermoclass import qmat


def test_pauli_z_in_basis():
    np.testing.assert_array_equal(qmat.pauli("z"), np.diag([1.0, -1.0]))


def test_raising_lowering_projectors():
    plus, minus = qmat.pauli("plus"), qmat.pauli("minus")
    np.testing.assert_array_equal(plus @ minus, np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(minus @ plus, np.diag([0.0, 1.0]))
    np.testing.assert_array_equal(plus.conj().T, minus)


def test_pauli_unknown_rejected():
    with pytest.raises(ValueError):
        qmat.pauli("x")


def test_thermal_state_zero_temperature_is_ground():
    np.testing.assert_array_equal(qmat.qubit_thermal_state(1.0, 0.0), np.diag([0.0, 1.0]))


def test_thermal_state_below_the_smallest_inverse_is_ground():
    # 1 / 1e-320 overflows to inf, which is taken as T = 0
    np.testing.assert_array_equal(qmat.qubit_thermal_state(1.0, 1e-320), np.diag([0.0, 1.0]))


def test_thermal_state_infinite_temperature_is_maximally_mixed():
    np.testing.assert_allclose(qmat.qubit_thermal_state(1.0, math.inf), np.diag([0.5, 0.5]), atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_thermal_state_stack_is_bitwise_the_one_state_formula():
    # T = 0, subnormal T whose 1/T overflows, and beta * omega past the float
    # range or omega / 2 rounding to 0, beside random values, in one stacked call
    rng = np.random.default_rng(11)
    temps = [0.0, 5e-324, 1e-320, 1e-3, 1e300, math.inf, *rng.uniform(0.0, 10.0, 20), *10.0 ** rng.uniform(-320, 300, 20)]
    omegas = [5e-324, 1e-3, 0.5, 1.0, 3.7, 1e300]
    stack = qmat.qubit_thermal_state(np.array(omegas)[:, None], temps)
    assert stack.shape == (len(omegas), len(temps), 2, 2)
    for omega, states in zip(omegas, stack):
        for temp, rho in zip(temps, states):
            assert rho.tobytes() == qmat.qubit_thermal_state(omega, temp).tobytes() == thermal_state(omega, temp).tobytes()


def test_thermal_state_stack_rejects_its_first_bad_entry():
    with pytest.raises(ValueError, match="negative temperature -2.0"):
        qmat.qubit_thermal_state(1.0, [1.0, -2.0, -3.0])
    with pytest.raises(ValueError, match="qubit frequency must be positive, got 0.0"):
        qmat.qubit_thermal_state([1.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="thermal state 1: entry"):
        qmat.qubit_thermal_state(1.0, [1.0, math.nan])


def test_thermal_state_unit_temperature_population():
    # p_e = exp(-1/2) / (exp(-1/2) + exp(+1/2)) = 1/(1 + e)
    rho = qmat.qubit_thermal_state(1.0, 1.0)
    np.testing.assert_allclose(rho[0, 0].real, 1.0 / (1.0 + math.e), rtol=1e-14)
    np.testing.assert_allclose(np.trace(rho).real, 1.0, rtol=1e-15)


def test_thermal_state_negative_temperature_rejected():
    with pytest.raises(ValueError, match="negative temperature"):
        qmat.qubit_thermal_state(1.0, -0.1)


def test_thermal_state_excited_population_increases_with_temperature():
    temps = np.linspace(0.0, 8.0, 30)
    populations = [qmat.qubit_thermal_state(1.0, t)[0, 0].real for t in temps]
    assert all(a < b for a, b in zip(populations, populations[1:]))


def test_partial_trace_product_states():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = qmat.random_density_matrix(rng)
        b = qmat.random_density_matrix(rng)
        np.testing.assert_allclose(qmat.partial_trace(np.kron(a, b)), a, atol=1e-14)


def test_partial_trace_bell_state_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(qmat.partial_trace(rho), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        qmat.partial_trace(np.eye(2))


def test_propagator_zero_hamiltonian():
    np.testing.assert_allclose(qmat.unitary_propagator(np.zeros((2, 2)), 5.7), np.eye(2), atol=1e-15)


def test_propagator_full_phase_rotation():
    u = qmat.unitary_propagator(0.5 * qmat.pauli("z"), 2.0 * math.pi)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)


def test_propagator_unitary_and_group_property():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (a + a.conj().T)
        t1, t2 = rng.uniform(0.1, 3.0, 2)
        u1 = qmat.unitary_propagator(h, t1)
        np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(
            u1 @ qmat.unitary_propagator(h, t2), qmat.unitary_propagator(h, t1 + t2), atol=1e-10
        )


def test_propagator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qmat.unitary_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_trace_distance_cases():
    assert qmat.trace_distance(np.diag([0.3, 0.7]), np.diag([0.3, 0.7])) == 0.0
    excited, ground = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    np.testing.assert_allclose(qmat.trace_distance(excited, ground), 1.0, rtol=1e-15)
    np.testing.assert_allclose(
        qmat.trace_distance(np.diag([0.75, 0.25]), np.diag([0.25, 0.75])), 0.5, rtol=1e-15
    )


def test_trace_distance_symmetric():
    rng = np.random.default_rng(5)
    a, b = qmat.random_density_matrix(rng), qmat.random_density_matrix(rng)
    assert qmat.trace_distance(a, b) == pytest.approx(qmat.trace_distance(b, a), rel=1e-12)


def test_trace_distance_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        qmat.trace_distance(np.eye(2) / 2, np.eye(4) / 4)


def test_validate_accepts_random_states():
    rng = np.random.default_rng(7)
    for dim in (2, 4):
        for _ in range(10):
            qmat.validate_density_matrix(qmat.random_density_matrix(rng, dim))


def test_random_density_matrices_drawn_as_a_stack_are_states():
    rhos = qmat.random_density_matrix(np.random.default_rng(7), 2, size=(50,))
    assert rhos.shape == (50, 2, 2)
    qmat.validate_density_matrix(rhos)
    assert len({rho.tobytes() for rho in rhos}) == 50
    qmat.validate_density_matrix(qmat.random_density_matrix(np.random.default_rng(7), 4, size=(3, 5)))
    # one state keeps the bits of A A^dag / Tr(A A^dag) from its two draws
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    assert qmat.random_density_matrix(np.random.default_rng(7)).tobytes() == (rho / np.trace(rho).real).tobytes()


def test_validate_rejects_bad_states():
    with pytest.raises(ValueError, match="Hermitian"):
        qmat.validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        qmat.validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        qmat.validate_density_matrix(np.diag([1.2, -0.2]).astype(complex))


def test_validate_rejects_non_finite_entries():
    with pytest.raises(ValueError, match=r"^state: entry \(0, 0\) is \(nan\+0j\), not finite$"):
        qmat.validate_density_matrix(np.array([[math.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"^state: entry \(1, 0\) is \(inf\+0j\), not finite$"):
        qmat.validate_density_matrix(np.array([[0.5, 0.5], [math.inf, 0.5]]))
    # a stack names its first bad state, here the non-finite one before a bad trace
    good = np.diag([1.0, 0.0])
    stack = np.stack([good, np.diag([0.5, complex(0.5, math.nan)]), np.diag([2.0, 0.0])])
    with pytest.raises(ValueError, match=r"^state 1: entry \(1, 1\) is \(0\.5\+nanj\), not finite$"):
        qmat.validate_density_matrix(stack)
    stack[[1, 2]] = stack[[2, 1]]
    with pytest.raises(ValueError, match=r"^state 1: trace "):
        qmat.validate_density_matrix(stack)


def _single_error(rho, name):
    """The message with which validate_density_matrix rejects one state, or None."""
    try:
        qmat.validate_density_matrix(rho, name)
    except ValueError as error:
        return str(error)
    return None


# ways to spoil a state: none, asymmetric coherence, trace off by 1e-12 * 10^k,
# eigenvalue below the floor by 10^k, the exact tolerance edges, and a NaN entry
_spoil = st.sampled_from(("none", "hermitian", "trace", "eigen", "trace-edge", "eigen-edge", "nan"))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spoils=st.lists(_spoil, min_size=1, max_size=6),
       dim=st.sampled_from((2, 4)), scale=st.integers(-2, 2))
def test_stacked_validation_rejects_exactly_the_single_rejections(seed, spoils, dim, scale):
    rng = np.random.default_rng(seed)
    states = []
    for spoil in spoils:
        rho = qmat.random_density_matrix(rng, dim)
        if spoil == "hermitian":
            rho[0, 1] += 10.0**scale * 1e-12
        elif spoil == "trace":
            rho = rho * (1.0 + 10.0**scale * 1e-12)
        elif spoil == "trace-edge":
            rho = rho + np.diag([1e-12] + [0.0] * (dim - 1))
        elif spoil == "eigen":
            rho = np.diag([1.0 + 10.0**scale * 1e-10] + [0.0] * (dim - 2) + [-(10.0**scale) * 1e-10]).astype(complex)
        elif spoil == "eigen-edge":
            rho = np.diag([1.0 + 1e-10] + [0.0] * (dim - 2) + [-1e-10]).astype(complex)
        elif spoil == "nan":
            rho[-1, 0] = math.nan
        states.append(rho)
    stack = np.stack(states)
    errors = [_single_error(rho, f"state {j}") for j, rho in enumerate(states)]
    rejected = [error for error in errors if error is not None]
    if rejected:
        with pytest.raises(ValueError) as info:
            qmat.validate_density_matrix(stack)
        assert str(info.value) == rejected[0]
    else:
        assert qmat.validate_density_matrix(stack) is stack
    # a stack with two leading axes names both indices of its first bad state
    if rejected and len(states) > 1 and len(states) % 2 == 0:
        first = errors.index(rejected[0])
        with pytest.raises(ValueError, match=rf"^state {first // 2}, {first % 2}: "):
            qmat.validate_density_matrix(stack.reshape(-1, 2, dim, dim))
