"""Direct, one-matrix-at-a-time forms of the maps the package builds in
batches, which the tests compare against, and the package's batched builds
applied to one configuration alone."""

import math

import numpy as np

from thermoclass import channel, lindblad, qmat


def _generator_inputs(config) -> tuple:
    """The occupations and rates of one configuration's baths, as the (1, k)
    rows that the package's batched generator builds take."""
    temps, rates = np.array([config.temperatures]), np.array([config.rates])
    return lindblad._occupations(temps, rates, config.omega_s), rates


def lindblad_rhs(config, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt of one configuration on one 2x2 matrix: coherent rotation
    plus one thermal dissipator pair per bath, through the package's batched
    generator action. Hermitian and traceless for Hermitian input."""
    return lindblad._apply_generators(config.omega_s, *_generator_inputs(config), np.asarray(rho, dtype=complex)[None])[0]


def real_generator(config) -> np.ndarray:
    """The 4x4 real generator K, dy/dt = K y on (p_e, p_g, Re c, Im c), that
    evolve_many builds for one configuration alone."""
    return lindblad._real_generators(config.omega_s, *_generator_inputs(config))[0]


def padded(configs) -> tuple:
    """The (n, k) temperatures and rates of n configurations, one row each,
    padded with rate-0 baths at T = 0 to the widest, as evolve_many takes
    them."""
    temps, rates = np.zeros((2, len(configs), max(len(config.rates) for config in configs)))
    for j, config in enumerate(configs):
        temps[j, : len(config.rates)] = config.temperatures
        rates[j, : len(config.rates)] = config.rates
    return temps, rates


def steady_state(config) -> np.ndarray:
    """Diagonal closed-form steady state diag(p_e, p_g) of one configuration;
    its coherences are fully damped."""
    [ratio] = lindblad.steady_population_ratios([config.temperatures], [config.rates], config.omega_s).tolist()
    p_e = 1.0 / (1.0 + ratio)
    return np.diag([p_e, 1.0 - p_e]).astype(complex)


def matrix_of(linear_map) -> np.ndarray:
    """Real 4x4 matrix of a Hermiticity-preserving linear map on 2x2
    matrices, built column by column by applying the map to each coordinate
    basis matrix alone."""
    m = np.empty((4, 4), dtype=float)
    for j, basis in enumerate(channel.BASIS):
        m[:, j] = channel.to_coords(linear_map(basis))
    return m


def partial_trace_system(joint: np.ndarray) -> np.ndarray:
    """Trace the ancilla (second factor) out of one 4x4 two-qubit matrix,
    entry by entry."""
    return np.array([[joint[2 * i, 2 * k] + joint[2 * i + 1, 2 * k + 1] for k in range(2)] for i in range(2)])


def thermal_state(omega: float, temperature: float) -> np.ndarray:
    """Gibbs state diag(p_e, p_g) of one qubit with level splitting omega at
    one temperature, from its two energies +-omega/2 alone; T = 0 and a 1/T
    that overflows weigh the lowest levels alone."""
    beta = math.inf if temperature == 0 else 1.0 / temperature
    energies = np.array([omega / 2.0, -omega / 2.0])
    if math.isinf(beta):
        weights = (energies == energies.min()).astype(float)
    else:
        with np.errstate(over="ignore"):
            weights = np.exp(-beta * (energies - energies.min()))
    return np.diag(weights / weights.sum()).astype(complex)


def kron_flip_flop_hamiltonian(h: float, coupling: float) -> np.ndarray:
    """(h/2)(sigma_z (x) 1 + 1 (x) sigma_z) + J (sigma_- (x) sigma_+ + h.c.),
    as the sum of its Kronecker products."""
    sz, eye = qmat.pauli("z"), np.eye(2, dtype=complex)
    exchange = np.kron(qmat.pauli("minus"), qmat.pauli("plus"))
    return 0.5 * h * (np.kron(sz, eye) + np.kron(eye, sz)) + coupling * (exchange + exchange.conj().T)


def single_collision(rho_s: np.ndarray, temperature: float, config) -> np.ndarray:
    """One collision with a fresh ancilla prepared thermal at `temperature`:
    the joint unitary for time tau on kron(rho_s, ancilla), then the ancilla
    traced out."""
    u = qmat.unitary_propagator(kron_flip_flop_hamiltonian(config.frequency, config.coupling), config.tau)
    joint = np.kron(rho_s, thermal_state(config.frequency, temperature))
    return partial_trace_system(u @ joint @ u.conj().T)


def collision_maps(config) -> np.ndarray:
    """The 4x4 matrix of one collision with each reservoir of config, stacked."""
    return np.stack([
        matrix_of(lambda rho, t=t: single_collision(rho, t, config)) for t in config.temperatures
    ])
