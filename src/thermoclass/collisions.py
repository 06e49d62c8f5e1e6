"""Repeated-interaction (collision) model of the same open dynamics: the
qubit meets a stream of freshly prepared thermal ancillas through a brief
resonant flip-flop coupling, with multiple reservoirs entering either as a
convex mixture of the per-reservoir collision maps or as a randomly sampled
interleaving.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, qmat
from .channel import Trajectory
from .errors import GuardViolation
from .lindblad import thermal_occupation

# Weak-coupling guard on the collision coupling relative to the qubit frequency.
COUPLING_RATIO_MAX = 0.1

SCHEDULES = ("mixture", "sampled")


@dataclass(frozen=True)
class CollisionConfig:
    """Collision parameters: common frequency h, flip-flop coupling J,
    collision duration tau, and the reservoir list as (temperature,
    probability) pairs. schedule="mixture" applies the probability-weighted
    sum of the per-reservoir maps at every step; "sampled" draws one
    reservoir per collision (seed required)."""

    frequency: float
    coupling: float
    tau: float
    reservoirs: tuple[tuple[float, float], ...]
    schedule: str = "mixture"
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be finite and positive, got {self.frequency}")
        if not 0 < self.coupling < math.inf:
            raise ValueError(f"coupling must be finite and positive, got {self.coupling}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"collision time must be finite and >= 0, got {self.tau}")
        if self.coupling / self.frequency > COUPLING_RATIO_MAX:
            raise GuardViolation(
                f"coupling/frequency = {self.coupling / self.frequency:.3g} exceeds "
                f"the weak-coupling guard {COUPLING_RATIO_MAX}"
            )
        object.__setattr__(self, "reservoirs", tuple((float(t), float(p)) for t, p in self.reservoirs))
        if not self.reservoirs:
            raise ValueError("at least one reservoir is required")
        for t, p in self.reservoirs:
            if not 0 <= t < math.inf:
                raise ValueError(f"reservoir temperature must be finite and >= 0, got {t}")
            if not 0 < p < math.inf:
                raise ValueError(f"reservoir probability must be finite and positive, got {p}")
        total = sum(p for _, p in self.reservoirs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"reservoir probabilities sum to {total}, expected 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.schedule == "sampled" and self.seed is None:
            raise ValueError("sampled schedule requires a seed")

    @property
    def temperatures(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.reservoirs)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.reservoirs)


def flip_flop_hamiltonian(h: float, coupling: float) -> np.ndarray:
    """Resonant exchange Hamiltonian (h/2)(sigma_z^a + sigma_z^s) +
    J (sigma_+^a sigma_-^s + h.c.) on system (x) ancilla.

    Conserves the total excitation number, so only |eg> and |ge> mix.
    coupling=0 is allowed as the free (non-interacting) limit.
    """
    if h <= 0 or coupling < 0:
        raise ValueError(f"need h > 0 and coupling >= 0, got ({h}, {coupling})")
    sz = qmat.pauli("z")
    eye = np.eye(2, dtype=complex)
    free = 0.5 * h * (np.kron(sz, eye) + np.kron(eye, sz))
    # sigma_+ on the ancilla, sigma_- on the system (second/first factor)
    exchange = np.kron(qmat.pauli("minus"), qmat.pauli("plus"))
    return free + coupling * (exchange + exchange.conj().T)


def _collide(rho_s: np.ndarray, rho_ancilla: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    joint = np.kron(rho_s, rho_ancilla)
    evolved = propagator @ joint @ propagator.conj().T
    return qmat.partial_trace(evolved, keep="system")


def single_collision(rho_s: np.ndarray, temperature: float, config: CollisionConfig) -> np.ndarray:
    """One collision with a fresh ancilla prepared thermal at `temperature`:
    joint unitary for time tau, then the ancilla is traced out and discarded.
    The map is completely positive and trace preserving by construction."""
    qmat.validate_density_matrix(rho_s, "system state")
    u = qmat.unitary_propagator(flip_flop_hamiltonian(config.frequency, config.coupling), config.tau)
    return _collide(rho_s, qmat.qubit_thermal_state(config.frequency, temperature), u)


def run_collisions(
    rho0: np.ndarray, config: CollisionConfig, n: int, record_every: int = 1
) -> Trajectory:
    """Apply n collisions starting from rho0, recording every record_every-th
    state (collision 0 and n always included); the trajectory's times are
    collision counts.

    Each reservoir's collision is a fixed linear map on the qubit, built once
    as a 4x4 matrix by applying the collision to the coordinate basis.
    mixture: every step applies rho -> sum_i p_i Lambda_i[rho].
    sampled: every step draws one reservoir (deterministic under the seed).
    Between two records the collisions are applied as one product matrix.
    """
    if n < 1:
        raise ValueError(f"need at least one collision, got n={n}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    qmat.validate_density_matrix(rho0, "initial state")

    u = qmat.unitary_propagator(flip_flop_hamiltonian(config.frequency, config.coupling), config.tau)
    maps = [
        channel.matrix_of(
            functools.partial(_collide, rho_ancilla=qmat.qubit_thermal_state(config.frequency, t), propagator=u)
        )
        for t in config.temperatures
    ]
    probs = np.asarray(config.probabilities)
    if config.schedule == "mixture":
        blocks = channel.repeated(sum(p * m for p, m in zip(probs, maps)), n, record_every)
    else:
        # one draw of all n indices gives the same stream as n single draws
        picks = np.random.default_rng(config.seed).choice(len(maps), size=n, p=probs)
        blocks = _sampled_blocks(np.stack(maps), picks, record_every)

    marks, coords, _ = channel.propagate(channel.to_coords(np.asarray(rho0, dtype=complex)), blocks, record_every)
    return Trajectory(times=marks, coords=coords, omega=config.frequency)


# record intervals whose sampled-schedule products are formed in one batch
_BATCH = 1024


def _products(maps: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Product of the matrices maps[runs[r, 0]], maps[runs[r, 1]], ... for each
    row r of the (m, k) index array runs, later collisions on the left."""
    acc = maps[runs[:, 0]]
    for j in range(1, runs.shape[1]):
        acc = maps[runs[:, j]] @ acc
    return acc


def _sampled_blocks(maps: np.ndarray, picks: np.ndarray, block: int):
    """The collisions of the picked maps as blocks for channel.propagate: the
    product of each run of `block` picks, then of the remaining picks. The
    products are formed _BATCH runs at a time, so memory does not grow with
    the number of collisions."""
    full = len(picks) // block
    runs = picks[: full * block].reshape(full, block)
    for start in range(0, full, _BATCH):
        yield from zip(itertools.repeat(block), _products(maps, runs[start : start + _BATCH]))
    rest = picks[full * block :]
    if len(rest):
        yield len(rest), _products(maps, rest[None])[0]


def reservoir_probabilities(rates, temperatures, omega: float = 1.0, calibrated: bool = True):
    """Collision probabilities matching a set of per-reservoir relaxation rates.

    A thermal qubit ancilla at temperature T carries excitation probability
    nbar/(2 nbar + 1), not nbar, so per collision it thermalizes the system
    a factor (2 nbar + 1) more weakly than a bosonic reservoir of the same
    rate.  calibrated=True folds that factor in (p_i proportional to
    Gamma_i * (2 nbar_i + 1)), which makes the mixture steady state coincide
    with the continuous weak-coupling steady state for rates Gamma_i.
    calibrated=False uses plain proportionality p_i = Gamma_i / sum(Gamma);
    with reservoirs at different temperatures that weighting over-counts the
    colder ones and the two steady states visibly part ways.
    """
    rates = np.asarray(rates, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    if rates.shape != temperatures.shape:
        raise ValueError("rates and temperatures must have matching shapes")
    if np.any(rates <= 0):
        raise ValueError("rates must be positive")
    weights = rates.copy()
    if calibrated:
        weights *= np.array([2.0 * thermal_occupation(omega, t) + 1.0 for t in temperatures])
    return tuple(weights / weights.sum())


def mixture_config(
    rates,
    temperatures,
    frequency: float = 1.0,
    coupling: float = 0.05,
    tau: float = 1.0,
    calibrated: bool = True,
    schedule: str = "mixture",
    seed: int | None = None,
) -> CollisionConfig:
    """CollisionConfig whose reservoir probabilities mirror the given
    relaxation rates (see reservoir_probabilities)."""
    probs = reservoir_probabilities(rates, temperatures, frequency, calibrated)
    return CollisionConfig(
        frequency=frequency,
        coupling=coupling,
        tau=tau,
        reservoirs=tuple(zip(temperatures, probs)),
        schedule=schedule,
        seed=seed,
    )
