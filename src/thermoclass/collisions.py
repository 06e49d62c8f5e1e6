"""Repeated-interaction (collision) model of the same open dynamics: the
qubit meets a stream of freshly prepared thermal ancillas through a brief
resonant flip-flop coupling, with multiple reservoirs entering either as a
convex mixture of the per-reservoir collision maps or as a randomly sampled
interleaving.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import channel, qmat
from .channel import Trajectory
from .errors import GuardViolation
from .lindblad import _checked_baths, thermal_occupation

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
        _check_coupling(self.frequency, self.coupling, self.tau)
        object.__setattr__(self, "reservoirs", tuple((float(t), float(p)) for t, p in self.reservoirs))
        if not self.reservoirs:
            raise ValueError("at least one reservoir is required")
        for t, p in self.reservoirs:
            if not 0 <= t < math.inf:
                raise ValueError(f"reservoir temperature must be finite and >= 0, got {t}")
            if not 0 < p < math.inf:
                raise ValueError(f"reservoir probability must be finite and positive, got {p}")
        _check_sums(np.array([sum(self.probabilities)]))
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


def _check_coupling(frequency: float, coupling: float, tau: float) -> None:
    """CollisionConfig's checks on J and tau and its weak-coupling guard on
    J / h (a GuardViolation), for a frequency already checked finite and
    positive; run_collisions_many makes the same."""
    if not 0 < coupling < math.inf:
        raise ValueError(f"coupling must be finite and positive, got {coupling}")
    if not 0 <= tau < math.inf:
        raise ValueError(f"collision time must be finite and >= 0, got {tau}")
    if coupling / frequency > COUPLING_RATIO_MAX:
        raise GuardViolation(
            f"coupling/frequency = {coupling / frequency:.3g} exceeds "
            f"the weak-coupling guard {COUPLING_RATIO_MAX}"
        )


def _check_sums(totals: np.ndarray) -> None:
    """Each reservoir set's probabilities, summed to one of totals, add up
    to 1 within 1e-12; CollisionConfig and run_collisions_many share it."""
    off = np.abs(totals - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"reservoir probabilities sum to {totals[off.argmax()].item()}, expected 1")


def flip_flop_hamiltonian(h: float, coupling: float) -> np.ndarray:
    """Resonant exchange Hamiltonian (h/2)(sigma_z^a + sigma_z^s) +
    J (sigma_+^a sigma_-^s + h.c.) on system (x) ancilla.

    Conserves the total excitation number, so only |eg> and |ge> mix.
    coupling=0 is allowed as the free (non-interacting) limit. Filled in
    directly, h/2 times (2, 0, 0, -2) on the diagonal and J linking |eg> and
    |ge>, bitwise the sum of Kronecker products (+ 0.0, the exchange's zero
    on the diagonal, makes an h/2 that rounds to 0 give +0.0, not -0.0).
    """
    if h <= 0 or coupling < 0:
        raise ValueError(f"need h > 0 and coupling >= 0, got ({h}, {coupling})")
    hamiltonian = np.diag(0.5 * h * np.array([2.0, 0.0, 0.0, -2.0]) + 0.0).astype(complex)
    hamiltonian[1, 2] = hamiltonian[2, 1] = coupling
    return hamiltonian


def run_collisions(
    rho0: np.ndarray, config: CollisionConfig, n: int, record_every: int = 1
) -> Trajectory:
    """Apply n collisions starting from rho0, recording every record_every-th
    state (collision 0 and n always included); the trajectory's times are
    collision counts. This is run_collisions_many for one configuration.
    """
    seeds = None if config.schedule == "mixture" else [config.seed]
    return run_collisions_many([config.temperatures], [config.probabilities], rho0, n, record_every,
                               config.frequency, config.coupling, config.tau, seeds)[0]


def run_collisions_many(temperatures, probabilities, rho0: np.ndarray, n: int, record_every: int = 1,
                        frequency: float = 1.0, coupling: float = 0.05, tau: float = 1.0,
                        seeds=None) -> list[Trajectory]:
    """n collisions of each of several reservoir sets at once, all from the
    state rho0 or each from its own state of an (m, 2, 2) stack rho0.
    temperatures and probabilities are (m, k) arrays, one row per reservoir
    set; a probability of 0 leaves that reservoir out, which pads narrower
    rows. Every set shares the frequency h, the coupling J and the collision
    time tau. The arrays are checked as evolve_many checks its baths, then
    J, tau, the weak-coupling guard and each row's probability sum as
    CollisionConfig checks them, with its messages. Row j is bitwise the run
    of its own reservoirs alone (run_collisions), whatever its padding.

    Each reservoir's collision is a fixed linear map on the qubit, built once
    as a 4x4 matrix by applying the collision to the coordinate basis; the
    maps of every reservoir of every set are built in one batch.
    With seeds None (mixture), every step applies rho -> sum_i p_i
    Lambda_i[rho]. Otherwise (sampled) every step draws one reservoir, row j
    from default_rng(seeds[j]).
    Between two records the collisions are applied as one product matrix,
    one per set, stacked, so the sets step together.
    """
    temps, probs = _checked_baths(temperatures, probabilities, frequency, ("probabilities", "probability"))
    _check_coupling(frequency, coupling, tau)
    # summed column by column from 0, as CollisionConfig sums its tuple
    _check_sums(sum(probs.T))
    rows, k = temps.shape
    if seeds is not None and len(seeds) != rows:
        raise ValueError(f"need {rows} seeds, one per reservoir set, got {len(seeds)}")
    if n < 1:
        raise ValueError(f"need at least one collision, got n={n}")
    if n > sys.maxsize:
        raise ValueError(f"n={n} collisions exceeds the largest collision count {sys.maxsize}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape not in ((2, 2), (rows, 2, 2)):
        raise ValueError(f"need one 2x2 initial state or {rows} of them, got shape {rho0.shape}")
    qmat.validate_density_matrix(rho0, "initial state")

    maps = _collision_maps(frequency, coupling, tau, temps)
    if seeds is None:
        # a fold over the k columns that starts from 0, as sum does, so that
        # zero padding adds +0.0 to entries that are already +0.0 or nonzero
        mixtures = sum(p[:, None, None] * m for p, m in zip(probs.T, maps.swapaxes(0, 1)))
        blocks = channel.repeated(mixtures, n, record_every)
    else:
        # one draw of all n indices gives the same stream as n single draws,
        # and trailing zero probabilities leave it as it is; each row's picks
        # index its own maps in the table of every row's maps
        picks = np.stack([np.random.default_rng(seed).choice(k, size=n, p=row) for seed, row in zip(seeds, probs)])
        blocks = _sampled_blocks(maps.reshape(-1, 4, 4), picks + k * np.arange(rows)[:, None], record_every)

    y0 = np.broadcast_to(channel.to_coords(rho0)[..., None], (rows, 4, 1))
    marks, coords = channel.propagate(y0, blocks, n, record_every)
    # copied out, so that no trajectory keeps propagate's whole record buffer alive
    return [Trajectory(times=marks, coords=coords[:, j, :, 0].copy(), omega=frequency) for j in range(rows)]


def _collision_maps(h: float, coupling: float, tau: float, temperatures: np.ndarray) -> np.ndarray:
    """The 4x4 matrices of one collision with a reservoir at each of the
    temperatures, an (m, k, 4, 4) stack for (m, k) temperatures, all at the
    frequency h, coupling J and collision time tau.

    A collision with an ancilla prepared thermal at T is the joint unitary
    for time tau, after which the ancilla is traced out and discarded, so
    the map is completely positive and trace preserving by construction.
    The unitary is computed once. The ancillas come from one
    qubit_thermal_state pass over the temperatures, validated as one stack;
    the tensor products, the unitary conjugations and the partial traces of
    every reservoir's four coordinate basis matrices run as one stacked pass.
    """
    u = qmat.unitary_propagator(flip_flop_hamiltonian(h, coupling), tau)
    ancillas = qmat.qubit_thermal_state(h, temperatures).reshape(-1, 2, 2)
    # kron(basis, ancilla) for every reservoir and basis matrix: (m k, 4, 4, 4)
    joint = channel.BASIS[None, :, :, None, :, None] * ancillas[:, None, None, :, None, :]
    joint = joint.reshape(-1, 4, 4, 4)
    evolved = u @ joint @ u.conj().T
    # C order, as numpy's matrix products of other layouts may round differently
    maps = channel.to_coords(qmat.partial_trace(evolved)).swapaxes(1, 2).copy()
    return maps.reshape(*np.shape(temperatures), 4, 4)


# record intervals whose sampled-schedule products are formed in one batch
_BATCH = 1024


def _products(maps: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Product of the matrices maps[runs[..., 0]], maps[runs[..., 1]], ... for
    each row of the index array runs along its last axis, later collisions
    on the left."""
    acc = maps[runs[..., 0]]
    for j in range(1, runs.shape[-1]):
        acc = maps[runs[..., j]] @ acc
    return acc


def _sampled_blocks(maps: np.ndarray, picks: np.ndarray, block: int):
    """The collisions of the picked maps as blocks for channel.propagate, for
    each row of the (b, n) index array picks at once: the products of each
    run of `block` picks, then of the remaining picks, stacked over the b
    rows. The products are formed _BATCH runs at a time, so memory does not
    grow with the number of collisions."""
    rows, n = picks.shape
    full = n // block
    if full:  # numpy rejects even an empty reshape to rows longer than its largest dimension
        runs = picks[:, : full * block].reshape(rows, full, block)
        for start in range(0, full, _BATCH):
            products = _products(maps, runs[:, start : start + _BATCH])
            yield from zip(itertools.repeat(block), products.swapaxes(0, 1))
    rest = picks[:, full * block :]
    if rest.shape[1]:
        yield rest.shape[1], _products(maps, rest)


def reservoir_probabilities(rates, temperatures, omega: float = 1.0, calibrated: bool = True):
    """Collision probabilities matching a set of per-reservoir relaxation rates.

    A thermal qubit ancilla at temperature T carries excitation probability
    nbar/(2 nbar + 1), not nbar, so per collision it thermalizes the system
    a factor (2 nbar + 1) more weakly than a bosonic reservoir of the same
    rate.  calibrated=True folds that factor in (p_i proportional to
    Gamma_i * (nbar_i + 1/2)), which makes the mixture steady state coincide
    with the continuous weak-coupling steady state for rates Gamma_i.
    calibrated=False uses plain proportionality p_i = Gamma_i / sum(Gamma);
    with reservoirs at different temperatures that weighting over-counts the
    colder ones and the two steady states visibly part ways.
    """
    rates = np.asarray(rates, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    if rates.shape != temperatures.shape:
        raise ValueError("rates and temperatures must have matching shapes")
    if not rates.size:
        raise ValueError("at least one reservoir is required")
    if not ((rates > 0) & (rates < math.inf)).all():
        raise ValueError("rates must be finite and positive")
    if not ((temperatures >= 0) & (temperatures < math.inf)).all():
        raise ValueError("temperatures must be finite and >= 0")
    temperatures = temperatures.tolist()  # Python floats: their overflows are not numpy warnings
    # Gamma (nbar + 1/2) is Gamma (2 nbar + 1) halved, exactly, so it gives
    # the same probabilities, and it overflows only for baths twice as hot
    factors = [thermal_occupation(omega, t) + 0.5 if calibrated else 1.0 for t in temperatures]
    with np.errstate(over="ignore"):
        weights = rates * factors
        total = weights.sum()
    if not total < math.inf:
        # some weight or their sum overflows: weigh by logarithms relative to
        # the largest, with nbar + 1/2 = T / omega where nbar overflows
        logs = np.log(rates) + [
            math.log(t) - math.log(omega) if math.isinf(f) else math.log(f)
            for t, f in zip(temperatures, factors)
        ]
        weights = np.exp(logs - logs.max())
        total = weights.sum()
    return tuple(weights / total)
