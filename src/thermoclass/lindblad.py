"""Thermal master equation for a qubit dissipating into N finite-temperature
reservoirs: generator construction, fixed-step RK4 time integration, and the
closed-form steady state with its effective temperature.

Units: hbar = k_B = 1; temperatures in units of the qubit splitting, times
scaled by the common mode frequency omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import GuardViolation

# Weak-coupling guard: relaxation rates must stay well below the qubit frequency.
WEAK_COUPLING_MAX = 0.2
# Integrator stability guard on dt * Gamma * (nbar + 1).
RK4_STABILITY_MAX = 0.1


@dataclass(frozen=True)
class ThermalBath:
    """One reservoir: temperature, relaxation rate and mode frequency."""

    temperature: float
    rate: float
    frequency: float

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"bath temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"bath rate must be finite and positive, got {self.rate}")
        if not 0 < self.frequency < math.inf:
            raise ValueError(f"bath frequency must be finite and positive, got {self.frequency}")

    @property
    def occupation(self) -> float:
        return thermal_occupation(self.frequency, self.temperature)


@dataclass(frozen=True)
class SystemConfig:
    """Qubit frequency plus the reservoirs it dissipates into."""

    omega_s: float
    baths: tuple[ThermalBath, ...]

    def __post_init__(self):
        if not 0 < self.omega_s < math.inf:
            raise ValueError(f"qubit frequency must be finite and positive, got {self.omega_s}")
        object.__setattr__(self, "baths", tuple(self.baths))
        if not self.baths:
            raise ValueError("at least one bath is required")
        for i, bath in enumerate(self.baths):
            if abs(bath.frequency - self.omega_s) > 1e-12 * self.omega_s:
                raise ValueError(
                    f"bath {i} frequency {bath.frequency} differs from the qubit "
                    f"frequency {self.omega_s}; resonant reservoirs are required"
                )
            if bath.rate / self.omega_s > WEAK_COUPLING_MAX:
                raise GuardViolation(
                    f"bath {i} rate {bath.rate} exceeds the weak-coupling guard "
                    f"{WEAK_COUPLING_MAX} * omega_s = {WEAK_COUPLING_MAX * self.omega_s}"
                )

    @property
    def temperatures(self) -> tuple[float, ...]:
        return tuple(b.temperature for b in self.baths)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(b.rate for b in self.baths)


def make_config(temperatures, rates, omega: float = 1.0) -> SystemConfig:
    """Build a SystemConfig from parallel temperature/rate lists, all resonant."""
    temperatures = tuple(float(t) for t in temperatures)
    rates = tuple(float(g) for g in rates)
    if len(temperatures) != len(rates):
        raise ValueError(
            f"{len(temperatures)} temperatures but {len(rates)} rates"
        )
    baths = tuple(ThermalBath(t, g, omega) for t, g in zip(temperatures, rates))
    return SystemConfig(omega, baths)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Mean occupation 1/(exp(omega/T) - 1) of a mode at temperature T; 0 at
    T=0 and wherever exp(omega/T) overflows."""
    if omega <= 0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        return 0.0
    try:
        return 1.0 / math.expm1(omega / temperature)
    except OverflowError:
        return 0.0


def _dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[op] rho = op rho op^dag - {op^dag op, rho}/2."""
    opd = op.conj().T
    anti = opd @ op
    return op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)


def _apply_generator(config: SystemConfig, rho: np.ndarray) -> np.ndarray:
    """Linear action of the full generator on an arbitrary 2x2 matrix."""
    h = 0.5 * config.omega_s * qmat.pauli("z")
    out = -1j * (h @ rho - rho @ h)
    lower = qmat.pauli("minus")
    raise_ = qmat.pauli("plus")
    for bath in config.baths:
        n = bath.occupation
        out += bath.rate * ((n + 1.0) * _dissipator(lower, rho) + n * _dissipator(raise_, rho))
    return out


def lindblad_rhs(config: SystemConfig, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt: coherent rotation plus one thermal dissipator pair per bath.

    The result is Hermitian and traceless for Hermitian input.
    """
    return _apply_generator(config, np.asarray(rho, dtype=complex))


# Real coordinates (p_e, p_g, Re c, Im c) with c the |e><g| coherence; the
# basis variations below are d(rho)/d(coordinate).
_COORD_BASIS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
)


def _to_coords(rho: np.ndarray) -> np.ndarray:
    return np.array(
        [rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag], dtype=float
    )


def _from_coords(y: np.ndarray) -> np.ndarray:
    c = y[2] + 1j * y[3]
    return np.array([[y[0], c], [np.conj(c), y[1]]], dtype=complex)


def real_generator(config: SystemConfig) -> np.ndarray:
    """4x4 real matrix K with dy/dt = K y on (p_e, p_g, Re c, Im c).

    Built column by column by applying the master-equation right-hand side to
    the coordinate basis variations, so it is the same linear map as
    lindblad_rhs by construction.
    """
    k = np.empty((4, 4), dtype=float)
    for j, basis in enumerate(_COORD_BASIS):
        k[:, j] = _to_coords(_apply_generator(config, basis))
    return k


@dataclass
class Trajectory:
    """Recorded time evolution: states renormalized to unit trace, with the
    effective temperature of each (NaN where populations are inverted)."""

    times: np.ndarray
    states: list
    temperatures: np.ndarray
    max_trace_drift: float = 0.0

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) != len(self.temperatures):
            raise ValueError("times, states and temperatures must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_temperature(self) -> float:
        return float(self.temperatures[-1])


def boltzmann_temperature(p_g, p_e, omega: float) -> np.ndarray:
    """Temperature omega / ln(p_g/p_e) of two-level populations, elementwise.

    p_g and p_e may be any pair proportional to the populations. An empty
    (or roundoff-negative) excited level gives 0, equal populations give inf
    and inverted populations give NaN.
    """
    p_g = np.asarray(p_g, dtype=float)
    p_e = np.asarray(p_e, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        temps = omega / np.log(p_g / p_e)
    return np.where(p_e <= 0.0, 0.0, np.where(p_e > p_g, math.nan, temps))


def _rate_sums(temperatures: np.ndarray, rates: np.ndarray, omega: float) -> tuple:
    """Per-row decay and excitation rates sum_i Gamma_i (nbar_i + 1) and
    sum_i Gamma_i nbar_i, summed column by column so that every row adds its
    baths left to right whatever the number of rows."""
    with np.errstate(divide="ignore", over="ignore"):
        # T = 0 and overflowing exp(omega/T) both give nbar = 1/inf = 0
        nbar = 1.0 / np.expm1(omega / temperatures)
    return sum((rates * (nbar + 1.0)).T), sum((rates * nbar).T)


def steady_temperatures(temperatures, rates, omega: float = 1.0) -> np.ndarray:
    """Closed-form steady temperatures omega / ln(sum Gamma (nbar+1) / sum Gamma nbar)
    of n reservoir sets at once.

    temperatures and rates are (n, k) arrays, one row per reservoir set; a
    rate of 0 leaves that bath out. When every bath of a row with a nonzero
    rate has the same temperature, the result is that temperature exactly,
    which keeps the boundary of a decision rule exact. Rows whose baths all
    sit at T = 0 give 0. The weak-coupling guard is the caller's to apply.
    """
    temps = np.asarray(temperatures, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if temps.ndim != 2 or temps.shape != rates.shape or temps.shape[1] == 0:
        raise ValueError(f"need (n, k) temperatures and rates, got shapes {temps.shape}, {rates.shape}")
    if not 0 < omega < math.inf:
        raise ValueError(f"qubit frequency must be finite and positive, got {omega}")
    for name, values in (("temperatures", temps), ("rates", rates)):
        if not ((values >= 0) & (values < math.inf)).all():
            raise ValueError(f"{name} must be finite and >= 0")
    active = rates > 0
    if not active.any(axis=1).all():
        raise ValueError("every reservoir set needs a positive rate")
    down, up = _rate_sums(temps, rates, omega)
    coldest = np.where(active, temps, math.inf).min(axis=1)
    hottest = np.where(active, temps, -math.inf).max(axis=1)
    return np.where(coldest == hottest, coldest, boltzmann_temperature(down, up, omega))


def steady_population_ratio(config: SystemConfig) -> float:
    """Steady-state p_g/p_e = sum_i (nbar_i + 1) Gamma_i / sum_i nbar_i Gamma_i.

    Exact for any number of reservoirs; +inf when every bath sits at T = 0
    (pure ground steady state).
    """
    down, up = _rate_sums(np.array([config.temperatures]), np.array([config.rates]), config.omega_s)
    if up[0] == 0.0:
        return math.inf
    return float(down[0] / up[0])


def steady_state(config: SystemConfig) -> np.ndarray:
    """Diagonal steady state diag(p_e, p_g); coherences are fully damped."""
    ratio = steady_population_ratio(config)
    if math.isinf(ratio):
        return qmat.ground_state()
    p_e = 1.0 / (1.0 + ratio)
    return np.diag([p_e, 1.0 - p_e]).astype(complex)


def steady_temperature(config: SystemConfig) -> float:
    """Effective temperature of the steady state (see steady_temperatures)."""
    return float(steady_temperatures([config.temperatures], [config.rates], config.omega_s)[0])


def mean_bath_temperature(config: SystemConfig) -> float:
    """Arithmetic mean of the reservoir temperatures."""
    return sum(config.temperatures) / len(config.baths)


def _coord_trace_distance(dy: np.ndarray) -> float:
    """Trace distance between two states given the difference of coordinates."""
    half_split = 0.5 * (dy[0] - dy[1])
    half_trace = 0.5 * (dy[0] + dy[1])
    radius = math.hypot(half_split, math.hypot(dy[2], dy[3]))
    return 0.5 * (abs(half_trace + radius) + abs(half_trace - radius))


def evolve(
    config: SystemConfig,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    record_every: float = 1.0,
    stop_tol: float | None = 1e-9,
) -> Trajectory:
    """Integrate the master equation with fixed-step RK4.

    The generator is linear and time independent, so the RK4 update is
    applied as its exact one-step matrix (the degree-4 Taylor polynomial of
    exp(dt K)); this is arithmetically the classical RK4 step.  States are
    recorded every `record_every` time units plus the final state, each
    renormalized to unit trace; the raw trace drift is tracked on the side.

    When stop_tol is set, integration stops early once the state moves less
    than stop_tol (trace distance) over one time unit; t_end is a hard cap.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < dt:
        raise ValueError(f"t_end={t_end} shorter than one step dt={dt}")
    fastest = max(b.rate * (b.occupation + 1.0) for b in config.baths)
    if dt * fastest > RK4_STABILITY_MAX:
        raise GuardViolation(
            f"dt * max(Gamma*(nbar+1)) = {dt * fastest:.3g} exceeds "
            f"{RK4_STABILITY_MAX}; shrink dt below {RK4_STABILITY_MAX / fastest:.3g}"
        )
    qmat.validate_density_matrix(rho0, "initial state")

    k = real_generator(config)
    hk = dt * k
    step = np.eye(4) + hk @ (np.eye(4) + hk @ (np.eye(4) + hk @ (np.eye(4) + hk / 4.0) / 3.0) / 2.0)

    n_steps = int(round(t_end / dt))
    record_stride = max(1, int(round(record_every / dt)))
    check_stride = max(1, int(round(1.0 / dt)))

    y = _to_coords(np.asarray(rho0, dtype=complex))
    times = [0.0]
    records = [y.copy()]
    y_check = y.copy()
    for i in range(1, n_steps + 1):
        y = step @ y
        if i % record_stride == 0:
            times.append(i * dt)
            records.append(y.copy())
        if stop_tol is not None and i % check_stride == 0:
            if _coord_trace_distance(y - y_check) < stop_tol:
                if i % record_stride != 0:
                    times.append(i * dt)
                    records.append(y.copy())
                break
            y_check = y.copy()
    else:
        if n_steps % record_stride != 0:
            times.append(n_steps * dt)
            records.append(y.copy())

    drift = max(abs(r[0] + r[1] - 1.0) for r in records)
    states = []
    for r in records:
        rho = _from_coords(r)
        rho /= np.trace(rho).real
        states.append(rho)
    return Trajectory(
        times=np.asarray(times),
        states=states,
        temperatures=boltzmann_temperature(
            [s[1, 1].real for s in states], [s[0, 0].real for s in states], config.omega_s
        ),
        max_trace_drift=drift,
    )
