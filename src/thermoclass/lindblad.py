"""Thermal master equation for a qubit dissipating into N finite-temperature
reservoirs: generator construction, fixed-step RK4 time integration, and the
closed-form steady state with its effective temperature.

Units: hbar = k_B = 1; temperatures in units of the qubit splitting, times
scaled by the common mode frequency omega.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import channel, qmat
from .channel import Trajectory
from .errors import GuardViolation

# Weak-coupling guard: relaxation rates must stay well below the qubit frequency.
WEAK_COUPLING_MAX = 0.2
# Integrator stability guard on dt * Gamma * (nbar + 1).
RK4_STABILITY_MAX = 0.1
# Integrator guard on omega * dt: there RK4 shrinks a pure rotation by 0.994
# per step, and above 2 sqrt(2) it makes the coherence grow without bound.
RK4_ROTATION_MAX = 1.0


@dataclass(frozen=True)
class SystemConfig:
    """Qubit frequency plus the temperatures and relaxation rates of the
    reservoirs it dissipates into, every reservoir resonant with the qubit."""

    omega_s: float
    temperatures: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        temperatures = tuple(float(t) for t in self.temperatures)
        rates = tuple(float(g) for g in self.rates)
        object.__setattr__(self, "temperatures", temperatures)
        object.__setattr__(self, "rates", rates)
        if len(temperatures) != len(rates):
            raise ValueError(f"{len(temperatures)} temperatures but {len(rates)} rates")
        if not temperatures:
            raise ValueError("at least one bath is required")
        for temperature, rate in zip(temperatures, rates):
            if not 0 <= temperature < math.inf:
                raise ValueError(f"bath temperature must be finite and >= 0, got {temperature}")
            if not 0 < rate < math.inf:
                raise ValueError(f"bath rate must be finite and positive, got {rate}")
        if not 0 < self.omega_s < math.inf:
            raise ValueError(f"qubit frequency must be finite and positive, got {self.omega_s}")
        for i, rate in enumerate(rates):
            if rate / self.omega_s > WEAK_COUPLING_MAX:
                raise GuardViolation(
                    f"bath {i} rate {rate} exceeds the weak-coupling guard "
                    f"{WEAK_COUPLING_MAX} * omega_s = {WEAK_COUPLING_MAX * self.omega_s}"
                )


def make_config(temperatures, rates, omega: float = 1.0) -> SystemConfig:
    """Build a SystemConfig from parallel temperature and rate lists."""
    return SystemConfig(omega, temperatures, rates)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Mean occupation 1/(exp(omega/T) - 1) of a mode at temperature T; 0 at
    T=0 and wherever exp(omega/T) overflows, inf wherever omega/T underflows
    to 0."""
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
    except ZeroDivisionError:
        return math.inf


def _dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[op] rho = op rho op^dag - {op^dag op, rho}/2."""
    opd = op.conj().T
    anti = opd @ op
    return op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)


def _apply_generator(config: SystemConfig, rho: np.ndarray, dissipators=None) -> np.ndarray:
    """Linear action of the full generator on an arbitrary 2x2 matrix, or on
    each matrix of a (..., 2, 2) stack; `dissipators` may hold the
    (D[sigma_-] rho, D[sigma_+] rho) pair when it is known already."""
    h = 0.5 * config.omega_s * qmat.pauli("z")
    out = -1j * (h @ rho - rho @ h)
    down, up = dissipators or _dissipators(rho)
    for temperature, rate in zip(config.temperatures, config.rates):
        n = thermal_occupation(config.omega_s, temperature)
        out += rate * ((n + 1.0) * down + n * up)
    return out


def _dissipators(rho: np.ndarray) -> tuple:
    """D[sigma_-] rho and D[sigma_+] rho, which every bath scales by its own
    emission and absorption rates."""
    return _dissipator(qmat.pauli("minus"), rho), _dissipator(qmat.pauli("plus"), rho)


# the _dissipators of channel.BASIS, which every real_generator call reuses
_BASIS_DISSIPATORS = _dissipators(channel.BASIS)


def lindblad_rhs(config: SystemConfig, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt: coherent rotation plus one thermal dissipator pair per bath.

    The result is Hermitian and traceless for Hermitian input.
    """
    return _apply_generator(config, np.asarray(rho, dtype=complex))


def real_generator(config: SystemConfig) -> np.ndarray:
    """4x4 real matrix K with dy/dt = K y on (p_e, p_g, Re c, Im c).

    Its columns are the master-equation right-hand side applied to the
    coordinate basis variations, all four in one stacked call, so it is the
    same linear map as lindblad_rhs by construction.
    """
    return channel.to_coords(_apply_generator(config, channel.BASIS, _BASIS_DISSIPATORS)).T.copy()


def _rate_ratios(temperatures: np.ndarray, rates: np.ndarray, omega: float) -> np.ndarray:
    """Per-row ratio sum_i Gamma_i / sum_i Gamma_i nbar_i of total to
    excitation rate (inf where every bath sits at T = 0), summed column by
    column so that every row adds its baths left to right whatever the
    number of rows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # T = 0 and overflowing exp(omega/T) both give nbar = 1/inf = 0
        nbar = 1.0 / np.expm1(omega / temperatures)
        # a zero-rate bath adds nothing, even where its nbar overflows to inf
        total, up = sum(rates.T), sum(np.where(rates > 0, rates * nbar, 0.0).T)
        ratio = total / up
        hot = np.isinf(up)
        if hot.any():
            # sum Gamma nbar overflows: divide omega by the mean energy instead
            ratio[hot] = omega / _mean_energies(temperatures[hot], rates[hot], omega)
    return ratio


def _mean_energies(temperatures: np.ndarray, rates: np.ndarray, omega: float) -> np.ndarray:
    """Per-row rate-weighted mean of omega nbar = T x / expm1(x), x = omega / T,
    which stays finite and <= T where nbar itself overflows: T where x
    underflows to 0, and 0 at T = 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = omega / temperatures
        energy = np.where(temperatures > 0, temperatures * np.where(x > 0, x / np.expm1(x), 1.0), 0.0)
        return sum((rates / sum(rates.T)[:, None] * energy).T)


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
    ratio = _rate_ratios(temps, rates, omega)
    with np.errstate(divide="ignore", over="ignore"):
        # the population ratio is 1 + total/up; log1p keeps baths so hot that
        # it rounds to 1 finite, and all baths at T = 0 give omega/inf = 0
        log_ratio = np.log1p(ratio)
        t_ss = omega / log_ratio
    # where log1p(ratio) rounds to the ratio, omega / ratio is the mean energy
    # to within an ulp; taken as such, it stays finite where the ratio itself
    # underflows to 0
    flat = log_ratio == ratio
    if flat.any():
        t_ss[flat] = _mean_energies(temps[flat], rates[flat], omega)
    coldest = np.where(active, temps, math.inf).min(axis=1)
    hottest = np.where(active, temps, -math.inf).max(axis=1)
    # the steady temperature lies between the active baths; only roundoff
    # near the float maximum (a subnormal omega / E, or an overflow to inf)
    # leaves that range, and the clip puts it back
    t_ss = np.clip(t_ss, coldest, hottest)
    return np.where(coldest == hottest, coldest, t_ss)


def steady_population_ratio(config: SystemConfig) -> float:
    """Steady-state p_g/p_e = sum_i (nbar_i + 1) Gamma_i / sum_i nbar_i Gamma_i.

    Exact for any number of reservoirs; +inf when every bath sits at T = 0
    (pure ground steady state).
    """
    ratio = _rate_ratios(np.array([config.temperatures]), np.array([config.rates]), config.omega_s)
    return float(1.0 + ratio[0])


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


def mean_temperatures(temperatures) -> np.ndarray:
    """Per-row arithmetic mean of an (n, k) array of finite temperatures,
    summed column by column. Rows whose sum overflows are averaged as
    sum_i T_i / k instead, kept between their coldest and hottest bath
    against roundoff, so every mean stays finite."""
    temps = np.asarray(temperatures, dtype=float)
    k = temps.shape[1]
    with np.errstate(over="ignore"):
        means = sum(temps.T) / k
        over = np.isinf(means)
        if over.any():
            hot = temps[over]
            means[over] = np.clip(sum((hot / k).T), hot.min(axis=1), hot.max(axis=1))
    return means


def mean_bath_temperature(config: SystemConfig) -> float:
    """Arithmetic mean of the reservoir temperatures (see mean_temperatures)."""
    return float(mean_temperatures([config.temperatures])[0])


def _rk4_guard(config: SystemConfig, dt: float) -> None:
    """The RK4 guards: every thermal occupation finite, dt * Gamma * (nbar + 1)
    at most RK4_STABILITY_MAX for every bath, and omega * dt at most
    RK4_ROTATION_MAX."""
    fastest = 0.0
    for i, (temperature, rate) in enumerate(zip(config.temperatures, config.rates)):
        n = thermal_occupation(config.omega_s, temperature)
        if not math.isfinite(n):
            raise GuardViolation(
                f"bath {i} temperature {temperature} gives a non-finite thermal occupation "
                f"at omega = {config.omega_s}; the master equation cannot be integrated"
            )
        fastest = max(fastest, rate * (n + 1.0))
    if dt * fastest > RK4_STABILITY_MAX:
        raise GuardViolation(
            f"dt * max(Gamma*(nbar+1)) = {dt * fastest:.3g} exceeds "
            f"{RK4_STABILITY_MAX}; shrink dt below {RK4_STABILITY_MAX / fastest:.3g}"
        )
    if dt * config.omega_s > RK4_ROTATION_MAX:
        raise GuardViolation(
            f"omega * dt = {dt * config.omega_s:.3g} exceeds {RK4_ROTATION_MAX}; "
            f"shrink dt below {RK4_ROTATION_MAX / config.omega_s:.3g}"
        )


def _rk4_step(generator: np.ndarray, dt: float) -> np.ndarray:
    """The exact one-step matrix of classical RK4 for dy/dt = K y, K a real
    generator: the degree-4 Taylor polynomial of exp(dt K)."""
    hk = dt * generator
    return np.eye(4) + hk @ (np.eye(4) + hk @ (np.eye(4) + hk @ (np.eye(4) + hk / 4.0) / 3.0) / 2.0)


def _slowest_decay_rate(generator: np.ndarray) -> float:
    """Slowest nonzero decay rate of a real generator: the coherence decay
    rate Gamma_Sigma / 2, its Re c diagonal entry. The generator is block
    diagonal with eigenvalues 0, -Gamma_Sigma and -Gamma_Sigma / 2 +- i omega."""
    return float(-generator[2, 2])


def evolve_many(
    configs,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    record_every: float = 1.0,
    stop_tol: float | None = None,
) -> list[Trajectory]:
    """Integrate the master equation of several configurations at once with
    fixed-step RK4 on one shared time grid, all from the state rho0 or each
    from its own state of a (len(configs), 2, 2) stack rho0.

    The generator is linear and time independent, so the RK4 update is
    applied as its exact one-step matrix (see _rk4_step), one per
    configuration, stacked. Nothing reads the states between two records or
    early-stop checks, so the loop applies that matrix raised to the
    gcd of the two strides, one power per interval. States are recorded
    every `record_every` time units plus the final state, each renormalized
    to unit trace; the raw trace drift is tracked on the side.

    When stop_tol is set, each configuration stops early, on its own, once
    its state is within about stop_tol (trace distance) of its fixed point;
    its trajectory ends there. The distance is estimated from how far the
    state moved over the last time unit and the slowest decay rate gamma_min
    of its generator: the test is
    moved < stop_tol * (1 - exp(-gamma_min * t_check)). t_end is a hard cap.
    Each trajectory is bitwise the one evolve gives for its configuration
    and initial state alone.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("at least one configuration is required")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < dt:
        raise ValueError(f"t_end={t_end} shorter than one step dt={dt}")
    for config in configs:
        _rk4_guard(config, dt)
    generators = [real_generator(config) for config in configs]
    step = np.stack([_rk4_step(k, dt) for k in generators])
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape not in ((2, 2), (len(configs), 2, 2)):
        raise ValueError(f"need one 2x2 initial state or {len(configs)} of them, got shape {rho0.shape}")
    for rho in rho0.reshape(-1, 2, 2):
        qmat.validate_density_matrix(rho, "initial state")

    if t_end / dt > sys.maxsize:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} steps exceeds the largest step count {sys.maxsize}")
    n_steps = int(round(t_end / dt))
    record_stride = max(1, int(round(record_every / dt)))
    check_stride = max(1, int(round(1.0 / dt)))
    settled = None
    block = record_stride
    if stop_tol is not None:
        block = math.gcd(record_stride, check_stride)
        t_check = check_stride * dt
        bounds = np.array([-stop_tol * math.expm1(-_slowest_decay_rate(k) * t_check) for k in generators])

        def settled(dy):
            return channel.trace_distances(dy[..., 0]) < bounds

    y0 = np.broadcast_to(channel.to_coords(rho0)[..., None], (len(configs), 4, 1)).copy()
    marks, records, ends = channel.propagate(
        y0, channel.repeated(step, n_steps, block), record_stride, check_stride, settled
    )
    records = records[..., 0]
    traces = records[..., 0] + records[..., 1]
    # times the reciprocal, as numpy divides a complex 2x2 state by its real
    # trace: the curve CSVs are pinned to those bits
    normalized = records * (1.0 / traces)[..., None]
    trajectories = []
    for j, (config, end) in enumerate(zip(configs, np.broadcast_to(ends, len(configs)))):
        # the records before row j stopped, then its state from then on,
        # which the later records repeat
        kept = marks < end
        rows = np.append(np.flatnonzero(kept), -1)
        trajectories.append(Trajectory(
            np.append(marks[kept], end) * dt, normalized[rows, j], config.omega_s,
            float(np.abs(traces[rows, j] - 1.0).max()),
        ))
    return trajectories


def evolve(
    config: SystemConfig,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    record_every: float = 1.0,
    stop_tol: float | None = 1e-9,
) -> Trajectory:
    """Integrate the master equation of one configuration with fixed-step
    RK4 (see evolve_many), by default stopping early within about 1e-9 of
    the fixed point."""
    return evolve_many([config], rho0, t_end, dt, record_every, stop_tol)[0]
