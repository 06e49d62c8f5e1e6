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
from functools import reduce

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
                raise _weak_coupling_violation(i, rate, self.omega_s)


def _weak_coupling_violation(i: int, rate: float, omega: float) -> GuardViolation:
    return GuardViolation(f"bath {i} rate {rate} exceeds the weak-coupling guard "
                          f"{WEAK_COUPLING_MAX} * omega_s = {WEAK_COUPLING_MAX * omega}")


def make_config(temperatures, rates, omega: float = 1.0) -> SystemConfig:
    """Build a SystemConfig from parallel temperature and rate lists."""
    return SystemConfig(omega, temperatures, rates)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Mean occupation 1/(exp(omega/T) - 1) of a mode at temperature T; 0 at
    T=0 and wherever exp(omega/T) overflows, inf wherever omega/T underflows
    to 0."""
    # not >, not >=: so that NaN fails too
    if not omega > 0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    if not temperature >= 0:
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


def _apply_generators(omega: float, occupations, rates, rho: np.ndarray) -> np.ndarray:
    """Linear action of b generators on arbitrary 2x2 matrices: rho is a
    (b, ..., 2, 2) stack, or broadcasts to one, whose j-th entry the j-th
    generator acts on. omega is the qubit frequency of all b, occupations
    and rates are (b, k), one column per bath; a bath of rate 0 is padding
    and adds nothing."""
    lead = (slice(None),) + (None,) * (rho.ndim - 1)  # (b,) values against rho's axes
    h = 0.5 * omega * qmat.pauli("z")
    out = -1j * (h @ rho - rho @ h)
    # D[sigma_-] rho and D[sigma_+] rho, which every bath scales by its own
    # emission and absorption rates
    down, up = _dissipator(qmat.pauli("minus"), rho), _dissipator(qmat.pauli("plus"), rho)
    for n, rate in zip(np.asarray(occupations).T, np.asarray(rates).T):
        n, active = n[lead], (rate > 0)[lead]
        out = np.where(active, out + rate[lead] * ((n + 1.0) * down + n * up), out)
    return out


def _occupations(temperatures: np.ndarray, rates: np.ndarray, omega: float) -> np.ndarray:
    """The thermal occupations of (n, k) baths from thermal_occupation, 0
    where the rate is."""
    occupations, active = np.zeros(temperatures.shape), rates > 0
    occupations[active] = [thermal_occupation(omega, t) for t in temperatures[active].tolist()]
    return occupations


def _real_generators(omega: float, occupations, rates) -> np.ndarray:
    """The (b, 4, 4) real generators of b reservoir sets (see
    _apply_generators for the arguments), all built in one pass over the
    coordinate basis."""
    out = _apply_generators(omega, occupations, rates, channel.BASIS[None])
    return channel.to_coords(out).swapaxes(1, 2).copy()


def _rate_ratios(temperatures: np.ndarray, rates: np.ndarray, omega: float) -> np.ndarray:
    """Per-row ratio sum_i Gamma_i / sum_i Gamma_i nbar_i of total to
    excitation rate (inf where every bath sits at T = 0); each row adds its
    baths left to right whatever the number of rows."""
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


def _checked_baths(temperatures, rates, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """temperatures and rates as (n, k) float arrays of one shape, entries
    finite and >= 0, each row with a positive rate, and omega finite and
    positive; any other input raises ValueError."""
    temps = np.asarray(temperatures, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if temps.ndim != 2 or temps.shape != rates.shape or 0 in temps.shape:
        raise ValueError(f"need (n, k) temperatures and rates, n, k >= 1, got shapes {temps.shape}, {rates.shape}")
    if not 0 < omega < math.inf:
        raise ValueError(f"qubit frequency must be finite and positive, got {omega}")
    for name, values in (("temperatures", temps), ("rates", rates)):
        if not ((values >= 0) & (values < math.inf)).all():
            raise ValueError(f"{name} must be finite and >= 0")
    if not reduce(np.logical_or, (rates > 0).T).all():
        raise ValueError("every reservoir set needs a positive rate")
    return temps, rates


def steady_temperatures(temperatures, rates, omega: float = 1.0) -> np.ndarray:
    """Closed-form steady temperatures omega / ln(sum Gamma (nbar+1) / sum Gamma nbar)
    of n reservoir sets at once.

    temperatures and rates are (n, k) arrays, one row per reservoir set; a
    rate of 0 leaves that bath out. When every bath of a row with a nonzero
    rate has the same temperature, the result is that temperature exactly,
    which keeps the boundary of a decision rule exact. Rows whose baths all
    sit at T = 0 give 0. The weak-coupling guard is the caller's to apply.
    Sums, minima and maxima over the baths fold the k columns: on 1e4 rows
    2 wide, numpy's row reductions cost 10 to 60 times more.
    """
    temps, rates = _checked_baths(temperatures, rates, omega)
    active = rates > 0
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
    coldest = reduce(np.minimum, np.where(active, temps, math.inf).T)
    hottest = reduce(np.maximum, np.where(active, temps, -math.inf).T)
    # the steady temperature lies between the active baths; only roundoff
    # near the float maximum (a subnormal omega / E, or an overflow to inf)
    # leaves that range, and the clip puts it back
    t_ss = np.clip(t_ss, coldest, hottest)
    return np.where(coldest == hottest, coldest, t_ss)


def steady_population_ratios(temperatures, rates, omega: float = 1.0) -> np.ndarray:
    """Steady-state p_g/p_e = sum_i (nbar_i + 1) Gamma_i / sum_i nbar_i Gamma_i
    of n reservoir sets at once, from (n, k) temperatures and rates; a rate
    of 0 leaves that bath out, and rows whose baths all sit at T = 0 give
    inf (a pure ground steady state, p_e = 1 / (1 + inf) = 0). Unlike
    steady_temperatures it validates nothing."""
    return 1.0 + _rate_ratios(np.asarray(temperatures, dtype=float), np.asarray(rates, dtype=float), omega)


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
            means[over] = np.clip(sum((hot / k).T), reduce(np.minimum, hot.T), reduce(np.maximum, hot.T))
    return means


def _rk4_guard(temperatures: np.ndarray, rates: np.ndarray, occupations: np.ndarray, omega: float, dt: float) -> None:
    """The RK4 guards on all (n, k) baths at once: every occupation finite,
    dt * Gamma * (nbar + 1) <= RK4_STABILITY_MAX and omega * dt <=
    RK4_ROTATION_MAX. The first bad row raises for its first failed guard."""
    fastest = reduce(np.maximum, (rates * (occupations + 1.0)).T)  # inf where an occupation is
    unstable = dt * fastest > RK4_STABILITY_MAX
    rotating = dt * omega > RK4_ROTATION_MAX  # then every row fails
    if not (rotating or unstable.any()):
        return
    j = 0 if rotating else int(unstable.argmax())
    for i, (temperature, n) in enumerate(zip(temperatures[j].tolist(), occupations[j].tolist())):
        if not math.isfinite(n):
            raise GuardViolation(f"bath {i} temperature {temperature} gives a non-finite thermal occupation "
                                 f"at omega = {omega}; the master equation cannot be integrated")
    if unstable[j]:
        raise GuardViolation(f"dt * max(Gamma*(nbar+1)) = {dt * fastest[j]:.3g} exceeds "
                             f"{RK4_STABILITY_MAX}; shrink dt below {RK4_STABILITY_MAX / fastest[j]:.3g}")
    raise GuardViolation(f"omega * dt = {dt * omega:.3g} exceeds {RK4_ROTATION_MAX}; "
                         f"shrink dt below {RK4_ROTATION_MAX / omega:.3g}")


def _rk4_step(generator: np.ndarray, dt: float) -> np.ndarray:
    """The exact one-step matrix of classical RK4 for dy/dt = K y, K a real
    generator or a (b, 4, 4) stack of them: the degree-4 Taylor polynomial
    of exp(dt K)."""
    hk = dt * generator
    return np.eye(4) + hk @ (np.eye(4) + hk @ (np.eye(4) + hk @ (np.eye(4) + hk / 4.0) / 3.0) / 2.0)


def _stride(interval: float, dt: float) -> int:
    """The steps of dt in interval, at least 1. A count beyond the float
    range, which round cannot make an integer, is beyond every run and is
    taken as the largest float."""
    return max(1, int(round(min(interval / dt, sys.float_info.max))))


def evolve_many(temperatures, rates, rho0: np.ndarray, t_end: float, dt: float, record_every: float = 1.0,
                omega: float = 1.0) -> list[Trajectory]:
    """Integrate the master equation of n reservoir sets with fixed-step RK4
    on one shared time grid from 0 to t_end, all from the state rho0 or each
    from its own state of an (n, 2, 2) stack rho0. temperatures and rates
    are (n, k) arrays, checked as in steady_temperatures (a rate of 0 leaves
    that bath out, which pads narrower rows), and omega is every row's qubit
    frequency. The first row that fails the weak-coupling or an RK4 guard
    raises the GuardViolation that it raises alone.

    The RK4 steps of all rows are built in one batched pass (see _rk4_step)
    and applied by channel.propagate, raised to the record stride. States
    are recorded every `record_every` time units plus the final state, each
    renormalized to unit trace; max_trace_drift is the largest |trace - 1|
    of the raw records. The trajectories share one times array and are
    columns of one record block, so row j is bitwise that row's trajectory
    alone, whatever its padding.

    A NaN or non-positive dt or record_every, and a NaN t_end or one shorter
    than dt, raise ValueError.
    """
    temps, rates = _checked_baths(temperatures, rates, omega)
    strong = np.argwhere(rates / omega > WEAK_COUPLING_MAX)
    if len(strong):
        j, i = strong[0].tolist()
        raise _weak_coupling_violation(i, rates[j, i].item(), omega)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if math.isnan(t_end):
        raise ValueError(f"t_end must be a number, got {t_end}")
    if t_end < dt:
        raise ValueError(f"t_end={t_end} shorter than one step dt={dt}")
    if not record_every > 0:
        raise ValueError(f"record interval must be positive, got {record_every}")
    occupations = _occupations(temps, rates, omega)
    _rk4_guard(temps, rates, occupations, omega, dt)
    step = _rk4_step(_real_generators(omega, occupations, rates), dt)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape not in ((2, 2), (len(temps), 2, 2)):
        raise ValueError(f"need one 2x2 initial state or {len(temps)} of them, got shape {rho0.shape}")
    qmat.validate_density_matrix(rho0, "initial state")

    if t_end / dt > sys.maxsize:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} steps exceeds the largest step count {sys.maxsize}")
    n_steps = int(round(t_end / dt))
    stride = _stride(record_every, dt)
    y0 = np.broadcast_to(channel.to_coords(rho0)[..., None], (len(temps), 4, 1))
    marks, records = channel.propagate(y0, channel.repeated(step, n_steps, stride), n_steps, stride)
    records = records[..., 0]
    traces = records[..., 0] + records[..., 1]
    # times the reciprocal, as numpy divides a complex 2x2 state by its real
    # trace: the curve CSVs are pinned to those bits
    normalized = records * (1.0 / traces)[..., None]
    times = marks * dt
    return [Trajectory(times, normalized[:, j], omega, drift)
            for j, drift in enumerate(np.abs(traces - 1.0).max(axis=0).tolist())]


def evolve(config: SystemConfig, rho0: np.ndarray, t_end: float, dt: float, record_every: float = 1.0) -> Trajectory:
    """Integrate the master equation of one configuration with fixed-step
    RK4 from 0 to t_end (see evolve_many)."""
    return evolve_many([config.temperatures], [config.rates], rho0, t_end, dt, record_every, config.omega_s)[0]
