"""End-to-end verification suite: quantitative reproduction of the headline
results plus the structural property checks, each reported as one pass/fail
line. The CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import channel, classifier, collisions, lindblad, qmat, tables, transmon

# Closed-form steady temperatures for the reference two-reservoir runs
# (T1=3, T2=1) with rate pairs (0.1, 0.1), (0.1, 0.05), (0.05, 0.1),
# evaluated from the population-ratio formula.
REFERENCE_ASYMPTOTES = (2.013636202, 2.343694237, 1.681284487)
# Measured max deviation of the Gamma=0.08 sweep from its endpoint chord
# (dense evaluation of the closed form; about 0.73% of T1-T2).
SWEEP_CHORD_BOUND = 0.0147


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number}/8] {self.name}: {status} ({self.details})"


def _random_baths(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random reservoir sets of 1 to 4 baths, as (n, 4) temperatures and
    rates whose columns past each set's last bath are 0."""
    counts = rng.integers(1, 5, n)
    temps, rates = rng.uniform(0.5, 5.0, (n, 4)), rng.uniform(0.01, 0.1, (n, 4))
    padding = np.arange(4) >= counts[:, None]
    temps[padding] = rates[padding] = 0.0
    return temps, rates


def check_ode_matches_analytic(n_configs: int = 100, seed: int = 20240101) -> CriterionResult:
    """Time integration from random initial states lands on the closed-form
    steady state for randomized reservoir configurations."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    temps, rates = _random_baths(rng, n_configs)
    rho0s = qmat.random_density_matrix(rng, 2, (n_configs,))
    trajs = lindblad.evolve_many(temps, rates, rho0s, t_end=4000.0, dt=0.05, record_every=100.0)
    # the closed-form steady states from one call; rate-0 padding adds exact zeros
    p_e = 1.0 / (1.0 + lindblad.steady_population_ratios(temps, rates))
    steady = np.stack([p_e, 1.0 - p_e, np.zeros(n_configs), np.zeros(n_configs)], axis=1)
    worst = float(channel.trace_distances(np.array([traj.coords[-1] for traj in trajs]) - steady).max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    return CriterionResult(
        1, "ode-vs-analytic steady state",
        ok, f"{n_configs} configs, max trace distance {worst:.2e}, {elapsed:.1f} s",
    )


def check_relaxation_curves() -> CriterionResult:
    """Two-reservoir relaxation curves from the ground state reach the
    reference asymptotes; the equal-rate curve lands on the mean temperature.
    Only the first and last records are read, so the curves are recorded every
    100 time units: each is within 1e-12 of its final value by t = 60."""
    rate_pairs = ((0.1, 0.1), (0.1, 0.05), (0.05, 0.1))
    baths = [(3.0, 1.0)] * len(rate_pairs)
    table = classifier.thermalization_curves(baths, rate_pairs, t_end=2000.0, dt=0.05, sample_every=100.0)
    finals = table.rows[-1].tolist()[1:]
    starts = table.rows[0].tolist()[1:]
    errs = [abs(f - ref) for f, ref in zip(finals, REFERENCE_ASYMPTOTES)]
    mean_dev = abs(finals[0] - 2.0) / 2.0
    ok = all(e <= 1e-3 for e in errs) and mean_dev <= 0.01 and all(s == 0.0 for s in starts)
    return CriterionResult(
        2, "relaxation-curve asymptotes",
        ok,
        "finals " + ", ".join(f"{f:.6f}" for f in finals)
        + f"; max err {max(errs):.2e}; equal-rate vs mean {mean_dev:.2%}",
    )


def check_rate_sweep() -> CriterionResult:
    """Rate-split sweep: exact single-reservoir endpoints, strict monotonicity,
    and bounded deviation from the endpoint chord."""
    t1, t2, gamma = 3.0, 1.0, 0.08
    table = classifier.gamma_sweep(t1, t2, gamma, n_points=401)
    deltas, temps = table.rows["delta_gamma"], table.rows["steady_temperature"]
    end_err = max(abs(temps[-1] - t1), abs(temps[0] - t2))
    monotone = bool(np.all(np.diff(temps) > 0))
    chord = t2 + (t1 - t2) * (deltas + gamma / 2.0) / gamma
    chord_dev = float(np.abs(temps - chord).max())
    ok = end_err <= 1e-9 and monotone and chord_dev <= SWEEP_CHORD_BOUND
    return CriterionResult(
        3, "rate-sweep endpoints/monotonicity/linearity",
        ok,
        f"endpoint err {end_err:.1e}, monotone={monotone}, "
        f"chord deviation {chord_dev:.5f} <= {SWEEP_CHORD_BOUND}",
    )


def _every_collision(maps: np.ndarray, n: int, stride: int) -> np.ndarray:
    """The coordinates of the qubit after 0, 1, ..., n collisions through each
    of the (c, 4, 4) collision maps, from the ground state, as an
    (n + 1, c, 4) array.

    The collision map is linear and the same at every step, so a coarse pass
    that records every stride-th state and a fine pass through stride
    single collisions from each coarse record but the last give every
    state. The coarse pass steps all maps at once; the fine pass takes one
    map at a time, its coarse records as the columns of one 4-row matrix,
    so its record buffer holds the states of one map, not of all. Each map
    of collisions._collision_maps is bitwise run_collisions's step, but the
    products are associated differently, so a state may differ from
    run_collisions's in its last bits."""
    y0 = np.broadcast_to(channel.to_coords(qmat.ground_state())[:, None], (len(maps), 4, 1))
    _, coarse = channel.propagate(y0, channel.repeated(maps, n, stride), n, stride)
    windows, width = len(coarse) - 1, min(stride, n)
    states = np.empty((windows * width + 1, len(maps), 4))
    # grid[w, j] is the state after w * stride + j collisions
    grid = states[:-1].reshape(windows, width, len(maps), 4)
    for c, step in enumerate(maps):
        _, fine = channel.propagate(coarse[:-1, c, :, 0].T, channel.repeated(step, width, 1), width, 1)
        grid[:, :, c] = fine[:width].transpose(2, 0, 1)
    states[n] = coarse[-1, ..., 0]
    return states[: n + 1]


def check_homogenization() -> CriterionResult:
    """Single-reservoir collision streams thermalize the qubit to the
    reservoir Gibbs state within a bounded collision count, which equals the
    closed-form count.

    From the ground state each resonant collision scales |p_e - p_a| by
    cos^2(J tau), where p_a = nbar / (2 nbar + 1) is the ancilla's excited
    population, and the coherence stays 0, so the trace distance first falls
    below 1e-3 after ceil(ln(1e-3 / p_a) / ln cos^2(J tau)) collisions.

    Every state from collision 0 to 6000 is tested. _every_collision gives
    them from a coarse pass of 77 stacked products and a fine pass of 78
    products per reservoir, in place of 6000 one-collision steps."""
    t0 = time.perf_counter()
    temps = (0.5, 1.0, 2.0, 5.0)
    h, coupling, tau, n = 1.0, 0.05, 1.0, 6000
    maps = collisions._collision_maps(h, coupling, tau, np.array(temps)[:, None])[:, 0]
    states = _every_collision(maps, n, math.isqrt(n - 1) + 1)
    counts = {}
    ok = True
    targets = channel.to_coords(qmat.qubit_thermal_state(h, temps))
    for temp, coords, target in zip(temps, states.swapaxes(0, 1), targets):
        below = channel.trace_distances(coords - target) < 1e-3
        if not below[-1]:
            ok = False
            counts[temp] = None
        else:
            counts[temp] = int(below.argmax())
            nbar = lindblad.thermal_occupation(h, temp)
            p_a = nbar / (2.0 * nbar + 1.0)
            predicted = math.ceil(math.log(1e-3 / p_a) / math.log(math.cos(coupling * tau) ** 2))
            ok = ok and counts[temp] <= 10**5 and counts[temp] == predicted
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    detail = ", ".join(f"T={t}: {c} collisions" for t, c in counts.items())
    return CriterionResult(
        4, "collision homogenization", ok, f"{detail}; {elapsed:.1f} s"
    )


def check_collision_crosscheck() -> CriterionResult:
    """Mixture-schedule collision steady temperatures agree with the
    continuous-dynamics closed form over a temperature/rate-ratio grid, using
    rate-calibrated reservoir probabilities."""
    grid = [((t1, t2), (0.1 * ratio, 0.1))
            for t1, t2 in ((1.0, 5.0), (3.0, 1.0), (5.0, 4.0)) for ratio in (1.0, 2.0, 0.5)]
    temps, rates = np.array(grid).transpose(1, 0, 2)
    probs = [collisions.reservoir_probabilities(r, t) for t, r in zip(temps, rates)]
    trajs = collisions.run_collisions_many(temps, probs, qmat.ground_state(), n=8000, record_every=1000)
    analytic = lindblad.steady_temperatures(temps, rates)
    worst = max(abs(traj.final_temperature - t) / t for traj, t in zip(trajs, analytic.tolist()))
    # the uncalibrated weighting p ~ Gamma lands on the probability-weighted
    # mean of the ancilla excitations instead; quantify it for the record
    plain = 0.5 * qmat.qubit_thermal_state(1.0, (1.0, 5.0)).sum(axis=0)
    t_plain = float(channel.boltzmann_temperature(plain[1, 1].real, plain[0, 0].real, 1.0))
    t_ref = lindblad.steady_temperature(lindblad.make_config((1.0, 5.0), (0.1, 0.1)))
    plain_dev = abs(t_plain - t_ref) / t_ref
    ok = worst < 0.02
    return CriterionResult(
        5, "collision-vs-continuous cross-check",
        ok,
        f"max rel err {worst:.2e} (calibrated weights; plain rate weighting "
        f"would deviate up to {plain_dev:.0%})",
    )


def check_separability() -> CriterionResult:
    """Randomly drawn temperature pairs, labeled by the fixed-threshold rule,
    are linearly separable; the XOR arrangement is correctly refused."""
    table = classifier.generate_instances(
        classifier.TEMPERATURE_SPACE, 20, ((0.5, 5.5), (0.5, 5.5)),
        seed=42, rule=classifier.DecisionRule.fixed(3.0), fixed=(0.02, 0.02),
    )
    features = list(zip(table.column("t1"), table.column("t2")))
    labels = table.column("label")
    fit = classifier.perceptron_fit(features, labels, max_epochs=1000)
    separable = isinstance(fit, classifier.Perceptron) and all(
        fit.predict(x) == (1.0 if label == classifier.CLASS_HOT else -1.0)
        for x, label in zip(features, labels)
    )
    xor_fit = classifier.perceptron_fit(
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)],
        [classifier.CLASS_COLD, classifier.CLASS_HOT, classifier.CLASS_HOT, classifier.CLASS_COLD],
        max_epochs=1000,
    )
    ok = len(set(labels)) == 2 and separable and isinstance(xor_fit, classifier.NotSeparable)
    return CriterionResult(
        6, "linear separability of labeled instances",
        ok,
        f"20 points ({len(set(labels))} labels), zero training error: {separable}; "
        f"XOR refused: {isinstance(xor_fit, classifier.NotSeparable)}",
    )


def check_hardware_budget() -> CriterionResult:
    """Timing budget: 2000 x 5 ns collisions finish in 10 us, inside a 20 us
    relaxation window and at least 100x faster than a 1 ms classical run."""
    budget = transmon.TimingBudget(
        tau_int_ns=5.0, tau_pr_ns=0.0, tau_r_ns=0.0, n_collisions=2000, t1_relax_us=20.0
    )
    report = transmon.budget_report(budget, classical_baseline_ms=1.0)
    ok = (
        abs(report.total_us - 10.0) < 1e-12
        and report.feasible
        and report.speedup >= 100.0
        and "feasible" in report.text
        and f"{report.speedup:.0f}x" in report.text
    )
    return CriterionResult(7, "hardware timing budget", ok, report.text)


def check_core_properties(seed: int = 7) -> CriterionResult:
    """Structural property sweep: state validity everywhere, vanishing
    steady-state residual, temperature bracketing, rate-rescaling invariance,
    collision-map composition, and deterministic reruns."""
    rng = np.random.default_rng(seed)
    failures = []

    # 50 random configurations at once, their baths padded with rate 0
    temps, rates = _random_baths(rng, 50)
    p_e = 1.0 / (1.0 + lindblad.steady_population_ratios(temps, rates))
    rho_ss = np.zeros((len(temps), 2, 2), dtype=complex)
    rho_ss[:, 0, 0], rho_ss[:, 1, 1] = p_e, 1.0 - p_e
    qmat.validate_density_matrix(rho_ss)
    residual = lindblad._apply_generators(1.0, lindblad._occupations(temps, rates, 1.0), rates, rho_ss)
    residual_worst = float(np.abs(residual).max())
    t_ss = lindblad.steady_temperatures(temps, rates)
    coldest = np.where(rates > 0, temps, math.inf).min(axis=1)
    hottest = np.where(rates > 0, temps, -math.inf).max(axis=1)
    bracket_ok = bool(((coldest - 1e-12 <= t_ss) & (t_ss <= hottest + 1e-12)).all())
    if residual_worst >= 1e-10:
        failures.append(f"steady-state residual {residual_worst:.2e}")
    if not bracket_ok:
        failures.append("bracketing violated")

    rule = classifier.DecisionRule.instance_mean()
    temps, rates = rng.uniform(0.5, 5.0, (25, 2)), rng.uniform(0.01, 0.05, (25, 2))
    base_t, _, base_hot = classifier._label(temps, rates, rule, 1.0)
    scaled_t, _, scaled_hot = classifier._label(temps, 3.5 * rates, rule, 1.0)
    if not np.array_equal(base_hot, scaled_hot) or np.abs(base_t - scaled_t).max() > 1e-12:
        failures.append("rate-rescaling invariance violated")

    config = collisions.CollisionConfig(
        frequency=1.0, coupling=0.05, tau=1.0, reservoirs=((3.0, 0.5), (1.0, 0.5))
    )
    rho0 = qmat.random_density_matrix(rng)
    # 12 collisions at once against 7 (read off the same run) and then 5
    run = collisions.run_collisions(rho0, config, n=12)
    once = run.final_state
    joined = collisions.run_collisions(channel.from_coords(run.coords[7]), config, n=5).final_state
    if np.abs(once - joined).max() > 1e-12:
        failures.append("collision composition not associative")
    qmat.validate_density_matrix(once)

    args = (classifier.TEMPERATURE_SPACE, 8, ((0.5, 5.5), (0.5, 5.5)), 11, classifier.DecisionRule.fixed(3.0), (0.02, 0.02))
    if classifier.generate_instances(*args) != classifier.generate_instances(*args):
        failures.append("seeded instance generation not reproducible")
    sweep = classifier.gamma_sweep(3.0, 1.0, 0.08, n_points=11)
    if tables.render_csv(sweep) != tables.render_csv(classifier.gamma_sweep(3.0, 1.0, 0.08, n_points=11)):
        failures.append("table rendering not reproducible")

    ok = not failures
    detail = "; ".join(failures) if failures else (
        f"residual {residual_worst:.1e}, bracketing, rescaling, composition, determinism"
    )
    return CriterionResult(8, "structural property sweep", ok, detail)


_CHECKS = (
    check_ode_matches_analytic,
    check_relaxation_curves,
    check_rate_sweep,
    check_homogenization,
    check_collision_crosscheck,
    check_separability,
    check_hardware_budget,
    check_core_properties,
)


def run_all(only=None) -> list[CriterionResult]:
    """Run the verification checks (all, or the 1-based subset in `only`)."""
    results = []
    for i, check in enumerate(_CHECKS, start=1):
        if only is None or i in only:
            results.append(check())
    return results
