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


def _random_config(rng: np.random.Generator) -> lindblad.SystemConfig:
    n = int(rng.integers(1, 5))
    temps = rng.uniform(0.5, 5.0, n)
    rates = rng.uniform(0.01, 0.1, n)
    return lindblad.make_config(temps, rates)


def check_ode_matches_analytic(n_configs: int = 100, seed: int = 20240101) -> CriterionResult:
    """Time integration from random initial states lands on the closed-form
    steady state for randomized reservoir configurations."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    configs, rho0s = [], []
    for _ in range(n_configs):
        configs.append(_random_config(rng))
        rho0s.append(qmat.random_density_matrix(rng))
    trajs = lindblad.evolve_many(configs, rho0s, t_end=4000.0, dt=0.05, record_every=10.0, stop_tol=1e-9)
    worst = 0.0
    for config, traj in zip(configs, trajs):
        dist = qmat.trace_distance(traj.final_state, lindblad.steady_state(config))
        worst = max(worst, dist)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    return CriterionResult(
        1, "ode-vs-analytic steady state",
        ok, f"{n_configs} configs, max trace distance {worst:.2e}, {elapsed:.1f} s",
    )


def check_relaxation_curves() -> CriterionResult:
    """Two-reservoir relaxation curves from the ground state reach the
    reference asymptotes; the equal-rate curve lands on the mean temperature."""
    rate_pairs = ((0.1, 0.1), (0.1, 0.05), (0.05, 0.1))
    configs = [lindblad.make_config((3.0, 1.0), pair) for pair in rate_pairs]
    table = classifier.thermalization_curves(configs, t_end=2000.0, dt=0.05)
    finals = table.rows[-1, 1:].tolist()
    starts = table.rows[0, 1:].tolist()
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
    deltas = np.array(table.column("delta_gamma"))
    temps = np.array(table.column("steady_temperature"))
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


def check_homogenization() -> CriterionResult:
    """Single-reservoir collision streams thermalize the qubit to the
    reservoir Gibbs state within a bounded collision count."""
    t0 = time.perf_counter()
    temps = (0.5, 1.0, 2.0, 5.0)
    configs = [
        collisions.CollisionConfig(frequency=1.0, coupling=0.05, tau=1.0, reservoirs=((temp, 1.0),))
        for temp in temps
    ]
    trajs = collisions.run_collisions_many(qmat.ground_state(), configs, n=6000)
    counts = {}
    ok = True
    for temp, traj in zip(temps, trajs):
        target = channel.to_coords(qmat.qubit_thermal_state(1.0, temp))
        dists = channel.trace_distances(traj.coords - target)
        below = traj.times[dists < 1e-3]
        if not len(below) or dists[-1] >= 1e-3:
            ok = False
            counts[temp] = None
        else:
            counts[temp] = int(below[0])
            ok = ok and below[0] <= 10**5
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
    configs = [collisions.mixture_config(rates, temps) for temps, rates in grid]
    trajs = collisions.run_collisions_many(qmat.ground_state(), configs, n=8000, record_every=1000)
    analytic = lindblad.steady_temperatures([temps for temps, _ in grid], [rates for _, rates in grid])
    worst = max(abs(traj.final_temperature - t) / t for traj, t in zip(trajs, analytic.tolist()))
    # the uncalibrated weighting p ~ Gamma lands on the probability-weighted
    # mean of the ancilla excitations instead; quantify it for the record
    q = [1.0 / (1.0 + math.exp(1.0 / t)) for t in (1.0, 5.0)]
    pe = 0.5 * (q[0] + q[1])
    t_plain = 1.0 / math.log((1.0 - pe) / pe)
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
    points = classifier.generate_instances(
        classifier.TEMPERATURE_SPACE, 20, ((0.5, 5.5), (0.5, 5.5)),
        seed=42, rule=classifier.DecisionRule.fixed(3.0), fixed=(0.02, 0.02),
    )
    labels = {p.label for p in points}
    fit = classifier.perceptron_fit(points, max_epochs=1000)
    separable = isinstance(fit, classifier.Perceptron) and all(
        fit.predict(p.features) == (1.0 if p.label == classifier.CLASS_HOT else -1.0)
        for p in points
    )
    xor_points = [
        classifier.LabeledPoint((0.0, 0.0), 0.0, classifier.CLASS_COLD),
        classifier.LabeledPoint((0.0, 1.0), 0.0, classifier.CLASS_HOT),
        classifier.LabeledPoint((1.0, 0.0), 0.0, classifier.CLASS_HOT),
        classifier.LabeledPoint((1.0, 1.0), 0.0, classifier.CLASS_COLD),
    ]
    xor_fit = classifier.perceptron_fit(xor_points, max_epochs=1000)
    ok = len(labels) == 2 and separable and isinstance(xor_fit, classifier.NotSeparable)
    return CriterionResult(
        6, "linear separability of labeled instances",
        ok,
        f"20 points ({len(labels)} labels), zero training error: {separable}; "
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

    residual_worst = 0.0
    bracket_ok = True
    for _ in range(50):
        config = _random_config(rng)
        rho_ss = qmat.validate_density_matrix(lindblad.steady_state(config))
        residual_worst = max(residual_worst, float(np.abs(lindblad.lindblad_rhs(config, rho_ss)).max()))
        t_ss = lindblad.steady_temperature(config)
        bracket_ok = bracket_ok and (min(config.temperatures) - 1e-12 <= t_ss <= max(config.temperatures) + 1e-12)
    if residual_worst >= 1e-10:
        failures.append(f"steady-state residual {residual_worst:.2e}")
    if not bracket_ok:
        failures.append("bracketing violated")

    rule = classifier.DecisionRule.instance_mean()
    for _ in range(25):
        temps = rng.uniform(0.5, 5.0, 2)
        rates = rng.uniform(0.01, 0.05, 2)
        base = classifier.classify(lindblad.make_config(temps, rates), rule)
        scaled = classifier.classify(lindblad.make_config(temps, 3.5 * rates), rule)
        if base.label != scaled.label or abs(base.steady_temperature - scaled.steady_temperature) > 1e-12:
            failures.append("rate-rescaling invariance violated")
            break

    config = collisions.CollisionConfig(
        frequency=1.0, coupling=0.05, tau=1.0, reservoirs=((3.0, 0.5), (1.0, 0.5))
    )
    rho0 = qmat.random_density_matrix(rng)
    once = collisions.run_collisions(rho0, config, n=12).final_state
    part = collisions.run_collisions(rho0, config, n=7).final_state
    joined = collisions.run_collisions(part, config, n=5).final_state
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
