"""Feasibility arithmetic for the superconducting-circuit realization:
resonator-mediated effective coupling between dispersively detuned qubits,
and the repeated-interaction timing budget against qubit relaxation.

This module works in hardware units (MHz, ns, us), unlike the dimensionless
dynamics modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DispersivePair:
    """Two qubits coupled to a shared resonator: couplings g_i (MHz) and
    detunings delta_i = omega_i - omega_r (MHz, either sign, nonzero)."""

    g1: float
    g2: float
    delta1: float
    delta2: float

    def __post_init__(self):
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError(f"couplings must be >= 0, got ({self.g1}, {self.g2})")
        if self.delta1 == 0 or self.delta2 == 0:
            raise ValueError("zero detuning: the dispersive expansion does not apply")


def effective_coupling(pair: DispersivePair) -> float:
    """Resonator-mediated qubit-qubit coupling (g1 g2 / 2)(1/delta1 + 1/delta2), MHz."""
    return 0.5 * pair.g1 * pair.g2 * (1.0 / pair.delta1 + 1.0 / pair.delta2)


@dataclass(frozen=True)
class TimingBudget:
    """Per-collision interaction/preparation/reset times (ns), the number of
    collisions, and the qubit energy relaxation time (us)."""

    tau_int_ns: float
    tau_pr_ns: float
    tau_r_ns: float
    n_collisions: int
    t1_relax_us: float

    def __post_init__(self):
        # not >, not >=: so that NaN fails too
        if not self.tau_int_ns > 0:
            raise ValueError(f"interaction time must be positive, got {self.tau_int_ns}")
        if not (self.tau_pr_ns >= 0 and self.tau_r_ns >= 0):
            raise ValueError("preparation and reset times must be >= 0")
        if not self.n_collisions >= 1:
            raise ValueError(f"need at least one collision, got {self.n_collisions}")
        if not self.t1_relax_us > 0:
            raise ValueError(f"relaxation time must be positive, got {self.t1_relax_us}")


@dataclass(frozen=True)
class BudgetReport:
    total_us: float
    feasible: bool
    t1_relax_us: float
    classical_baseline_ms: float
    speedup: float
    text: str


def budget_report(budget: TimingBudget, classical_baseline_ms: float = 1.0) -> BudgetReport:
    """Total run time n * (tau_int + tau_pr + tau_r), feasibility against the
    relaxation time, and the speed ratio over a classical ms-scale baseline.

    Reference point: 2000 collisions of 5 ns each run in 10 us; reaching the
    steady state in fewer collisions shortens that proportionally (1500
    collisions come in at 7.5 us). A total time or a speedup that is not a
    positive finite number (a cycle so short or so long that it underflows
    or overflows) raises ValueError."""
    if not classical_baseline_ms > 0:
        raise ValueError(f"classical baseline must be positive, got {classical_baseline_ms}")
    cycle_ns = budget.tau_int_ns + budget.tau_pr_ns + budget.tau_r_ns
    total_us = budget.n_collisions * cycle_ns * 1e-3
    if not 0 < total_us < math.inf:
        raise ValueError(f"total run time {total_us:g} us is not a positive finite number")
    feasible = total_us < budget.t1_relax_us
    speedup = classical_baseline_ms * 1e3 / total_us
    if not 0 < speedup < math.inf:
        raise ValueError(f"speedup {speedup:g} over the classical baseline is not a positive finite number")
    verdict = "feasible" if feasible else "infeasible"
    text = (
        f"total={total_us:g} us over {budget.n_collisions} collisions "
        f"({cycle_ns:g} ns each), {verdict} (T1={budget.t1_relax_us:g} us); "
        f"{speedup:.0f}x faster than a {classical_baseline_ms:g} ms classical baseline"
    )
    return BudgetReport(
        total_us=total_us,
        feasible=feasible,
        t1_relax_us=budget.t1_relax_us,
        classical_baseline_ms=classical_baseline_ms,
        speedup=speedup,
        text=text,
    )
