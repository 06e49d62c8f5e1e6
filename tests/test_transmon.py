import math

import pytest

from thermoclass.transmon import (
    BudgetReport,
    DispersivePair,
    TimingBudget,
    budget_report,
    effective_coupling,
)


def test_symmetric_pair_reduces_to_g_squared_over_delta():
    pair = DispersivePair(g1=50.0, g2=50.0, delta1=500.0, delta2=500.0)
    assert effective_coupling(pair) == pytest.approx(50.0**2 / 500.0, rel=1e-15)


def test_reference_coupling_value():
    pair = DispersivePair(g1=100.0, g2=100.0, delta1=1000.0, delta2=1000.0)
    assert effective_coupling(pair) == pytest.approx(10.0, rel=1e-15)


def test_decoupled_qubit_gives_zero():
    assert effective_coupling(DispersivePair(0.0, 100.0, 1000.0, 1000.0)) == 0.0


def test_coupling_symmetric_under_exchange():
    a = DispersivePair(80.0, 120.0, 900.0, -1100.0)
    b = DispersivePair(120.0, 80.0, -1100.0, 900.0)
    assert effective_coupling(a) == pytest.approx(effective_coupling(b), rel=1e-15)


def test_negative_detunings_flip_sign():
    pos = DispersivePair(100.0, 100.0, 1000.0, 1000.0)
    neg = DispersivePair(100.0, 100.0, -1000.0, -1000.0)
    assert effective_coupling(neg) == -effective_coupling(pos)
    assert abs(neg.delta1) / neg.g1 >= 5.0 and abs(neg.delta2) / neg.g2 >= 5.0


def test_zero_detuning_rejected():
    with pytest.raises(ValueError):
        DispersivePair(100.0, 100.0, 0.0, 1000.0)


def test_dispersive_flag():
    # the dispersive regime |delta_i| >= 5 g_i, which the expansion assumes
    for pair, dispersive in ((DispersivePair(100.0, 100.0, 500.0, 500.0), True),
                             (DispersivePair(100.0, 100.0, 499.0, 500.0), False)):
        assert (min(abs(pair.delta1) / pair.g1, abs(pair.delta2) / pair.g2) >= 5.0) == dispersive


def test_budget_reference_point():
    budget = TimingBudget(tau_int_ns=5.0, tau_pr_ns=0.0, tau_r_ns=0.0,
                          n_collisions=2000, t1_relax_us=20.0)
    report = budget_report(budget)
    assert isinstance(report, BudgetReport)
    assert report.total_us == pytest.approx(10.0, abs=1e-12)
    assert report.feasible
    assert report.speedup == pytest.approx(100.0, rel=1e-12)
    assert "feasible" in report.text and "100x" in report.text


def test_budget_infeasible_when_t1_too_short():
    budget = TimingBudget(5.0, 0.0, 0.0, 2000, t1_relax_us=5.0)
    report = budget_report(budget)
    assert not report.feasible
    assert "infeasible" in report.text


def test_budget_total_linear_in_collisions():
    base = budget_report(TimingBudget(5.0, 1.0, 2.0, 1000, 60.0)).total_us
    doubled = budget_report(TimingBudget(5.0, 1.0, 2.0, 2000, 60.0)).total_us
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_budget_validation():
    with pytest.raises(ValueError):
        TimingBudget(0.0, 0.0, 0.0, 2000, 20.0)
    with pytest.raises(ValueError):
        TimingBudget(5.0, -1.0, 0.0, 2000, 20.0)
    with pytest.raises(ValueError):
        TimingBudget(5.0, 0.0, 0.0, 0, 20.0)
    with pytest.raises(ValueError):
        budget_report(TimingBudget(5.0, 0.0, 0.0, 2000, 20.0), classical_baseline_ms=0.0)


@pytest.mark.parametrize("field, message", [
    ("tau_int_ns", "interaction time must be positive, got nan"),
    ("tau_pr_ns", "preparation and reset times must be >= 0"),
    ("tau_r_ns", "preparation and reset times must be >= 0"),
    ("t1_relax_us", "relaxation time must be positive, got nan"),
])
def test_budget_rejects_nan_times(field, message):
    times = {"tau_int_ns": 5.0, "tau_pr_ns": 0.0, "tau_r_ns": 0.0, "t1_relax_us": 20.0, field: math.nan}
    with pytest.raises(ValueError, match=f"^{message}$"):
        TimingBudget(n_collisions=2000, **times)


@pytest.mark.parametrize("tau_int_ns, n, baseline_ms, message", [
    # the total underflows to 0 us
    (5e-324, 1, 1.0, "total run time 0 us is not a positive finite number"),
    # the total is subnormal, and the speedup overflows
    (1e-308, 1, 1.0, "speedup inf over the classical baseline is not a positive finite number"),
    (1e308, 2000, 1.0, "total run time inf us is not a positive finite number"),
    (math.inf, 1, 1.0, "total run time inf us is not a positive finite number"),
    (5.0, 2000, math.inf, "speedup inf over the classical baseline is not a positive finite number"),
    (5.0, 2000, math.nan, "classical baseline must be positive, got nan"),
])
def test_budget_report_rejects_a_non_finite_total_or_speedup(tau_int_ns, n, baseline_ms, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        budget_report(TimingBudget(tau_int_ns, 0.0, 0.0, n, 20.0), classical_baseline_ms=baseline_ms)
