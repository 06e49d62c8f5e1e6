"""The benchmark's own oracle: an independent numpy closed form of the steady
temperature, and checks of every CSV the workloads write against it.

Nothing here imports `thermoclass`. A check returns the problems it found;
an operation with problems has failed.
"""

from __future__ import annotations

import math

import numpy as np

CLASS_HOT = "class1"
CLASS_COLD = "class2"

# closed-form values are compared at this relative tolerance, on top of the
# CSV's 9-significant-digit rounding
CLOSED_FORM_RTOL = 1e-12
# thermalize runs to t_end = 2000, dozens of relaxation times: its final
# temperatures sit on the closed form
THERMALIZE_ATOL = 1e-3
# calibrated mixture collisions reproduce the continuous steady state
MIXTURE_RTOL = 0.02
# the sampled schedule fluctuates around the mixture steady state; its
# average over the second half of the run is compared at this tolerance
SAMPLED_RTOL = 0.03


def steady_temperature(temps, rates, omega: float = 1.0) -> np.ndarray:
    """Steady temperature omega / ln(sum (n+1) G / sum n G) of a qubit coupled
    to reservoirs at `temps` with rates `rates`; both (instances, reservoirs).

    Reservoirs with rate 0 are dropped. When the remaining reservoirs share
    one temperature, that temperature is the answer exactly.
    """
    temps = np.atleast_2d(np.asarray(temps, dtype=float))
    rates = np.atleast_2d(np.asarray(rates, dtype=float))
    with np.errstate(divide="ignore"):
        nbar = np.where(temps > 0, 1.0 / np.expm1(omega / np.where(temps > 0, temps, 1.0)), 0.0)
    up = np.sum(rates * nbar, axis=1)
    down = np.sum(rates * (nbar + 1.0), axis=1)
    with np.errstate(divide="ignore"):
        result = np.where(up > 0, omega / np.log(np.where(up > 0, down / up, 2.0)), 0.0)
    active = rates > 0
    lo = np.min(np.where(active, temps, np.inf), axis=1)
    hi = np.max(np.where(active, temps, -np.inf), axis=1)
    return np.where(lo == hi, lo, result)


def fmt(value: float) -> str:
    """The program's CSV rendering of a float."""
    return format(float(value), ".9g")


def close(cell: str, value: float, rtol: float = CLOSED_FORM_RTOL) -> bool:
    """True when `cell` is `value`, up to `rtol` and the 9-digit rounding."""
    try:
        x = float(cell)
    except ValueError:
        return False
    if value == 0.0:
        return x == 0.0
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 8)
    return abs(x - value) <= rtol * abs(value) + half_digit * (1.0 + 1e-9)


def read_csv(path: str):
    """(header, rows) with every cell kept as its text; metadata is skipped."""
    header, rows = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header or [], rows


def _expect_header(header, expected, problems) -> bool:
    if header != list(expected):
        problems.append(f"header {header} != {list(expected)}")
        return False
    return True


def _check_instances(rows, features, temps, rates, thresholds, problems) -> None:
    """Row by row: features as drawn, steady temperature, threshold and label."""
    expected = steady_temperature(temps, rates)
    for i, row in enumerate(rows):
        if row[0] != fmt(features[i, 0]) or row[1] != fmt(features[i, 1]):
            problems.append(f"row {i}: features {row[:2]} are not the seeded draw")
        elif not close(row[2], expected[i]):
            problems.append(f"row {i}: steady temperature {row[2]} != {expected[i]!r}")
        elif row[3] != fmt(thresholds[i]):
            problems.append(f"row {i}: threshold {row[3]} != {fmt(thresholds[i])}")
        else:
            t, theta = expected[i], thresholds[i]
            if abs(t - theta) <= CLOSED_FORM_RTOL * abs(theta):
                # a tie within the tolerance may go either way
                label_ok = row[4] in (CLASS_HOT, CLASS_COLD)
            else:
                label_ok = row[4] == (CLASS_HOT if t >= theta else CLASS_COLD)
            if not label_ok:
                problems.append(f"row {i}: label {row[4]} wrong for T={t!r}, threshold {theta!r}")
        if len(problems) >= 5:
            break


def _draw(seed: int, ranges, n: int) -> np.ndarray:
    """The documented draw of `thermoclass` instances: n uniform values on the
    first axis, then n on the second, from numpy's default generator."""
    rng = np.random.default_rng(seed)
    (lo1, hi1), (lo2, hi2) = ranges
    return np.column_stack([rng.uniform(lo1, hi1, n), rng.uniform(lo2, hi2, n)])


def check_classify_temp(p: dict, path: str) -> list:
    """Problems found in the output; empty when it is correct."""
    problems = []
    header, rows = read_csv(path)
    if _expect_header(header, ("t1", "t2", "steady_temperature", "threshold", "label"), problems):
        if len(rows) != p["n"]:
            problems.append(f"{len(rows)} rows, expected {p['n']}")
        else:
            rng_range = (p["t_min"], p["t_max"])
            x = _draw(p["seed"], (rng_range, rng_range), p["n"])
            rates = np.full_like(x, p["gamma"])
            _check_instances(rows, x, x, rates, np.full(p["n"], p["theta"]), problems)
    return problems


def check_classify_gamma(p: dict, path: str) -> list:
    problems = []
    header, rows = read_csv(path)
    if _expect_header(header, ("gamma1", "gamma2", "steady_temperature", "threshold", "label"), problems):
        if len(rows) != p["n"]:
            problems.append(f"{len(rows)} rows, expected {p['n']}")
        else:
            rng_range = (p["gamma_min"], p["gamma_max"])
            x = _draw(p["seed"], (rng_range, rng_range), p["n"])
            temps = np.tile([p["t1"], p["t2"]], (p["n"], 1))
            mean = np.full(p["n"], (p["t1"] + p["t2"]) / 2.0)
            _check_instances(rows, x, temps, x, mean, problems)
    return problems


def check_sweep(p: dict, path: str) -> list:
    problems = []
    header, rows = read_csv(path)
    if _expect_header(header, ("delta_gamma", "gamma1", "gamma2", "steady_temperature"), problems):
        g = p["gamma_total"]
        deltas = np.linspace(-g / 2.0, g / 2.0, p["n_points"])
        rates = np.column_stack([g / 2.0 + deltas, g / 2.0 - deltas])
        temps = np.tile([p["t1"], p["t2"]], (len(deltas), 1))
        expected = steady_temperature(temps, rates)
        if len(rows) != len(deltas):
            problems.append(f"{len(rows)} rows, expected {len(deltas)}")
        for i, row in enumerate(rows[: len(deltas)]):
            if row[:3] != [fmt(deltas[i]), fmt(rates[i, 0]), fmt(rates[i, 1])]:
                problems.append(f"row {i}: sweep point {row[:3]} is not the even split")
            elif not close(row[3], expected[i]):
                problems.append(f"row {i}: steady temperature {row[3]} != {expected[i]!r}")
            if len(problems) >= 5:
                break
    return problems


def check_thermalize(p: dict, path: str, svg_path: str | None = None) -> list:
    problems = []
    header, rows = read_csv(path)
    pairs = p["rate_pairs"]
    columns = ["time"] + [f"T_S_curve{i + 1}" for i in range(len(pairs))]
    n_rows = int(round(p["t_end"] / p["sample_every"])) + 1
    if _expect_header(header, columns, problems):
        if len(rows) != n_rows:
            problems.append(f"{len(rows)} rows, expected {n_rows}")
        else:
            temps = np.tile(p["temperatures"], (len(pairs), 1))
            expected = steady_temperature(temps, np.array(pairs))
            first, last = rows[0], rows[-1]
            if not close(last[0], p["t_end"]) or any(float(c) != 0.0 for c in first[1:]):
                problems.append("curves do not run from the ground state at t=0 to t_end")
            for i, cell in enumerate(last[1:]):
                if not abs(float(cell) - expected[i]) <= THERMALIZE_ATOL:
                    problems.append(f"curve {i + 1}: final {cell} != {expected[i]!r} within {THERMALIZE_ATOL}")
    if svg_path is not None:
        with open(svg_path, "r", encoding="utf-8") as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
                and svg.count("<polyline") == len(pairs)):
            problems.append(f"{svg_path}: not an SVG with {len(pairs)} polylines")
    return problems


def check_collide(p: dict, path: str) -> list:
    problems = []
    header, rows = read_csv(path)
    if not _expect_header(header, ("collision", "p_excited", "temperature"), problems):
        return problems
    n = p["collisions"]
    if not rows or int(rows[-1][0]) != n:
        problems.append(f"trajectory does not end at collision {n}")
        return problems
    # calibrated collision probabilities make the mixture steady state the
    # continuous one for the same rates
    expected = float(steady_temperature([p["temperatures"]], [p["gammas"]])[0])
    if p["schedule"] == "mixture":
        measured, rtol = float(rows[-1][2]), MIXTURE_RTOL
    else:
        late = [float(r[1]) for r in rows if int(r[0]) >= n // 2]
        p_e = sum(late) / len(late)
        measured, rtol = 1.0 / math.log((1.0 - p_e) / p_e), SAMPLED_RTOL
    if not abs(measured - expected) <= rtol * expected:
        problems.append(f"{p['schedule']} temperature {measured!r} != {expected!r} within {rtol:.0%}")
    return problems


def check_verify(path: str) -> list:
    """One operation per criterion: it must be listed and PASS. Criterion 2's
    reported finals are also checked against the closed form."""
    header, rows = read_csv(path)
    by_number = {row[0]: row for row in rows if row}
    ops = []
    finals_expected = steady_temperature(
        [[3.0, 1.0]] * 3, [[0.1, 0.1], [0.1, 0.05], [0.05, 0.1]])
    for number in range(1, 9):
        problems = []
        row = by_number.get(str(number))
        if header != ["criterion", "name", "passed", "details"] or row is None:
            problems.append(f"criterion {number} missing from {path}")
        elif row[2] != "true":
            problems.append(f"criterion {number} FAIL: {','.join(row[3:])}")
        elif number == 2:
            finals = _finals(",".join(row[3:]))
            if len(finals) != 3 or any(abs(f - e) > THERMALIZE_ATOL for f, e in zip(finals, finals_expected)):
                problems.append(f"criterion 2 finals {finals} != {list(finals_expected)}")
        ops.append((f"verify-criterion-{number}", problems))
    return ops


def _finals(details: str) -> list:
    head = details.partition("finals ")[2]
    values = []
    for part in head.split(";")[:3]:
        try:
            values.append(float(part))
        except ValueError:
            break
    return values


def operations(step) -> list:
    """Names of the operations one call of `step` counts: the call itself,
    plus one per criterion for `verify`."""
    if step.command == "verify":
        return [step.name] + [f"verify-criterion-{n}" for n in range(1, 9)]
    return [step.name]


_CHECKS = {
    "classify-temp": check_classify_temp,
    "classify-gamma": check_classify_gamma,
    "sweep-gamma": check_sweep,
    "collide": check_collide,
}


def check_step(step, csv_path: str, svg_path: str | None) -> list:
    """Check one output of `step`; returns [(operation, problems)] for the
    operations named by `operations(step)`."""
    if step.command == "verify":
        return [(step.name, [])] + check_verify(csv_path)
    if step.command == "thermalize":
        problems = check_thermalize(step.params, csv_path, svg_path)
    else:
        problems = _CHECKS[step.command](step.params, csv_path)
    return [(step.name, problems)]
