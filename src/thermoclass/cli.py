"""Command-line front end: strict key=value config files, one subcommand per
experiment, CSV output with a reproducible metadata preamble, optional static
SVG rendering.

Exit codes: 0 success, 2 config error, 3 numerical-guard violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import ConfigError, GuardViolation
from .tables import ResultTable, format_value, write_csv

if TYPE_CHECKING:
    from . import classifier


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_int(text: str) -> int:
    return int(text)


def _parse_floats(text: str) -> tuple:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_parse_float(p) for p in parts)


def _parse_pairs(text: str) -> tuple:
    groups = [g.strip() for g in text.split(";") if g.strip()]
    if not groups:
        raise ValueError("empty list of rate groups")
    return tuple(_parse_floats(g) for g in groups)


def _parse_str(text: str) -> str:
    return text.strip()


_KINDS = {
    "float": _parse_float,
    "int": _parse_int,
    "floats": _parse_floats,
    "pairs": _parse_pairs,
    "str": _parse_str,
}

# experiment -> ordered {key: (kind, default)}; None defaults mean "optional,
# omitted from the metadata echo unless set".
SCHEMAS = {
    "steady": {
        "omega": ("float", 1.0),
        "temperatures": ("floats", (3.0, 1.0)),
        "gammas": ("floats", (0.1, 0.1)),
    },
    "thermalize": {
        "omega": ("float", 1.0),
        "temperatures": ("floats", (3.0, 1.0)),
        "rate_pairs": ("pairs", ((0.1, 0.1), (0.1, 0.05), (0.05, 0.1))),
        "t_end": ("float", 2000.0),
        "dt": ("float", 0.05),
        "sample_every": ("float", 1.0),
    },
    "sweep-gamma": {
        "omega": ("float", 1.0),
        "t1": ("float", 3.0),
        "t2": ("float", 1.0),
        "gamma_total": ("float", 0.08),
        "n_points": ("int", 41),
    },
    "classify-gamma": {
        "omega": ("float", 1.0),
        "t1": ("float", 3.0),
        "t2": ("float", 1.0),
        "n": ("int", 20),
        "gamma_min": ("float", 0.005),
        "gamma_max": ("float", 0.1),
        "rule": ("str", "instance_mean"),
        "theta": ("float", None),
        "seed": ("int", 42),
    },
    "classify-temp": {
        "omega": ("float", 1.0),
        "gamma": ("float", 0.02),
        "n": ("int", 20),
        "t_min": ("float", 0.5),
        "t_max": ("float", 5.5),
        "rule": ("str", "fixed_threshold"),
        "theta": ("float", 3.0),
        "seed": ("int", 42),
    },
    "collide": {
        "frequency": ("float", 1.0),
        "coupling": ("float", 0.05),
        "tau": ("float", 1.0),
        "temperatures": ("floats", (2.0,)),
        "probabilities": ("floats", None),
        "gammas": ("floats", None),
        "weights": ("str", "calibrated"),
        "schedule": ("str", "mixture"),
        "seed": ("int", 0),
        "collisions": ("int", 5000),
        "record_every": ("int", 10),
    },
    "transmon-budget": {
        "collisions": ("int", 2000),
        "tau_int_ns": ("float", 5.0),
        "tau_pr_ns": ("float", 0.0),
        "tau_r_ns": ("float", 0.0),
        "t1_us": ("float", 20.0),
        "classical_ms": ("float", 1.0),
    },
    "verify": {},
}


@dataclass
class RunConfig:
    experiment: str
    settings: dict


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Parse strict key=value config text.

    Unknown and duplicate keys are errors (with line references) so typos in
    physics parameters cannot pass silently. The experiment kind comes from
    the `experiment` key, or from the subcommand when the caller supplies it;
    when both are present they must agree.
    """
    pairs = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {lines[key]})")
        pairs[key] = value
        lines[key] = lineno

    from_file = pairs.pop("experiment", None)
    if from_file is not None and from_file not in SCHEMAS:
        raise ConfigError(f"line {lines['experiment']}: unknown experiment kind {from_file!r}")
    if from_file is not None and experiment is not None and from_file != experiment:
        raise ConfigError(
            f"config declares experiment {from_file!r} but the {experiment!r} subcommand was invoked"
        )
    kind = experiment or from_file
    if kind is None:
        raise ConfigError("missing experiment kind")

    schema = SCHEMAS[kind]
    settings = {key: default for key, (_, default) in schema.items()}
    for key, value in pairs.items():
        if key not in schema:
            raise ConfigError(f"line {lines[key]}: unknown key {key!r} for experiment {kind!r}")
        parser = _KINDS[schema[key][0]]
        try:
            settings[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lines[key]}: bad value for {key!r}: {exc}") from exc
    return RunConfig(experiment=kind, settings=settings)


def _echo_value(value) -> str:
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return "; ".join(" ".join(format_value(v) for v in group) for group in value)
    if isinstance(value, tuple):
        return ", ".join(format_value(v) for v in value)
    return format_value(value)


def _metadata(config: RunConfig) -> dict:
    meta = {"artifact": f"thermoclass {__version__}", "experiment": config.experiment}
    for key in SCHEMAS[config.experiment]:
        if config.settings[key] is not None:
            meta[key] = _echo_value(config.settings[key])
    return meta


def _decision_rule(settings) -> classifier.DecisionRule:
    from . import classifier

    if settings["rule"] == "instance_mean":
        if settings.get("theta") is not None:
            raise ConfigError("theta is only meaningful with rule = fixed_threshold")
        return classifier.DecisionRule.instance_mean()
    if settings["rule"] == "fixed_threshold":
        if settings.get("theta") is None:
            raise ConfigError("rule = fixed_threshold requires theta")
        return classifier.DecisionRule.fixed(settings["theta"])
    raise ConfigError(f"unknown rule {settings['rule']!r}")


def _cmd_steady(config: RunConfig, args) -> ResultTable:
    from . import lindblad

    s = config.settings
    system = lindblad.make_config(s["temperatures"], s["gammas"], s["omega"])
    ratio = lindblad.steady_population_ratio(system)
    t_ss = lindblad.steady_temperature(system)
    p_e = 0.0 if ratio == float("inf") else 1.0 / (1.0 + ratio)
    print(f"T_S^ss = {t_ss:.9g}")
    return ResultTable(
        columns=["p_excited", "p_ground", "population_ratio", "steady_temperature", "mean_bath_temperature"],
        rows=[(p_e, 1.0 - p_e, ratio, t_ss, lindblad.mean_bath_temperature(system))],
    )


def _cmd_thermalize(config: RunConfig, args) -> ResultTable:
    from . import classifier, lindblad

    s = config.settings
    systems = [
        lindblad.make_config(s["temperatures"], rates, s["omega"]) for rates in s["rate_pairs"]
    ]
    return classifier.thermalization_curves(
        systems, t_end=s["t_end"], dt=s["dt"], sample_every=s["sample_every"]
    )


def _cmd_sweep_gamma(config: RunConfig, args) -> ResultTable:
    from . import classifier

    s = config.settings
    return classifier.gamma_sweep(s["t1"], s["t2"], s["gamma_total"], s["n_points"], s["omega"])


def _cmd_classify_gamma(config: RunConfig, args) -> ResultTable:
    from . import classifier

    s = config.settings
    rule = _decision_rule(s)
    return classifier.generate_instances(
        classifier.GAMMA_SPACE, s["n"],
        ((s["gamma_min"], s["gamma_max"]), (s["gamma_min"], s["gamma_max"])),
        seed=s["seed"], rule=rule, fixed=(s["t1"], s["t2"]), omega=s["omega"],
    )


def _cmd_classify_temp(config: RunConfig, args) -> ResultTable:
    from . import classifier

    s = config.settings
    rule = _decision_rule(s)
    return classifier.generate_instances(
        classifier.TEMPERATURE_SPACE, s["n"],
        ((s["t_min"], s["t_max"]), (s["t_min"], s["t_max"])),
        seed=s["seed"], rule=rule, fixed=(s["gamma"], s["gamma"]), omega=s["omega"],
    )


def _cmd_collide(config: RunConfig, args) -> ResultTable:
    from . import collisions, qmat

    s = config.settings
    temps = s["temperatures"]
    if s["probabilities"] is not None and s["gammas"] is not None:
        raise ConfigError("give either probabilities or gammas, not both")
    if s["weights"] not in ("calibrated", "proportional"):
        raise ConfigError(f"weights must be 'calibrated' or 'proportional', got {s['weights']!r}")
    if s["gammas"] is not None:
        probs = collisions.reservoir_probabilities(
            s["gammas"], temps, s["frequency"], calibrated=s["weights"] == "calibrated"
        )
    elif s["probabilities"] is not None:
        probs = s["probabilities"]
    else:
        probs = (1.0 / len(temps),) * len(temps)
    if len(probs) != len(temps):
        raise ConfigError(f"{len(temps)} temperatures but {len(probs)} probabilities")
    collision_config = collisions.CollisionConfig(
        frequency=s["frequency"], coupling=s["coupling"], tau=s["tau"],
        reservoirs=tuple(zip(temps, probs)),
        schedule=s["schedule"], seed=s["seed"] if s["schedule"] == "sampled" else None,
    )
    traj = collisions.run_collisions(
        qmat.ground_state(), collision_config, n=s["collisions"], record_every=s["record_every"]
    )
    rows = list(zip(traj.times.tolist(), traj.coords[:, 0].tolist(), traj.temperatures.tolist()))
    return ResultTable(columns=["collision", "p_excited", "temperature"], rows=rows)


def _cmd_transmon_budget(config: RunConfig, args) -> ResultTable:
    from . import transmon

    s = config.settings
    budget = transmon.TimingBudget(
        tau_int_ns=s["tau_int_ns"], tau_pr_ns=s["tau_pr_ns"], tau_r_ns=s["tau_r_ns"],
        n_collisions=s["collisions"], t1_relax_us=s["t1_us"],
    )
    report = transmon.budget_report(budget, classical_baseline_ms=s["classical_ms"])
    print(report.text)
    return ResultTable(
        columns=["total_us", "feasible", "t1_relax_us", "classical_baseline_ms", "speedup"],
        rows=[(report.total_us, report.feasible, report.t1_relax_us,
               report.classical_baseline_ms, report.speedup)],
    )


_COMMANDS = {
    "steady": _cmd_steady,
    "thermalize": _cmd_thermalize,
    "sweep-gamma": _cmd_sweep_gamma,
    "classify-gamma": _cmd_classify_gamma,
    "classify-temp": _cmd_classify_temp,
    "collide": _cmd_collide,
    "transmon-budget": _cmd_transmon_budget,
}


def _render_svg(experiment: str, table: ResultTable) -> str | None:
    from . import svgplot

    if experiment == "thermalize":
        return svgplot.line_plot(table.rows[:, 0], table.rows[:, 1:].T, table.columns[1:],
                                 title="relaxation to the steady temperature",
                                 xlabel="time (1/omega)", ylabel="T_S")
    if experiment == "sweep-gamma":
        return svgplot.line_plot(table.column("delta_gamma"), [table.column("steady_temperature")],
                                 ["steady temperature"],
                                 title="steady temperature vs rate split",
                                 xlabel="delta gamma", ylabel="T_S^ss")
    if experiment == "collide":
        return svgplot.line_plot(table.column("collision"), [table.column("temperature")],
                                 ["system temperature"],
                                 title="repeated-interaction thermalization",
                                 xlabel="collision", ylabel="T_S")
    if experiment in ("classify-gamma", "classify-temp"):
        xs, ys = (np.array(table.column(name)) for name in table.columns[:2])
        labels = np.array(table.column("label"))
        groups = {label: (xs[labels == label], ys[labels == label])
                  for label in np.unique(labels).tolist()}
        return svgplot.scatter_plot(groups,
                                    title="labeled instances",
                                    xlabel=table.columns[0], ylabel=table.columns[1])
    return None


def _run_verify(args) -> int:
    from . import acceptance

    only = None
    if args.only:
        only = {int(part) for part in args.only.split(",")}
        bad = only - set(range(1, 9))
        if bad:
            raise ConfigError(f"unknown criterion numbers {sorted(bad)}; valid range is 1-8")
    results = acceptance.run_all(only=only)
    for result in results:
        print(result.line())
    if args.out:
        table = ResultTable(
            columns=["criterion", "name", "passed", "details"],
            rows=[(r.number, r.name, r.passed, r.details.replace(",", ";")) for r in results],
            metadata={"artifact": f"thermoclass {__version__}", "experiment": "verify"},
        )
        with _writing_output():
            write_csv(table, args.out)
    return 0 if all(r.passed for r in results) else 4


@contextlib.contextmanager
def _writing_output():
    """Report a failure to open or write an output file as a config error,
    as an unreadable config file is."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main call; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="thermoclass",
        description="Steady-state thermal classifier simulations: analytic, master-equation and collision-model paths.",
    )
    parser.add_argument("--version", action="version", version=f"thermoclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "steady": "closed-form steady state and effective temperature for one reservoir set",
        "thermalize": "effective-temperature relaxation curves for several rate pairs",
        "sweep-gamma": "steady temperature along a rate split at fixed bath temperatures",
        "classify-gamma": "random rate pairs labeled by the decision rule",
        "classify-temp": "random temperature pairs labeled by the decision rule",
        "collide": "repeated-interaction trajectory of the system qubit",
        "transmon-budget": "timing feasibility of the superconducting realization",
        "verify": "run the full verification suite and report pass/fail",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", help="key=value config file (see README for the schema)")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int,
                       help="accepted and ignored, so that older scripts keep working")
        p.add_argument("--svg", action="store_true",
                       help="also render a static SVG next to the CSV")
        if name == "verify":
            p.add_argument("--only", help="comma-separated subset of criteria to run, e.g. 3,7")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        text = ""
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
        config = parse_config(text, experiment=args.command)
        if args.seed is not None:
            if "seed" not in SCHEMAS[config.experiment]:
                raise ConfigError(f"experiment {config.experiment!r} takes no seed")
            config.settings["seed"] = args.seed
        table = _COMMANDS[config.experiment](config, args)
        table.metadata = {**_metadata(config), **table.metadata}
        if args.out:
            with _writing_output():
                write_csv(table, args.out)
            if args.svg:
                svg = _render_svg(config.experiment, table)
                if svg is None:
                    print(f"note: --svg not supported for {config.experiment}", file=sys.stderr)
                else:
                    svg_path = os.path.splitext(args.out)[0] + ".svg"
                    with _writing_output(), open(svg_path, "w", encoding="utf-8") as fh:
                        fh.write(svg)
        elif args.svg:
            raise ConfigError("--svg requires --out")
        return 0
    except ConfigError as exc:
        print(f"error: config: {_one_line(exc)}", file=sys.stderr)
        return 2
    except GuardViolation as exc:
        print(f"error: guard: {_one_line(exc)}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: config: {_one_line(exc)}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: config: out of memory: {_one_line(exc)}", file=sys.stderr)
        return 2


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
