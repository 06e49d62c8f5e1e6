"""thermoclass: a single qubit dissipating into several finite-temperature
reservoirs acts as a binary classifier of their temperature data. The steady
state is computed three independent ways -- closed form, master-equation
integration, and a repeated-interaction (collision) model -- and the paths
cross-validate each other.

The public names below live in submodules, which are imported on first
access (PEP 562), so `import thermoclass` loads none of them.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "ClassificationResult", "DecisionRule", "NotSeparable", "Perceptron", "classify",
        "gamma_sweep", "generate_instances", "perceptron_fit", "thermalization_curves",
    ), "classifier"),
    **dict.fromkeys(("Trajectory", "boltzmann_temperature"), "channel"),
    **dict.fromkeys(("CollisionConfig", "run_collisions", "run_collisions_many"), "collisions"),
    **dict.fromkeys(("ConfigError", "GuardViolation"), "errors"),
    **dict.fromkeys((
        "SystemConfig", "evolve", "evolve_many", "make_config", "steady_population_ratios",
        "steady_temperature", "steady_temperatures", "thermal_occupation",
    ), "lindblad"),
    **dict.fromkeys((
        "BudgetReport", "DispersivePair", "TimingBudget", "budget_report", "effective_coupling",
    ), "transmon"),
}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
