"""thermoclass: a single qubit dissipating into several finite-temperature
reservoirs acts as a binary classifier of their temperature data. The steady
state is computed three independent ways -- closed form, master-equation
integration, and a repeated-interaction (collision) model -- and the paths
cross-validate each other.
"""

__version__ = "0.1.0"

from .classifier import (
    ClassificationResult,
    DecisionRule,
    LabeledPoint,
    NotSeparable,
    Perceptron,
    classify,
    gamma_sweep,
    generate_instances,
    perceptron_fit,
    thermalization_curves,
)
from .channel import Trajectory, boltzmann_temperature
from .collisions import CollisionConfig, run_collisions, single_collision
from .errors import ConfigError, GuardViolation
from .lindblad import (
    SystemConfig,
    evolve,
    evolve_many,
    lindblad_rhs,
    make_config,
    mean_bath_temperature,
    steady_population_ratio,
    steady_state,
    steady_temperature,
    steady_temperatures,
    thermal_occupation,
)
from .transmon import BudgetReport, DispersivePair, TimingBudget, budget_report, effective_coupling

__all__ = [
    "__version__",
    "BudgetReport",
    "ClassificationResult",
    "CollisionConfig",
    "ConfigError",
    "DecisionRule",
    "DispersivePair",
    "GuardViolation",
    "LabeledPoint",
    "NotSeparable",
    "Perceptron",
    "SystemConfig",
    "TimingBudget",
    "Trajectory",
    "boltzmann_temperature",
    "budget_report",
    "classify",
    "effective_coupling",
    "evolve",
    "evolve_many",
    "gamma_sweep",
    "generate_instances",
    "lindblad_rhs",
    "make_config",
    "mean_bath_temperature",
    "perceptron_fit",
    "run_collisions",
    "single_collision",
    "steady_population_ratio",
    "steady_state",
    "steady_temperature",
    "steady_temperatures",
    "thermal_occupation",
    "thermalization_curves",
]
