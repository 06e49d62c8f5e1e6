"""The package and the CLI load a submodule only when it is first used."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import thermoclass

# every public name and the submodule it comes from
HOMES = {
    "classifier": ("ClassificationResult", "DecisionRule", "NotSeparable", "Perceptron",
                   "classify", "gamma_sweep", "generate_instances", "perceptron_fit",
                   "thermalization_curves"),
    "channel": ("Trajectory", "boltzmann_temperature"),
    "collisions": ("CollisionConfig", "run_collisions", "run_collisions_many"),
    "errors": ("ConfigError", "GuardViolation"),
    "lindblad": ("SystemConfig", "evolve", "evolve_many", "lindblad_rhs", "make_config",
                 "mean_bath_temperature", "steady_population_ratio", "steady_state",
                 "steady_temperature", "steady_temperatures", "thermal_occupation"),
    "transmon": ("BudgetReport", "DispersivePair", "TimingBudget", "budget_report",
                 "effective_coupling"),
}


def _fresh(code: str) -> str:
    """stdout of a fresh interpreter that runs code, with this one's sys.path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout


def _loaded_after(statements: str) -> dict:
    """The thermoclass modules a fresh interpreter has loaded after running
    the statements, and whether numpy and argparse are loaded."""
    return json.loads(_fresh(
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statements}\n"
        "print(json.dumps({'package': sorted(m for m in sys.modules if m.split('.')[0] == 'thermoclass'),"
        " 'numpy': 'numpy' in sys.modules, 'argparse': 'argparse' in sys.modules}))\n"
    ))


CLI_MODULES = ["thermoclass", "thermoclass.cli", "thermoclass.errors", "thermoclass.tables"]


def test_importing_the_cli_loads_only_its_own_modules():
    assert _loaded_after("import thermoclass.cli") == {
        "package": CLI_MODULES, "numpy": True, "argparse": True}


CLOSED_FORM = ["thermoclass.channel", "thermoclass.lindblad", "thermoclass.qmat"]


@pytest.mark.parametrize("command, added", [
    ("steady", CLOSED_FORM),
    ("transmon-budget", ["thermoclass.transmon"]),
    ("classify-temp", ["thermoclass.classifier", *CLOSED_FORM]),
    ("classify-gamma", ["thermoclass.classifier", *CLOSED_FORM]),
    ("sweep-gamma", ["thermoclass.classifier", *CLOSED_FORM]),
])
def test_a_subcommand_loads_only_the_modules_it_runs(command, added):
    loaded = _loaded_after(f"import thermoclass.cli; assert thermoclass.cli.main([{command!r}]) == 0")
    assert loaded["package"] == sorted(CLI_MODULES + added)


def test_public_names_resolve_to_their_home_objects():
    public = [name for names in HOMES.values() for name in names]
    assert sorted(thermoclass.__all__) == sorted(["__version__", *public])
    for home, names in HOMES.items():
        module = importlib.import_module(f"thermoclass.{home}")
        for name in names:
            assert getattr(thermoclass, name) is getattr(module, name), name
    namespace = {}
    exec("from thermoclass import *", namespace)
    assert namespace["steady_temperature"] is thermoclass.lindblad.steady_temperature
    assert namespace["__version__"] == thermoclass.__version__


def test_dir_lists_public_names_and_unknown_names_raise():
    # in a fresh interpreter, before any name has been looked up
    listed = _fresh("import json, thermoclass; print(json.dumps(dir(thermoclass)))")
    assert set(thermoclass.__all__) <= set(json.loads(listed))
    with pytest.raises(AttributeError, match="no_such_name"):
        thermoclass.no_such_name
