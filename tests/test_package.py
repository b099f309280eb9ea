"""The package's public surface.

Each module's ``__all__`` is its surface, and ``stopsim.__all__`` is their
concatenation; the names perfbench traces must stay where it looks them up.
A solved path carries the equation it solved, so no entry point asks for
both.
"""

import importlib
import inspect
import os
import re

import pytest

import stopsim
from stopsim import control, errors, evolution, hysteresis, scenario, sensitivity, spatial

MODULES = (errors, hysteresis, spatial, evolution, sensitivity, control, scenario)

SURFACE = {
    "__version__",
    # errors
    "StopsimError", "InvalidSignalError", "InvalidConfigError", "GridMismatchError",
    "ScenarioValidationError", "EmptyBoundaryError",
    "NumericalFailureError", "BlowupError", "NonsmoothPointError", "NonContractionError",
    # hysteresis
    "PiecewiseLinearSignal", "HysteresisConfig", "HysteresisOutput", "DerivativeState",
    "StopCursor", "BranchCensus", "stop_evaluate", "stop_directional_derivative",
    "stop_concatenate", "branch_census",
    # spatial
    "DomainSpec", "BoundarySides", "SpatialDiscretization", "SFunctional",
    "FractionalPowerReport", "assemble", "quad_norm", "evaluate_S",
    "fractional_power_diagnostic",
    # evolution
    "ReactionFunction", "SolverConfig", "Source", "Trajectory", "BoundednessReport",
    "solve_state", "picard_slice_iterate", "boundedness_report",
    # sensitivity
    "SensitivityRecord", "FdStudy", "solve_sensitivity",
    "fd_convergence_study", "hadamard_perturbed_quotient",
    # control
    "ControlSpec", "ControlProblem", "OptimizeResult", "apply_B", "control_gram",
    "reduced_cost", "optimize",
    # scenario
    "Scenario", "ControlSetup", "load_scenario", "load_hysteresis_config",
    "build_control_problem", "DEFAULT_LAMBDAS",
}

# the functions perfbench's layer table names (ROADMAP item 1, "Traced names")
TRACED = [
    "evolution.solve_state", "evolution.picard_slice_iterate",
    "sensitivity.solve_sensitivity", "spatial.evaluate_S", "spatial.quad_norm",
    "spatial.assemble", "control.apply_B", "control.reduced_cost", "control.optimize",
    "scenario.load_scenario", "cli.read_signal_csv", "hysteresis.stop_evaluate",
    "hysteresis.StopCursor.advance", "evolution.ReactionFunction.value",
    "evolution.ReactionFunction.directional",
]


def test_the_package_list_is_the_module_lists():
    assert len(stopsim.__all__) == len(set(stopsim.__all__))
    assert stopsim.__all__ == ["__version__", *(
        name for module in MODULES for name in module.__all__)]


def test_each_name_is_its_defining_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(stopsim, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_the_surface_is_exactly_the_declared_names():
    assert set(stopsim.__all__) == SURFACE


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_exists_in_its_module(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"stopsim.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj) and obj.__module__ == f"stopsim.{module}", name


# the pieces of the equation a ``Trajectory`` records from its solve
EQUATION = {"disc", "sfun", "reaction", "hyst_cfg", "solver"}


def public_callables():
    """Each callable public name, and each public method of a public class."""
    for name in stopsim.__all__:
        obj = getattr(stopsim, name)
        if callable(obj):
            yield name, obj
        if isinstance(obj, type):
            for attr in dir(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_no_entry_point_takes_a_solved_path_and_its_equation():
    at_a_path = set()
    for name, obj in public_callables():
        try:
            params = set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):  # builtins without a signature
            continue
        if params & {"base", "traj"}:
            at_a_path.add(name)
            assert not params & EQUATION, (name, sorted(params & EQUATION))
    assert {"solve_sensitivity", "fd_convergence_study", "hadamard_perturbed_quotient",
            "boundedness_report"} <= at_a_path


def test_the_readme_examples_run_in_order():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 4
    namespace = {}  # each block reads what the blocks before it defined
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
