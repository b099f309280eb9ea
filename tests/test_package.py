"""The package's public surface.

Each module's ``__all__`` is its surface, and ``stopsim.__all__`` is their
concatenation; the names perfbench traces must stay where it looks them up.
"""

import importlib

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
    "LinearizedProblem", "SensitivityRecord", "FdStudy", "solve_sensitivity",
    "fd_convergence_study", "hadamard_perturbed_quotient",
    # control
    "ControlSpec", "ControlProblem", "OptimizeResult", "apply_B", "control_gram",
    "reduced_cost", "reduced_cost_directional_derivative", "optimize",
    # scenario
    "Scenario", "ControlSetup", "load_scenario", "load_hysteresis_config",
    "build_control_problem", "loads", "DEFAULT_LAMBDAS",
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
