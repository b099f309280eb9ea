"""Rate-independent hysteresis operators coupled to reaction-diffusion solvers.

The package is organized by subject: ``hysteresis`` (scalar stop and play
operators with exact directional derivatives), ``spatial`` (structured-grid
diffusion operators, quadrature, semigroup diagnostics), ``evolution`` (the
coupled time integration and its Picard variant), ``sensitivity`` (the
linearized equation and finite-difference verification), ``control``
(tracking-type optimal control), and ``scenario``/``cli`` (JSON scenarios and
the command line front end).
"""

from .errors import (
    BlowupError,
    EmptyBoundaryError,
    GridMismatchError,
    InvalidConfigError,
    InvalidSignalError,
    NonContractionError,
    NonsmoothPointError,
    NumericalFailureError,
    ScenarioValidationError,
    StopsimError,
    UnsupportedConfigurationError,
)
from .hysteresis import (
    BranchCensus,
    DerivativeState,
    HysteresisConfig,
    HysteresisOutput,
    PiecewiseLinearSignal,
    StopCursor,
    branch_census,
    stop_concatenate,
    stop_directional_derivative,
    stop_evaluate,
)
from .spatial import (
    BoundarySides,
    DomainSpec,
    FractionalPowerReport,
    SFunctional,
    SpatialDiscretization,
    apply_semigroup_step,
    assemble,
    component_spectrum,
    evaluate_S,
    fractional_power_diagnostic,
    quad_norm,
    s_operator_norm,
)
from .evolution import (
    BoundednessReport,
    ReactionFunction,
    SolverConfig,
    Source,
    Trajectory,
    boundedness_report,
    picard_slice_iterate,
    solve_state,
)
from .sensitivity import (
    FdStudy,
    LinearizedProblem,
    SensitivityRecord,
    fd_convergence_study,
    hadamard_perturbed_quotient,
    solve_sensitivity,
)
from .control import (
    ControlProblem,
    ControlSpec,
    OptimizeResult,
    apply_B,
    control_gram,
    optimize,
    reduced_cost,
    reduced_cost_directional_derivative,
)
from .scenario import (
    ControlSetup,
    Scenario,
    build_control_problem,
    load_hysteresis_config,
    load_scenario,
    loads,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "StopsimError",
    "InvalidSignalError",
    "InvalidConfigError",
    "GridMismatchError",
    "ScenarioValidationError",
    "UnsupportedConfigurationError",
    "EmptyBoundaryError",
    "NumericalFailureError",
    "BlowupError",
    "NonsmoothPointError",
    "NonContractionError",
    "PiecewiseLinearSignal",
    "HysteresisConfig",
    "HysteresisOutput",
    "DerivativeState",
    "StopCursor",
    "BranchCensus",
    "stop_evaluate",
    "stop_directional_derivative",
    "stop_concatenate",
    "branch_census",
    "DomainSpec",
    "BoundarySides",
    "SpatialDiscretization",
    "SFunctional",
    "FractionalPowerReport",
    "assemble",
    "quad_norm",
    "evaluate_S",
    "s_operator_norm",
    "apply_semigroup_step",
    "component_spectrum",
    "fractional_power_diagnostic",
    "ReactionFunction",
    "SolverConfig",
    "Source",
    "Trajectory",
    "BoundednessReport",
    "solve_state",
    "picard_slice_iterate",
    "boundedness_report",
    "LinearizedProblem",
    "SensitivityRecord",
    "FdStudy",
    "solve_sensitivity",
    "fd_convergence_study",
    "hadamard_perturbed_quotient",
    "ControlSpec",
    "ControlProblem",
    "OptimizeResult",
    "apply_B",
    "control_gram",
    "reduced_cost",
    "reduced_cost_directional_derivative",
    "optimize",
    "Scenario",
    "ControlSetup",
    "load_scenario",
    "load_hysteresis_config",
    "build_control_problem",
    "loads",
]
