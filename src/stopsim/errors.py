"""Exception hierarchy shared by all modules.

Every error the CLI can surface carries an ``exit_code`` so the entry point
maps failures without a parallel lookup table: 2 for anything wrong with
inputs or configuration, 3 for numerical failures, 4 for a Picard iteration
that refuses to contract.
"""

__all__ = [
    "StopsimError",
    "InvalidSignalError",
    "InvalidConfigError",
    "GridMismatchError",
    "ScenarioValidationError",
    "EmptyBoundaryError",
    "NumericalFailureError",
    "BlowupError",
    "NonsmoothPointError",
    "NonContractionError",
]


class StopsimError(Exception):
    exit_code = 1


class InvalidSignalError(StopsimError):
    """A piecewise-linear signal violates its invariants."""

    exit_code = 2


class InvalidConfigError(StopsimError):
    """A configuration object violates its invariants."""

    exit_code = 2


class GridMismatchError(StopsimError):
    """Two objects that must share a grid or shape do not."""

    exit_code = 2


class ScenarioValidationError(StopsimError):
    """Scenario JSON failed validation; message names the offending field path."""

    exit_code = 2

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


class EmptyBoundaryError(StopsimError):
    """Boundary control requested but no component has Neumann boundary nodes."""

    exit_code = 2


class NumericalFailureError(StopsimError):
    exit_code = 3

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)


class BlowupError(NumericalFailureError):
    """State exceeded the magnitude guard or became non-finite."""


class NonsmoothPointError(NumericalFailureError):
    """A reaction derivative was probed where it is undefined."""


class NonContractionError(StopsimError):
    """Picard sweeps did not contract within the iteration budget."""

    exit_code = 4
