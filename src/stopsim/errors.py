"""Exception hierarchy and the value rules shared by all modules.

Every error the CLI can surface carries an ``exit_code`` so the entry point
maps failures without a parallel lookup table: 2 for anything wrong with
inputs or configuration, 3 for numerical failures, 4 for a Picard iteration
that refuses to contract.

A scalar parameter's rule is one ``_Field``, declared next to the code that
takes the value; an array parameter's is ``_array``, and a rule that spans
values is written once, in the constructor that takes them.  The scenario
schema and the library both check with the checkers here, so a constructor
refuses what a scenario file refuses, with the same wording under the
parameter's own name (``dt: must be greater than 0.0``, ``a: must be
strictly less than b``).  A rule that needs the grid is written once where
the library reads the grid: ``spatial._component`` (a component index),
``control._boundary_data`` (Neumann nodes to control), ``control._grid_modes``
and ``spatial._s_field`` (two shapes), ``evolution._path`` (a time path on the
solver's grid) and ``_check_entries`` here (counts).
"""

import math
import numbers
from typing import NamedTuple

import numpy as np

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


class ScenarioValidationError(InvalidConfigError):
    """A value failed its rule; the message names the offending field path."""

    def __init__(self, field_path, message):
        self.field_path, self.reason = field_path, message
        super().__init__(f"{field_path}: {message}" if field_path else message)


class EmptyBoundaryError(ScenarioValidationError):
    """A boundary control names a component with no Neumann boundary nodes."""


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


_REQUIRED = object()  # the default of a field that must be given


def _fail(path, message):
    raise ScenarioValidationError(path, message)


class _Field(NamedTuple):
    """One field of a block.  ``type`` is its checker (``_number``,
    ``_integer``, ``_string``, ``_array``), or "any" or a
    nested table or ``_Variants``, which its builder checks.  ``default`` is
    ``_REQUIRED``, ``None`` (optional, left out when absent) or an absent
    field's value."""

    type: object
    default: object = _REQUIRED
    minimum: float = None            # "must be at least"
    exclusive_minimum: float = None  # "must be greater than"
    below: float = None              # "must be less than"
    choices: tuple = None


def _number(value, path, f):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if f.minimum is not None and value < f.minimum:
        _fail(path, f"must be at least {f.minimum}")
    if f.exclusive_minimum is not None and value <= f.exclusive_minimum:
        _fail(path, f"must be greater than {f.exclusive_minimum}")
    if f.below is not None and value >= f.below:
        _fail(path, f"must be less than {f.below}")
    return value


def _integer(value, path, f):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        _fail(path, "expected an integer")
    if f.minimum is not None and value < f.minimum:
        _fail(path, f"must be at least {f.minimum}")
    return int(value)


def _string(value, path, f):
    if not isinstance(value, str):
        _fail(path, "expected a string")
    if f.choices is not None and value not in f.choices:
        _fail(path, f"must be one of {', '.join(f.choices)}")
    return value


def _array(value, path, f=None):
    """``value`` as a float array: a list, tuple or integer or float ndarray
    whose entries are all finite numbers (no strings, booleans or nulls)."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            _fail(path, "expected an array of numbers")
    elif not isinstance(value, (list, tuple)):
        _fail(path, "expected an array")
    else:
        stack = [value]
        while stack:
            for x in stack.pop():
                if isinstance(x, (list, tuple)):
                    stack.append(x)
                elif isinstance(x, bool) or not isinstance(x, numbers.Real):
                    _fail(path, "expected an array of numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged, too deep, or an int beyond float
        _fail(path, "expected an array of numbers")
    if not np.isfinite(arr).all():
        _fail(path, "entries must be finite")
    return arr


def _check_entries(values, n, path):
    """The count rule: ``values`` must be a vector of ``n`` entries."""
    if values.shape != (n,):
        _fail(path, f"expected {n} entries, got shape {values.shape}")


def _axes(value, path, dim, f, expected):
    """One ``f`` per axis, from a list (or tuple) of ``dim`` entries."""
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        _fail(path, f"expected {expected}")
    return tuple(f.type(v, f"{path}[{i}]", f) for i, v in enumerate(value))


def _checked(table, values):
    """The entries of ``values`` that ``table`` declares, each checked by its
    field under its own name; None passes where the field is optional."""
    return {name: values[name] if values[name] is None and f.default is None
            else f.type(values[name], name, f) for name, f in table.items()}


_ANY = _Field("any")
_NUMBER = _Field(_number)
_POSITIVE = _Field(_number, exclusive_minimum=0.0)
_INDEX = _Field(_integer, 0, minimum=0)  # a component, below the component count
