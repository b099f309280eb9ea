"""Scalar stop and play hysteresis operators on piecewise-linear signals.

The stop operator drives an internal state z through the characteristic
interval [a, b]: strictly inside, z follows increments of the input
one-for-one; at a bound it sticks until the input pulls it back in.  For a
piecewise-linear input the projection recursion

    z[k+1] = clamp(z[k] + (v[k+1] - v[k]), a, b)

is exact, not a discretization.  The play operator is the complementary
part, play = v - stop + (z0 - v[0]), so the two add back to the input up to
the initialization offset.

All evaluation runs in offset coordinates w = z - v.  One step is then a
pure clamp of the carried w against the moving bounds a - v[k], b - v[k]:
a selection among already-rounded floats, with no arithmetic on the state.
Consequently inserting collinear breakpoints or splitting a signal at a grid
point reproduces the one-pass results bit for bit, which the z-form
recursion (regrouped increment sums) does not achieve in floating point.
One loop runs the recursion over a whole signal: ``stop_evaluate`` continues
the one-point evaluation at the first grid point, ``stop_concatenate``
continues a prefix, and the directional derivative reads the offsets that
loop carried.

The directional derivative of the stop obeys the one-sided rule of the
clamp: the derivative state passes through unchanged while the base state is
strictly interior, is reset to the bound's own rate when the base state sits
strictly outside a moving bound, and takes the one-sided max/min exactly at
a bound.  ``branch_census`` is the one statement of which branch each step
takes, from the same w values the base recursion carried; every derivative
pass reads it and carries omega through ``_omega_step``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (_NUMBER, GridMismatchError, InvalidConfigError, InvalidSignalError,
                     _checked, _fail)

__all__ = [
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
]


def _signal_array(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise InvalidSignalError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class PiecewiseLinearSignal:
    """Scalar time series; values are interpolated linearly between grid points."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _signal_array(self.times, "times")
        values = _signal_array(self.values, "values")
        if times.size == 0:
            raise InvalidSignalError("signal needs at least one grid point")
        if times.size != values.size:
            raise InvalidSignalError(
                f"times and values must have equal length ({times.size} != {values.size})"
            )
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise InvalidSignalError("signal entries must be finite")
        if times.size > 1 and not np.all(times[1:] > times[:-1]):
            raise InvalidSignalError("times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.times.size


_HYSTERESIS = {"a": _NUMBER, "b": _NUMBER, "z0": _NUMBER}


@dataclass(frozen=True)
class HysteresisConfig:
    """Characteristic interval [a, b] and initial state z0."""

    a: float
    b: float
    z0: float

    def __post_init__(self):
        for name, value in _checked(_HYSTERESIS, vars(self)).items():
            object.__setattr__(self, name, value)
        if not self.a < self.b:
            _fail("a", "must be strictly less than b")
        if not self.a <= self.z0 <= self.b:
            _fail("z0", f"must lie in [{self.a}, {self.b}]")


class StopCursor:
    """Running state of the stop recursion; supports split-and-continue.

    Carries the offset w = z - v.  ``advance`` performs one clamp step and
    returns the new stop value.  Continuing a signal through a cursor is
    bitwise identical to evaluating it in one pass.
    """

    __slots__ = ("cfg", "w", "v", "z")

    def __init__(self, cfg: HysteresisConfig, v0: float):
        self.cfg = cfg
        w = cfg.z0 - v0
        # rounding keeps w inside [a - v0, b - v0]; clamp anyway so the
        # invariant is structural rather than a rounding argument
        lo = cfg.a - v0
        hi = cfg.b - v0
        if w < lo:
            w = lo
        elif w > hi:
            w = hi
        self.w = w
        self.v = v0
        self.z = cfg.z0

    def advance(self, v_next: float) -> float:
        cfg = self.cfg
        lo = cfg.a - v_next
        hi = cfg.b - v_next
        w = self.w
        if w <= lo:
            w = lo
        elif w >= hi:
            w = hi
        self.w = w
        self.v = v_next
        z = w + v_next
        # final selection keeps the reported value inside [a, b] exactly
        if z < cfg.a:
            z = cfg.a
        elif z > cfg.b:
            z = cfg.b
        self.z = z
        return z


INTERIOR, AT_A, AT_B, TIE_A, TIE_B = range(5)


@dataclass(frozen=True)
class BranchCensus:
    """Branch of the one-sided clamp derivative rule at each step of a path.

    ``steps[k - 1]`` is the branch of step k: ``INTERIOR`` (the derivative
    passes through), ``AT_A`` or ``AT_B`` (the base input pushes the state
    strictly past that bound, so the derivative resets), or ``TIE_A`` or
    ``TIE_B`` (the carried offset sits exactly on that moving bound, where
    the derivative is only positively homogeneous in the direction).  The
    counts follow; ``tie`` counts both tie codes.
    """

    steps: np.ndarray
    interior: int
    at_a: int
    at_b: int
    tie: int


def branch_census(cfg: HysteresisConfig, offsets, inputs) -> BranchCensus:
    """Branches of the stop derivative along a stored base path.

    ``offsets`` are the carried offsets w_k and ``inputs`` the inputs v_k of
    the base recursion, as a ``Trajectory`` stores them; step k compares
    w_{k-1} with the bounds moved by v_k.  Where a - v_k and b - v_k round
    to the same float, a's tie wins.
    """
    w_prev = np.asarray(offsets, dtype=float)[:-1]
    v_next = np.asarray(inputs, dtype=float)[1:]
    lo = cfg.a - v_next
    hi = cfg.b - v_next
    steps = np.full(w_prev.size, INTERIOR)
    steps[w_prev < lo] = AT_A
    steps[w_prev > hi] = AT_B
    steps[w_prev == hi] = TIE_B
    steps[w_prev == lo] = TIE_A
    interior, at_a, at_b, tie_a, tie_b = np.bincount(steps, minlength=5).tolist()
    return BranchCensus(steps, interior, at_a, at_b, tie_a + tie_b)


def _omega_step(branch, omega, dv):
    """One step of the stop derivative on its census ``branch``, carried as
    omega = zeta - dv, where dv is the direction's input at the step.
    Carrying omega instead of zeta lets a scaled direction rescale every
    branch outcome without re-rounding the base path; zeta = omega + dv."""
    if branch == INTERIOR:
        return omega
    neg = -dv
    if branch == TIE_A:
        return neg if neg > omega else omega
    if branch == TIE_B:
        return neg if neg < omega else omega
    return neg


@dataclass(frozen=True)
class HysteresisOutput:
    """Stop and play signals plus the continuation state for concatenation.

    ``resume_offset``/``resume_input`` are the internal offset w and the last
    input value; ``play_offset`` is z0 - v[0].  They let a later
    ``stop_concatenate`` reproduce the one-pass bit pattern, which cannot be
    recovered from the rounded stop values alone.
    """

    stop: PiecewiseLinearSignal
    play: PiecewiseLinearSignal
    cfg: HysteresisConfig
    resume_offset: float
    resume_input: float
    play_offset: float


@dataclass(frozen=True)
class DerivativeState:
    """Stop values along the base signal and the directional derivative."""

    base_stop: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base_stop, dtype=float)
        der = np.asarray(self.derivative, dtype=float)
        if base.shape != der.shape:
            raise GridMismatchError("base_stop and derivative must share a grid")
        if der.size and der[0] != 0.0:
            raise InvalidConfigError("derivative must start at 0")
        base.setflags(write=False)
        der.setflags(write=False)
        object.__setattr__(self, "base_stop", base)
        object.__setattr__(self, "derivative", der)


def _stop_path(cfg: HysteresisConfig, w, values):
    """The stop recursion from the carried offset ``w`` at ``values[0]``: the
    stop values at ``values[1:]`` and the offsets at every point.  This is the
    one loop that advances a cursor over a signal."""
    cur = StopCursor(cfg, values[0])
    cur.w = w
    advance = cur.advance
    stop, offsets = [], [w]
    for v in values[1:].tolist():
        stop.append(advance(v))
        offsets.append(cur.w)
    return np.array(stop), np.array(offsets)


def stop_evaluate(v: PiecewiseLinearSignal, cfg: HysteresisConfig) -> HysteresisOutput:
    """Evaluate stop and play along ``v``.

    The stop starts at z0 and is confined to [a, b]; the play is
    v - stop + (z0 - v[0]), zero at the first grid point by construction.
    This is the continuation of the one-point evaluation at ``v``'s first
    grid point, whose play (v0 - z0) + (z0 - v0) is exactly +0.0.
    """
    v0 = v.values[0]
    start = HysteresisOutput(
        stop=PiecewiseLinearSignal(v.times[:1], [cfg.z0]),
        play=PiecewiseLinearSignal(v.times[:1], [0.0]),
        cfg=cfg,
        resume_offset=StopCursor(cfg, v0).w,
        resume_input=v0,
        play_offset=cfg.z0 - v0,
    )
    return stop_concatenate(start, v, cfg)


def stop_directional_derivative(
    v: PiecewiseLinearSignal, h: PiecewiseLinearSignal, cfg: HysteresisConfig
) -> DerivativeState:
    """One-sided directional derivative of the stop at ``v`` in direction ``h``.

    Returns the base stop values and the derivative signal zeta with
    zeta[0] = 0.  The recursion differentiates each clamp step one-sidedly,
    so the result is the limit of (stop(v + lam*h) - stop(v))/lam as
    lam decreases to 0 from above.  Each step takes the branch that the
    census of the base pass's offsets records.
    """
    if not np.array_equal(v.times, h.times):
        raise GridMismatchError("direction must share the base signal's time grid")
    values = v.values
    rates = h.values
    stop, offsets = _stop_path(cfg, StopCursor(cfg, values[0]).w, values)
    omega = -rates[0]  # zeta starts at 0: the initial state does not move
    zeta = [0.0]
    for branch, dv in zip(branch_census(cfg, offsets, values).steps.tolist(),
                          rates[1:].tolist()):
        omega = _omega_step(branch, omega, dv)
        zeta.append(omega + dv)
    return DerivativeState(base_stop=np.concatenate(([cfg.z0], stop)), derivative=zeta)


def stop_concatenate(
    prefix: HysteresisOutput, v_tail: PiecewiseLinearSignal, cfg: HysteresisConfig
) -> HysteresisOutput:
    """Continue a previous evaluation over ``v_tail``.

    The tail's first grid point must coincide with the prefix's last (same
    timestamp, same input value); the concatenated output is bitwise equal
    to evaluating the joined signal in one pass.  A single-point tail
    returns the prefix unchanged.
    """
    if cfg != prefix.cfg:
        raise InvalidConfigError("concatenation config differs from the prefix's")
    if v_tail.times[0] != prefix.stop.times[-1]:
        raise GridMismatchError(
            f"tail must start at the prefix's final timestamp "
            f"({v_tail.times[0]} != {prefix.stop.times[-1]})"
        )
    if v_tail.values[0] != prefix.resume_input:
        raise GridMismatchError(
            f"tail must start at the prefix's final input value "
            f"({v_tail.values[0]} != {prefix.resume_input})"
        )
    if len(v_tail) == 1:
        return prefix

    tail_values = v_tail.values
    stop_tail, offsets = _stop_path(cfg, prefix.resume_offset, tail_values)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        play_tail = (tail_values[1:] - stop_tail) + prefix.play_offset
    if not np.isfinite(play_tail).all():  # finite inputs whose difference overflows
        t = float(v_tail.times[1 + np.argmin(np.isfinite(play_tail))])
        raise InvalidSignalError(f"play v - stop + (z0 - v0) is not finite from t = {t!r}")

    times = np.concatenate([prefix.stop.times, v_tail.times[1:]])
    stop = np.concatenate([prefix.stop.values, stop_tail])
    play = np.concatenate([prefix.play.values, play_tail])
    return HysteresisOutput(
        stop=PiecewiseLinearSignal(times, stop),
        play=PiecewiseLinearSignal(times, play),
        cfg=cfg,
        resume_offset=offsets[-1],
        resume_input=tail_values[-1],
        play_offset=prefix.play_offset,
    )
