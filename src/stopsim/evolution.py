"""Time integration of the coupled state equation: the control-to-state map.

The state y is an m-component grid field driven by diffusion, a pointwise
reaction f(y, z), a source u, and the scalar hysteresis output z, which is
the stop operator applied to the running signal v_k = S y_k.  Starting from
y_0 = 0, the IMEX step treats diffusion implicitly and everything else
explicitly:

    (D + dt L) y[k+1] = D (y[k] + dt (f(y[k], z[k]) + u[k]))

with z advanced by the stop recursion after each step.  The source u is a
dense (N+1, m, n_nodes) path or a ``Source``, kept as a time amplitude times
a spatial profile; the rules only add u[k], so both take the same code.
Every time path a solve or its derivatives take (source, direction,
remainder, control target) passes one rule, ``_path``: shaped on the
solver's grid, every entry finite.
The Picard-sliced scheme solves the same recursion slice by slice as a fixed
point: each sweep freezes reaction and hysteresis at the previous iterate, so
the fixed point satisfies the IMEX recursion exactly and the two schemes
agree to the Picard tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (_NUMBER, _POSITIVE, BlowupError, GridMismatchError,
                     InvalidConfigError, NonContractionError, NonsmoothPointError, _array,
                     _checked, _fail, _Field, _integer, _number, _string)
from .hysteresis import HysteresisConfig, PiecewiseLinearSignal, StopCursor
from .spatial import SFunctional, SpatialDiscretization, _path_norms, _Stepper

__all__ = [
    "ReactionFunction",
    "SolverConfig",
    "Source",
    "Trajectory",
    "BoundednessReport",
    "solve_state",
    "picard_slice_iterate",
    "boundedness_report",
]

BLOWUP_GUARD = 1e12  # abort when any node magnitude exceeds this
# per step, a sum of squares at most this (one dot; false for a nan) clears
# the guard with room for rounding; other states go to ``_guard``'s test
_GUARD_SQ = (BLOWUP_GUARD / 2) ** 2
_WINDOW_BYTES = 65536  # a direct march without a path holds rows that fit this, one at least

_REACTION_PARAMS = {  # each catalog reaction's parameters, in ``params`` order
    kind: dict.fromkeys(names, _NUMBER) for kind, names in {
        "linear": ("constant", "state", "hysteresis"),
        "saturating": ("state_amplitude", "state_rate", "hysteresis_amplitude",
                       "hysteresis_rate"),
        "logistic-capped": ("rate", "capacity", "cap", "hysteresis"),
    }.items()}
REACTION_KINDS = (*_REACTION_PARAMS, "user-table")
SCHEMES = ("imex-euler", "picard-sliced")
_SOLVER = {
    "dt": _POSITIVE,
    "t_final": _POSITIVE,
    "scheme": _Field(_string, "imex-euler", choices=SCHEMES),
    "slice_length": _Field(_number, None, exclusive_minimum=0.0),
    "picard_tol": _Field(_number, 1e-10, exclusive_minimum=0.0),
    "picard_max_iters": _Field(_integer, 60, minimum=1),
}


def _as_float(z):
    """A float ``z`` (numpy's float64 is one) as a numpy float, anything else as
    a float array."""
    return np.float64(z) if isinstance(z, float) else np.asarray(z, dtype=float)


def _catalog_kernels(kind, p):
    """A catalog kind's ``value`` and ``directional`` kernels, each writing into ``out``."""
    if kind == "linear":  # p0 + p1 y + p2 z
        def value(y, z, out):
            np.add(np.multiply(y, p[1], out=out), p[0], out=out)
            out += p[2] * z

        def directional(y, z, dy, dz, out):  # p1 dy + p2 dz, which reads neither y nor z
            np.add(np.multiply(dy, p[1], out=out), p[2] * dz, out=out)
    elif kind == "saturating":  # a1 tanh(r1 y) + a2 tanh(r2 z)
        a1, r1, a2, r2 = p

        def value(y, z, out):
            np.tanh(np.multiply(y, r1, out=out), out=out)
            out *= a1
            out += a2 * np.tanh(r2 * z)

        def directional(y, z, dy, dz, out):  # a1 r1 (1 - ty^2) dy + a2 r2 (1 - tz^2) dz
            ty = np.tanh(np.multiply(y, r1, out=out), out=out)
            np.subtract(1.0, np.multiply(ty, ty, out=out), out=out)
            out *= a1 * r1
            out *= dy
            tz = np.tanh(r2 * z)
            out += a2 * r2 * (1.0 - tz * tz) * dz
    else:  # clip(rate y (1 - y / capacity), -cap, cap) + cz z
        rate, capacity, cap, cz = p

        def value(y, z, out):
            np.clip(_logistic_inner(p, y), -cap, cap, out=out)
            out += cz * z

        def directional(y, z, dy, dz, out):
            np.subtract(1.0, np.divide(np.multiply(y, 2.0, out=out), capacity, out=out), out=out)
            out *= rate
            out *= dy  # the inner derivative, then the clip's: one-sided at a cap, 0 beyond
            x = _logistic_inner(p, y)
            np.minimum(out, 0.0, out=out, where=x == cap)
            np.maximum(out, 0.0, out=out, where=x == -cap)
            np.copyto(out, 0.0, where=~(np.abs(x) <= cap))
            out += cz * dz
    return value, directional


def _logistic_inner(p, y):
    return p[0] * y * (1.0 - y / p[1])


@dataclass(frozen=True)
class ReactionFunction:
    """Pointwise reaction f(y, z) of a catalog ``kind``, applied componentwise
    with the shared hysteresis value.

    ``params`` are the kind's parameters in ``_REACTION_PARAMS`` order:

    - ``linear``: f = constant + state*y + hysteresis*z;
    - ``saturating``: f = a1*tanh(r1*y) + a2*tanh(r2*z);
    - ``logistic-capped``: f = clip(rate*y*(1 - y/capacity), -cap, cap) + hysteresis*z.

    A ``user-table`` takes no parameters and a ``table`` (y_grid, z_grid,
    values), interpolated bilinearly; its derivatives are approximate.  Every
    kind grows at most linearly, |f(y, z)| <= M (1 + |y| + |z|) as the paper's
    well-posedness result assumes, with M = max(|constant|, |state|,
    |hysteresis|), |a1| + |a2|, max(cap, |hysteresis|) or max |values|.
    """

    kind: str
    params: tuple = ()
    table: tuple = field(default=None, compare=False)  # (y_grid, z_grid, values), user-table only
    _table_bytes: tuple = field(default=None, init=False, repr=False)  # what == and hash() see

    def __post_init__(self):
        _string(self.kind, "kind", _Field(_string, choices=REACTION_KINDS))
        names = _REACTION_PARAMS.get(self.kind, {})
        try:
            params = tuple(self.params)
        except TypeError:
            _fail("params", "expected a sequence of numbers")
        if len(params) != len(names):
            raise InvalidConfigError(
                f"{self.kind} reaction takes {len(names)} parameters, got {len(params)}"
            )
        params = tuple(_checked(names, dict(zip(names, params))).values())
        object.__setattr__(self, "params", params)

        if self.kind != "user-table":
            if self.table is not None:
                _fail("table", f"a {self.kind} reaction takes none")
            if self.kind == "logistic-capped" and (params[1] <= 0 or params[2] <= 0):
                raise InvalidConfigError("logistic capacity and cap must be positive")
            kernels = _catalog_kernels(self.kind, params)
        else:
            if not isinstance(self.table, (tuple, list)) or len(self.table) != 3:
                _fail("table", "expected (y_grid, z_grid, values)")
            yg, zg, vals = map(_array, self.table, ("y_grid", "z_grid", "values"))
            if yg.ndim != 1 or zg.ndim != 1 or yg.size < 2 or zg.size < 2:
                raise InvalidConfigError("table grids need at least two points each")
            if np.any(np.diff(yg) <= 0) or np.any(np.diff(zg) <= 0):
                raise InvalidConfigError("table grids must be strictly increasing")
            if vals.shape != (yg.size, zg.size):
                raise InvalidConfigError(
                    f"table values must have shape {(yg.size, zg.size)}, got {vals.shape}"
                )
            for a in (yg, zg, vals):
                a.setflags(write=False)
            object.__setattr__(self, "table", (yg, zg, vals))
            object.__setattr__(self, "_table_bytes", tuple((a.shape, a.tobytes()) for a in self.table))
            kernels = (lambda y, z, out: np.copyto(out, self._table_value(y, z)), self._table_directional)
        object.__setattr__(self, "_kernels", kernels)  # bound once, called by value and directional

    def directional_is_linear(self, y):
        """Whether ``directional`` is linear in the direction at every entry of ``y``.

        True for the linear and saturating kinds, and for logistic-capped
        unless an entry sits exactly at the cap, where the clip's derivative
        is one-sided.  False for tables: their quotient step scales with the
        direction.
        """
        if self.kind == "logistic-capped":
            return not np.any(np.abs(_logistic_inner(self.params, y)) == self.params[2])
        return self.kind != "user-table"

    @property
    def derivative_is_exact(self):
        return self.kind != "user-table"

    def _table_value(self, y, z, what="reaction"):
        yg, zg, vals = self.table
        y = np.asarray(y, dtype=float)
        z = np.broadcast_to(np.asarray(z, dtype=float), y.shape)
        if np.any(y < yg[0]) or np.any(y > yg[-1]) or np.any(z < zg[0]) or np.any(z > zg[-1]):
            raise NonsmoothPointError(
                f"{what} probed outside the table domain "
                f"[{yg[0]}, {yg[-1]}] x [{zg[0]}, {zg[-1]}]"
            )
        iy = np.clip(np.searchsorted(yg, y, side="right") - 1, 0, yg.size - 2)
        iz = np.clip(np.searchsorted(zg, z, side="right") - 1, 0, zg.size - 2)
        ty = (y - yg[iy]) / (yg[iy + 1] - yg[iy])
        tz = (z - zg[iz]) / (zg[iz + 1] - zg[iz])
        v00 = vals[iy, iz]
        v10 = vals[iy + 1, iz]
        v01 = vals[iy, iz + 1]
        v11 = vals[iy + 1, iz + 1]
        return (v00 * (1 - ty) * (1 - tz) + v10 * ty * (1 - tz)
                + v01 * (1 - ty) * tz + v11 * ty * tz)

    def _table_directional(self, y, z, dy, dz, out):
        """Symmetric quotient along the direction, scale-normalized, into ``out``."""
        z = np.broadcast_to(np.asarray(z, dtype=float), y.shape)
        dz = np.broadcast_to(np.asarray(dz, dtype=float), y.shape)
        scale = np.maximum(np.abs(dy), np.abs(dz))
        safe = np.where(scale > 0, scale, 1.0)
        step = 1e-6 * (1.0 + np.abs(y) + np.abs(z)) / safe
        f_plus = self._table_value(y + step * dy, z + step * dz, "derivative")
        f_minus = self._table_value(y - step * dy, z - step * dz, "derivative")
        np.copyto(out, np.where(scale > 0, (f_plus - f_minus) / (2.0 * step), 0.0))

    def value(self, y, z, out=None):
        """f(y, z) elementwise over ``y`` with scalar (or broadcast) ``z``, into ``out`` if given.

        The z-part of a catalog kind is evaluated once.  Without ``out``, ``y``
        and ``z`` are made floats (a float ``z`` a numpy scalar); with it, as
        the step rules call it, they must be a float array and a float (array).
        """
        if out is None:
            y, z = np.asarray(y, dtype=float), _as_float(z)
            out = np.empty_like(y)
        self._kernels[0](y, z, out)
        return out

    def directional(self, y, z, dy, dz, out=None):
        """One-sided directional derivative f'[(y, z); (dy, dz)], into ``out`` if given.

        Analytic for catalog kinds (right-sided at the logistic cap);
        central finite differences with step 1e-6*(1+|y|+|z|) for tables.
        Operands as in ``value``: ``dy`` like ``y`` and ``dz`` like ``z``.
        """
        if out is None:
            y, dy = np.asarray(y, dtype=float), np.asarray(dy, dtype=float)
            z, dz = _as_float(z), _as_float(dz)
            out = np.empty(np.broadcast_shapes(y.shape, dy.shape))
        self._kernels[1](y, z, dy, dz, out)
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping configuration; the Picard fields set the state solve's sweeps."""

    dt: float
    t_final: float
    scheme: str = "imex-euler"
    slice_length: float = None   # Picard slice in time units; None = whole interval
    picard_tol: float = 1e-10
    picard_max_iters: int = 60

    def __post_init__(self):
        for name, value in _checked(_SOLVER, vars(self)).items():
            object.__setattr__(self, name, value)
        dt, t_final = self.dt, self.t_final
        if t_final < dt:
            raise InvalidConfigError("t_final must be at least one step")
        n = t_final / dt
        if not n <= 2**53:  # past that, steps are not counted exactly
            raise InvalidConfigError(f"t_final={t_final} / dt={dt} is {n:.3g} steps, over 2**53")
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise InvalidConfigError(
                f"t_final={t_final} must be an integer multiple of dt={dt}"
            )
        if self.slice_length is not None:
            k = self.slice_length / dt
            if round(k) < 1 or abs(k - round(k)) > 1e-9 * max(1.0, k):
                raise InvalidConfigError(
                    f"slice_length={self.slice_length} must be a positive multiple of dt"
                )

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))

    @property
    def slice_steps(self):
        if self.slice_length is None:
            return self.n_steps
        return int(round(self.slice_length / self.dt))

    def times(self):
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Source:
    """A source path kept as its two factors: u_k = amplitude[k] * profile.

    ``source[k]`` is step k's field, formed from the factors when a rule
    adds it; ``np.asarray(source)`` forms the dense (N+1, m, n_nodes) path
    for the consumers that need it.  A source on one component is a profile
    whose other rows are zero.
    """

    amplitude: np.ndarray  # (N+1,)
    profile: np.ndarray    # (m, n_nodes)

    def __post_init__(self):
        amplitude, profile = _array(self.amplitude, "amplitude"), _array(self.profile, "profile")
        if amplitude.ndim != 1 or profile.ndim != 2:
            raise GridMismatchError(f"source needs a 1-D amplitude and a 2-D profile, "
                                    f"got {amplitude.shape} and {profile.shape}")
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "profile", profile)

    @property
    def shape(self):
        return (self.amplitude.size, *self.profile.shape)

    def __getitem__(self, k):
        """The field at step ``k``."""
        return self.amplitude[k] * self.profile

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Source has no dense array to share")
        u = self.amplitude[:, None, None] * self.profile
        return u if dtype is None else u.astype(dtype, copy=False)

    def is_finite(self):
        """Whether every entry of the field is finite, read from the factors.

        An entry overflows exactly when the product of the two factors'
        largest magnitudes does, and a non-finite factor makes that product
        inf or nan.
        """
        return math.isfinite(float(np.abs(self.amplitude).max())
                             * float(np.abs(self.profile).max()))


class _NoPath:
    """The ``shape`` of a path that a solve did not keep; reading it is refused."""

    def __init__(self, shape):
        self.shape = shape

    def __getitem__(self, *args, **kwargs):
        raise InvalidConfigError("the solve kept no path; solve with keep_states=True")

    __array__ = __getitem__


@dataclass
class Trajectory:
    """Discrete state path: fields y_k, hysteresis output z, and the equation solved.

    ``states`` is the path, or a ``_NoPath`` when the solve kept none;
    ``norms`` holds the quadrature norm of every y_k either way.  ``source``
    is the source as given to the solve: a ``Source`` keeps its factors,
    anything else is its float array.  ``solve_state`` also records the
    grid, S, reaction, hysteresis config and solver; every derivative at
    this path reads its equation from them.

    ``stop_offsets`` stores the internal offset state w_k of the stop
    recursion at every step; the sensitivity solver replays branch decisions
    from these exact values.
    """

    times: np.ndarray
    states: np.ndarray        # (N+1, m, n_nodes), or a ``_NoPath``
    norms: np.ndarray         # |y_k|_quad
    stop: PiecewiseLinearSignal
    s_values: np.ndarray      # v_k = S y_k
    stop_offsets: np.ndarray  # w_k = z_k - v_k as carried by the recursion
    source: Source            # or a (N+1, m, n_nodes) array
    disc: SpatialDiscretization
    sfun: SFunctional
    reaction: ReactionFunction
    hyst_cfg: HysteresisConfig
    solver: SolverConfig
    picard_iterations: list = field(default_factory=list)  # per-slice sweep counts


@dataclass(frozen=True)
class BoundednessReport:
    max_state_norm: float
    source_norm: float   # sqrt(sum_k dt |u_k|_quad^2)
    ratio: float         # max_state_norm / (1 + source_norm)


def _path(disc, solver, u, name):
    """``u``, a time path that a solve takes under ``name``, on ``solver``'s grid.

    A ``Source`` is returned as it is, anything else as a float array; a
    path that is not shaped (N+1, m, n_nodes) or holds a non-finite entry
    (a ``Source``'s read from its factors) is refused.
    """
    dense = not isinstance(u, Source)
    if dense:
        u = _array(u, name)  # refuses a non-finite entry
    expected = (solver.n_steps + 1, disc.n_components, disc.n_nodes)
    if u.shape != expected:
        raise GridMismatchError(f"{name} must have shape {expected}, got {u.shape}")
    if not (dense or u.is_finite()):
        _fail(name, "entries must be finite")
    return u


def _guard(y, k, t):
    if not np.isfinite(y).all():
        raise BlowupError(f"state became non-finite at step {k} (t={t:.6g})")
    peak = np.abs(y).max()
    if peak > BLOWUP_GUARD:
        raise BlowupError(
            f"state blew up at step {k} (t={t:.6g}): magnitude {peak:.3e} "
            f"exceeds guard {BLOWUP_GUARD:.1e} or is not finite"
        )


# The loops below step the state and the sensitivity solve alike; a solve
# differs only in its two per-step rules.  ``rhs(k, y, stepper.buf)`` writes
# the explicit right-hand side at step k, at y, into the stepper's buffer;
# ``stepper.step(y, out)`` then takes the factorized implicit step from y
# into the active nodes of the window row ``out``, whose Dirichlet nodes are
# zero.  ``advance(k, y)`` guards y_k and records the scalar channel at step
# k from y_k and the record of step k - 1, so a Picard sweep replays a slice
# by calling it again, with nothing to restore.  Both loops fill a window
# whose row 0 holds step ``first``; ``_integrate`` counts steps from the start
# of the run, so a guard names the absolute step.  Rules and loops bind what
# they call once per solve or window, never per step.


def _march(stepper, window, first, rhs, advance):
    """Direct IMEX steps from ``window[0]``, step ``first``, into ``window[1:]``."""
    buf, step, rows = stepper.buf, stepper.step, list(window)
    for k, y, out in zip(range(first, first + len(rows)), rows, rows[1:]):
        rhs(k, y, buf)
        step(y, out)
        advance(k + 1, out)


def _sweep_slice(stepper, fields, first, rhs, advance, tol, max_iters):
    """Picard sweeps of the IMEX recursion over one slice, in place.

    ``fields[0]`` holds the slice start, which is step ``first`` for the
    rules; each sweep writes its iterate into ``fields[1:]``, whose Dirichlet
    nodes are zero.  ``prev``, the one other slice-sized buffer, holds the
    previous iterate (first the constant one), at which the sweep freezes
    the right-hand side before it replays the scalar channel from the new
    iterate; then ``prev`` takes the update.  Returns the max-over-steps
    quadrature norm of each sweep's update.
    """
    ns, buf, step = fields.shape[0] - 1, stepper.buf, stepper.step
    prev = np.broadcast_to(fields[0], fields.shape).copy()
    ks, rows, prevs = range(first, first + ns + 1), list(fields), list(prev)
    for k, y in zip(ks[1:], prevs[1:]):
        advance(k, y)
    diffs = []
    for _ in range(max_iters):
        for k, at, y, out in zip(ks, prevs, rows, rows[1:]):
            rhs(k, at, buf)
            step(y, out)
        for k, y in zip(ks[1:], rows[1:]):
            advance(k, y)
        np.subtract(fields, prev, out=prev)
        diffs.append(float(_path_norms(stepper.disc, prev).max()))
        if diffs[-1] <= tol:
            return diffs
        np.copyto(prev, fields)
    raise NonContractionError(
        f"Picard sweeps did not contract below {tol:.3e} within {max_iters} "
        f"iterations (last update {diffs[-1]:.3e}); reduce slice_length "
        f"(currently {ns} steps) and retry"
    )


def _integrate(stepper, n_steps, rhs, advance, keep, picard=None):
    """Run a solve's rules over ``n_steps`` steps from a zero start.

    A window slides along the run: the slices of ``picard``, the state
    solve's Picard-sliced ``SolverConfig``, swept to its tolerance, or for
    the direct march the whole run (``keep``) or the steps whose rows fit
    ``_WINDOW_BYTES`` (one at least).  With ``keep`` the windows are rows of
    the (N+1)-row path; else they share one buffer whose last row carries
    into the next window's row 0.  Each window adds its new rows' quadrature
    norms to the norms channel, and the last step has its solve checked
    against the module residual tolerance.  Returns the path (or ``_NoPath``
    of its shape), the per-step norms, and each slice's sweep count.
    """
    disc = stepper.disc
    shape = (n_steps + 1, disc.n_components, disc.n_nodes)
    direct = n_steps if keep else max(1, _WINDOW_BYTES // (8 * shape[1] * shape[2]))
    span = min(n_steps, direct if picard is None else picard.slice_steps)
    fields = np.zeros(shape if keep else (span + 1, *shape[1:]))
    norms = np.zeros(n_steps + 1)  # the zero start has norm 0
    sweeps = []
    for start in range(0, n_steps, span):
        stop = min(start + span, n_steps)
        window = fields[start:stop + 1] if keep else fields[:stop - start + 1]
        if picard is None:
            _march(stepper, window, start, rhs, advance)
        else:
            sweeps.append(len(_sweep_slice(
                stepper, window, start, rhs, advance,
                picard.picard_tol, picard.picard_max_iters)))
        norms[start + 1:stop + 1] = _path_norms(disc, window[1:])
        if not keep:
            fields[0] = window[-1]
    stepper.check(window[-1])
    return (fields if keep else _NoPath(shape)), norms, sweeps


def _state_rules(stepper, reaction, cursor, u):
    """Per-step rules of the state solve over the grid points of ``u``.

    Step 0 is where ``cursor`` stands.  Returns ``rhs``, ``advance`` and the
    stop values, stop offsets and S-samples they record.
    """
    dt, value, S, stop = stepper.dt, reaction.value, stepper.S, cursor.advance
    zs, offsets, s_values = (np.empty(u.shape[0]) for _ in range(3))
    zs[0], offsets[0], s_values[0] = cursor.z, cursor.w, cursor.v

    def rhs(k, y, out):
        value(y, zs[k], out)
        out += u[k]

    def advance(k, y):
        yf = y.ravel()
        if not yf.dot(yf) <= _GUARD_SQ:
            _guard(y, k, k * dt)
        s_values[k] = v = S(yf)
        cursor.w = offsets[k - 1]
        zs[k] = stop(v)
        offsets[k] = cursor.w

    return rhs, advance, (zs, offsets, s_values)


def solve_state(disc, sfun, reaction, hyst_cfg, u, solver, keep_states=True) -> Trajectory:
    """Run the coupled solve from y_0 = 0 and return the discrete trajectory.

    Without ``keep_states`` the solve holds a few state rows at a time and
    keeps no path; the trajectory still has every per-step channel.
    """
    u = _path(disc, solver, u, "source")
    cursor = StopCursor(hyst_cfg, 0.0)  # v_0 = S y_0 = 0
    stepper = _Stepper(disc, solver.dt, sfun)
    rhs, advance, (zs, offsets, s_values) = _state_rules(stepper, reaction, cursor, u)
    picard = solver if solver.scheme == "picard-sliced" else None
    states, norms, sweeps = _integrate(stepper, solver.n_steps, rhs, advance, keep_states, picard)

    times = solver.times()
    return Trajectory(
        times=times,
        states=states,
        norms=norms,
        stop=PiecewiseLinearSignal(times, zs),
        s_values=s_values,
        stop_offsets=offsets,
        source=u,
        disc=disc,
        sfun=sfun,
        reaction=reaction,
        hyst_cfg=hyst_cfg,
        solver=solver,
        picard_iterations=sweeps,
    )


def picard_slice_iterate(disc, sfun, reaction, cursor, y_start, u_slice,
                         dt, tol, max_iters):
    """Fixed-point sweeps of the backward-Euler recursion over one slice.

    ``cursor`` is the stop recursion state at the slice start and is
    advanced to the slice end on return.  ``u_slice`` holds the source
    samples at the slice's grid points (start included).  Returns the slice
    states (start included), the stop values, the stop offsets, the
    S-samples, and the per-sweep contraction ratios.  Raises the
    non-contraction error if successive sweeps still differ by more than
    ``tol`` in max-over-steps quadrature norm after ``max_iters`` sweeps,
    and the blow-up error, with step and time counted from the slice start,
    if any sweep iterate leaves the guard.
    """
    u_slice = np.asarray(u_slice, dtype=float)
    ns = u_slice.shape[0] - 1
    if ns < 1:
        raise InvalidConfigError("slice needs at least one step")

    ys = np.zeros((ns + 1, disc.n_components, disc.n_nodes))
    ys[0] = y_start
    stepper = _Stepper(disc, dt, sfun)
    rhs, advance, channel = _state_rules(stepper, reaction, cursor, u_slice)
    diffs = _sweep_slice(stepper, ys, 0, rhs, advance, tol, max_iters)
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0]
    return (ys, *channel, ratios)


def boundedness_report(traj: Trajectory) -> BoundednessReport:
    """Ratio of the peak state norm to 1 + the source's time-quadrature norm.

    The state term reads the norms channel, so no state path is needed.
    """
    max_state = traj.norms.max()
    src_sq = sum(n ** 2 for n in _path_norms(traj.disc, np.asarray(traj.source)).tolist())
    src_norm = math.sqrt(traj.solver.dt * src_sq)
    return BoundednessReport(
        max_state_norm=float(max_state),
        source_norm=float(src_norm),
        ratio=float(max_state / (1.0 + src_norm)),
    )
