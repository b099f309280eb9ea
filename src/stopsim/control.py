"""Tracking-type optimal control of the coupled state equation.

Controls are coefficient vectors over a tensor basis of time hat functions
with either distributed spatial modes (source acting on all nodes) or
Neumann-boundary node indicators (source supported on the labeled boundary
nodes, scaled by the boundary quadrature weight).  The reduced cost is

    J(c) = 1/2 sum_k dt |y_k - yd_k|_quad^2  +  kappa/2 <c, N c>

with N the control Gram matrix in the mode-appropriate measure.  The
optimizer's coordinate derivatives J'(c; e_i) come from one backward
(adjoint) sweep of the linearized recursion wherever J'(c; .) is linear in
the direction: no exact stop tie on the base path and a reaction derivative
linear in the direction, on either scheme.  Elsewhere they are assembled
forward, one linearized solve per basis direction plus one more along the
descent candidate, so the Armijo test uses the honest one-sided derivative
where hysteresis switching makes J nonsmooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (_INDEX, _POSITIVE, EmptyBoundaryError, GridMismatchError,
                     InvalidConfigError, _array, _checked, _Field, _integer, _number, _string)
from .evolution import ReactionFunction, SolverConfig, Trajectory, solve_state
from .hysteresis import HysteresisConfig
from .sensitivity import _adjoint_sweep, solve_sensitivity
from .spatial import SFunctional, SpatialDiscretization, _Stepper

__all__ = [
    "ControlSpec",
    "ControlProblem",
    "OptimizeResult",
    "apply_B",
    "control_gram",
    "reduced_cost",
    "optimize",
]


_SPEC = {"time_knots": _Field(_integer, minimum=1), "component": _INDEX}
_KAPPA = _POSITIVE
_OPTIMIZER = {
    "max_iters": _Field(_integer, 100, minimum=1),
    "tol": _Field(_number, 1e-8, exclusive_minimum=0.0),
    "initial_step": _Field(_number, 1.0, exclusive_minimum=0.0),
    "armijo_c1": _Field(_number, 1e-4, exclusive_minimum=0.0, below=1),
    "max_halvings": _Field(_integer, 40, minimum=1),
}


@dataclass(frozen=True)
class ControlSpec:
    """Coefficient vector over time-hat x spatial-mode basis functions.

    ``mode`` selects distributed injection (``spatial_modes`` is an
    (n_modes, m, n_nodes) array) or boundary injection (one indicator per
    Neumann boundary node of ``component``).  Coefficients are laid out
    time-major: c[j, s] = coefficients[j * n_spatial + s].
    """

    mode: str
    time_knots: int
    coefficients: np.ndarray
    spatial_modes: np.ndarray = None  # distributed only
    component: int = 0                # boundary only

    def __post_init__(self):
        _string(self.mode, "mode", _Field(_string, choices=("distributed", "boundary")))
        for name, value in _checked(_SPEC, vars(self)).items():
            object.__setattr__(self, name, value)
        coeffs = _array(self.coefficients, "coefficients")
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise InvalidConfigError("coefficients must be a nonempty vector")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if self.mode == "distributed":
            if self.spatial_modes is None:
                raise InvalidConfigError("distributed control needs spatial_modes")
            modes = _array(self.spatial_modes, "spatial_modes")
            if modes.ndim != 3:
                raise InvalidConfigError(
                    "spatial_modes must be an (n_modes, components, nodes) array"
                )
            modes = modes.copy()
            modes.setflags(write=False)
            object.__setattr__(self, "spatial_modes", modes)
            if coeffs.size != self.time_knots * modes.shape[0]:
                raise InvalidConfigError(
                    f"expected {self.time_knots * modes.shape[0]} coefficients "
                    f"(time_knots x n_modes), got {coeffs.size}"
                )

    def with_coefficients(self, coefficients) -> "ControlSpec":
        return ControlSpec(
            mode=self.mode,
            time_knots=self.time_knots,
            coefficients=coefficients,
            spatial_modes=self.spatial_modes,
            component=self.component,
        )

    @property
    def n_coefficients(self):
        return self.coefficients.size


@lru_cache(maxsize=8)
def _time_profiles(time_knots, grid):
    """Hat-function values on the solver grid, given as its float64 bytes (a
    single knot means constant 1); read-only and cached, so an optimizer run
    forms them once."""
    times = np.frombuffer(grid)
    knots = np.linspace(times[0], times[-1], time_knots)
    profiles = np.array([np.interp(times, knots, e) for e in np.eye(time_knots)])
    profiles.setflags(write=False)
    return profiles


def _boundary_data(disc, spec):
    if spec.component >= disc.n_components:
        raise InvalidConfigError(f"control component {spec.component} out of range")
    comp = disc.components[spec.component]
    nodes = comp.neumann_nodes
    if nodes.size == 0:
        raise EmptyBoundaryError(
            f"component {spec.component} has no Neumann boundary nodes to control"
        )
    return nodes, comp.surface_weights


def _distributed_modes(disc, spec):
    modes = spec.spatial_modes
    if modes.shape[1:] != (disc.n_components, disc.n_nodes):
        raise GridMismatchError(
            f"spatial modes shaped {modes.shape[1:]} do not fit the grid "
            f"({disc.n_components}, {disc.n_nodes})"
        )
    return modes


def apply_B(disc, spec: ControlSpec, times) -> np.ndarray:
    """Expand control coefficients into a time-sampled source field.

    Distributed mode sums coefficient-weighted spatial modes; boundary mode
    places coefficient x surface-quadrature-weight values on the Neumann
    nodes of the chosen component (weight 1 at an interval end).
    """
    times = np.asarray(times, dtype=float)
    profiles = _time_profiles(spec.time_knots, times.tobytes())
    if spec.mode == "distributed":
        modes = _distributed_modes(disc, spec)
        c = spec.coefficients.reshape(spec.time_knots, modes.shape[0])
        return ((profiles.T @ c) @ modes.reshape(modes.shape[0], -1)).reshape(
            times.size, *modes.shape[1:])
    nodes, surface = _boundary_data(disc, spec)
    if spec.coefficients.size != spec.time_knots * nodes.size:
        raise InvalidConfigError(
            f"expected {spec.time_knots * nodes.size} coefficients "
            f"(time_knots x Neumann nodes), got {spec.coefficients.size}"
        )
    c = spec.coefficients.reshape(spec.time_knots, nodes.size)
    g = profiles.T @ c  # control values per (time, boundary node)
    u = np.zeros((times.size, disc.n_components, disc.n_nodes))
    u[:, spec.component, nodes] = g * surface
    return u


def _apply_B_transpose(disc, spec: ControlSpec, times, g) -> np.ndarray:
    """Transpose of ``apply_B``: sum_k <(B e_i)_k, g_k> for every coefficient i."""
    profiles = _time_profiles(spec.time_knots, np.asarray(times, dtype=float).tobytes())
    if spec.mode == "distributed":
        modes = _distributed_modes(disc, spec)
        flat = modes.reshape(modes.shape[0], -1)
        return (profiles @ (g.reshape(g.shape[0], -1) @ flat.T)).ravel()
    nodes, surface = _boundary_data(disc, spec)
    return ((profiles @ g[:, spec.component, nodes]) * surface).ravel()


def control_gram(disc, spec: ControlSpec, times) -> np.ndarray:
    """Gram matrix N of the basis in the control measure, time-quadrature dt.

    Distributed: spatial factor = quadrature inner products of the modes.
    Boundary: spatial factor = diag(surface weights) on control values.
    """
    times = np.asarray(times, dtype=float)
    dt = times[1] - times[0]
    profiles = _time_profiles(spec.time_knots, times.tobytes())
    t_gram = dt * (profiles @ profiles.T)
    if spec.mode == "distributed":
        modes = _distributed_modes(disc, spec)
        s_gram = np.einsum("smi,tmi,i->st", modes, modes, disc.quadrature)
    else:
        _, surface = _boundary_data(disc, spec)
        s_gram = np.diag(surface)
    return np.kron(t_gram, s_gram)


@dataclass(frozen=True)
class ControlProblem:
    """Target, regularization, and the full state-equation scenario."""

    disc: SpatialDiscretization
    sfun: SFunctional
    reaction: ReactionFunction
    hyst_cfg: HysteresisConfig
    solver: SolverConfig
    target: np.ndarray  # (N+1, m, n_nodes)
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", _number(self.kappa, "kappa", _KAPPA))
        target = _array(self.target, "target")
        expected = (self.solver.n_steps + 1, self.disc.n_components, self.disc.n_nodes)
        if target.shape != expected:
            raise GridMismatchError(
                f"target must have shape {expected}, got {target.shape}"
            )
        object.__setattr__(self, "target", target)


def _solve(problem: ControlProblem, spec: ControlSpec) -> Trajectory:
    u = apply_B(problem.disc, spec, problem.solver.times())
    return solve_state(
        problem.disc, problem.sfun, problem.reaction, problem.hyst_cfg, u, problem.solver
    )


def _tracking_term(problem, traj):
    mis = traj.states - problem.target
    total = float(np.einsum("kji,kji,i->", mis, mis, problem.disc.quadrature))
    return 0.5 * problem.solver.dt * total


def _cost_of(problem, spec, traj, gram):
    c = spec.coefficients
    return _tracking_term(problem, traj) + 0.5 * problem.kappa * float(c @ gram @ c)


def reduced_cost(problem: ControlProblem, spec: ControlSpec) -> float:
    """J(c): solves the state equation and evaluates the tracking cost."""
    gram = control_gram(problem.disc, spec, problem.solver.times())
    return _cost_of(problem, spec, _solve(problem, spec), gram)


def _directional(problem, spec, direction, base, gram):
    """J'(c; d) = sum_k dt <y_k - yd_k, zeta_k>_quad + kappa <c, N d>: the one-sided
    derivative of J at ``spec``, on its state solve ``base``, along d = ``direction``."""
    h_src = apply_B(problem.disc, spec.with_coefficients(direction), problem.solver.times())
    record = solve_sensitivity(base, h_src)
    dt = problem.solver.dt
    q = problem.disc.quadrature
    mis = base.states - problem.target
    track = dt * float(np.einsum("kmi,kmi,i->", mis, record.states, q))
    return track + problem.kappa * float(spec.coefficients @ gram @ direction)


def _gradient(problem, spec, base, gram, stepper):
    """J'(c; e_i) for every coefficient i, and whether J'(c; .) is linear.

    Where it is linear, one adjoint sweep (on ``stepper``) gives all of them
    and they form the gradient; elsewhere each takes one forward solve.
    """
    seed = problem.solver.dt * (base.states - problem.target) * problem.disc.quadrature
    g_h = _adjoint_sweep(base, seed, stepper)
    if g_h is None:
        basis = np.eye(spec.n_coefficients)
        return np.array([_directional(problem, spec, e, base, gram) for e in basis]), False
    c = spec.coefficients
    grad = _apply_B_transpose(problem.disc, spec, base.times, g_h)
    return grad + problem.kappa * (c @ gram), True


@dataclass
class OptimizeResult:
    spec: ControlSpec
    cost: float
    history: list = field(default_factory=list)  # rows (iteration, J, grad_inf, step)
    status: str = "max-iterations"               # converged | max-iterations | stalled


def optimize(problem: ControlProblem, spec: ControlSpec, *,
             max_iters: int = 100, tol: float = 1e-8,
             armijo_c1: float = 1e-4, initial_step: float = 1.0,
             max_halvings: int = 40) -> OptimizeResult:
    """Steepest descent on the reduced cost with Armijo backtracking.

    Each iteration takes the coordinate derivatives J'(c; e_i) as its
    gradient.  Where J'(c; .) is linear in the direction (no exact stop tie
    on the base path and a reaction derivative linear in the direction, on
    either scheme) one adjoint sweep gives them, and the predicted decrease
    along -grad is -grad . grad.  Elsewhere each takes one forward sensitivity
    solve, and the predicted decrease is the one-sided derivative along the
    candidate step itself, from one more solve.  The accepted trial's state
    solve is the next iteration's base.  A failed line search (or an
    ascent-only corner) reports status 'stalled' and returns the best
    iterate; accepted steps produce a non-increasing cost history.
    """
    _checked(_OPTIMIZER, {"max_iters": max_iters, "tol": tol, "armijo_c1": armijo_c1,
                          "initial_step": initial_step, "max_halvings": max_halvings})
    gram = control_gram(problem.disc, spec, problem.solver.times())
    stepper = _Stepper(problem.disc, problem.solver.dt, problem.sfun)  # for the adjoint
    history = []
    step = float(initial_step)
    base = _solve(problem, spec)
    cost = _cost_of(problem, spec, base, gram)
    best_spec, best_cost = spec, cost
    status = "max-iterations"

    for it in range(max_iters):
        grad, linear = _gradient(problem, spec, base, gram, stepper)
        grad_inf = float(np.max(np.abs(grad)))

        if grad_inf <= tol:
            history.append((it, cost, grad_inf, 0.0))
            status = "converged"
            break

        if linear:
            predicted = -float(grad @ grad)
        else:
            predicted = _directional(problem, spec, -grad, base, gram)
        if predicted >= 0.0:
            history.append((it, cost, grad_inf, 0.0))
            status = "stalled"
            break

        accepted = None
        t = step
        for _ in range(max_halvings + 1):
            trial = spec.with_coefficients(spec.coefficients - t * grad)
            trial_base = _solve(problem, trial)
            trial_cost = _cost_of(problem, trial, trial_base, gram)
            if trial_cost <= cost + armijo_c1 * t * predicted:
                accepted = (trial, trial_base, trial_cost, t)
                break
            t *= 0.5
        if accepted is None:
            history.append((it, cost, grad_inf, 0.0))
            status = "stalled"
            break

        spec, base, cost, t = accepted
        if cost < best_cost:
            best_spec, best_cost = spec, cost
        history.append((it, cost, grad_inf, t))
        step = 2.0 * t

    return OptimizeResult(spec=best_spec, cost=best_cost, history=history, status=status)
