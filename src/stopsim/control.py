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
                     InvalidConfigError, _array, _check_entries, _checked, _Field, _integer,
                     _number, _string)
from .evolution import ReactionFunction, SolverConfig, Trajectory, _path, solve_state
from .hysteresis import HysteresisConfig
from .sensitivity import _adjoint_sweep, solve_sensitivity
from .spatial import SFunctional, SpatialDiscretization, _component, _Stepper

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
            _check_entries(coeffs, self.time_knots * modes.shape[0], "coefficients")

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
def _time_profiles(time_knots, solver):
    """Hat-function values on ``solver``'s time grid (a single knot means
    constant 1); read-only and cached, so an optimizer run forms them once."""
    times = solver.times()
    knots = np.linspace(times[0], times[-1], time_knots)
    profiles = np.array([np.interp(times, knots, e) for e in np.eye(time_knots)])
    profiles.setflags(write=False)
    return profiles


def _boundary_data(disc, component):
    """The Neumann boundary nodes of ``component`` and their surface weights;
    a component without any is refused."""
    comp = _component(disc, component)
    if comp.neumann_nodes.size == 0:
        raise EmptyBoundaryError("component", "component has no Neumann boundary nodes to control")
    return comp.neumann_nodes, comp.surface_weights


def _boundary_basis(disc, spec):
    """``_boundary_data`` of a boundary spec, which holds one coefficient per
    time knot and boundary node."""
    nodes, surface = _boundary_data(disc, spec.component)
    _check_entries(spec.coefficients, spec.time_knots * nodes.size, "coefficients")
    return nodes, surface


def _grid_modes(disc, modes):
    """``modes`` if they are shaped (n_modes, m, n_nodes) on ``disc``."""
    shape = (disc.n_components, disc.n_nodes)
    if modes.ndim != 3 or modes.shape[1:] != shape:
        raise GridMismatchError(f"expected shape (n_modes, {shape[0]}, {shape[1]})")
    return modes


def apply_B(disc, spec: ControlSpec, solver: SolverConfig) -> np.ndarray:
    """Expand control coefficients into the source field on ``solver``'s time grid.

    Distributed mode sums coefficient-weighted spatial modes; boundary mode
    places coefficient x surface-quadrature-weight values on the Neumann
    nodes of the chosen component (weight 1 at an interval end).
    """
    profiles = _time_profiles(spec.time_knots, solver)
    if spec.mode == "distributed":
        modes = _grid_modes(disc, spec.spatial_modes)
        c = spec.coefficients.reshape(spec.time_knots, modes.shape[0])
        return ((profiles.T @ c) @ modes.reshape(modes.shape[0], -1)).reshape(
            -1, *modes.shape[1:])
    nodes, surface = _boundary_basis(disc, spec)
    c = spec.coefficients.reshape(spec.time_knots, nodes.size)
    g = profiles.T @ c  # control values per (time, boundary node)
    u = np.zeros((g.shape[0], disc.n_components, disc.n_nodes))
    u[:, spec.component, nodes] = g * surface
    return u


def _apply_B_transpose(disc, spec: ControlSpec, solver, g) -> np.ndarray:
    """Transpose of ``apply_B``: sum_k <(B e_i)_k, g_k> for every coefficient i."""
    profiles = _time_profiles(spec.time_knots, solver)
    if spec.mode == "distributed":
        modes = _grid_modes(disc, spec.spatial_modes)
        flat = modes.reshape(modes.shape[0], -1)
        return (profiles @ (g.reshape(g.shape[0], -1) @ flat.T)).ravel()
    nodes, surface = _boundary_basis(disc, spec)
    return ((profiles @ g[:, spec.component, nodes]) * surface).ravel()


def control_gram(disc, spec: ControlSpec, solver: SolverConfig) -> np.ndarray:
    """Gram matrix N of the basis in the control measure, time-quadrature
    ``solver.dt`` on its grid.

    Distributed: spatial factor = quadrature inner products of the modes.
    Boundary: spatial factor = diag(surface weights) on control values.
    """
    profiles = _time_profiles(spec.time_knots, solver)
    t_gram = solver.dt * (profiles @ profiles.T)
    if spec.mode == "distributed":
        modes = _grid_modes(disc, spec.spatial_modes)
        s_gram = np.einsum("smi,tmi,i->st", modes, modes, disc.quadrature)
    else:
        _, surface = _boundary_basis(disc, spec)
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
        target = _path(self.disc, self.solver, self.target, "target")
        object.__setattr__(self, "target", np.asarray(target))


def _solve(problem: ControlProblem, spec: ControlSpec) -> Trajectory:
    u = apply_B(problem.disc, spec, problem.solver)
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
    gram = control_gram(problem.disc, spec, problem.solver)
    return _cost_of(problem, spec, _solve(problem, spec), gram)


def _directional(problem, spec, direction, base, gram):
    """J'(c; d) = sum_k dt <y_k - yd_k, zeta_k>_quad + kappa <c, N d>: the one-sided
    derivative of J at ``spec``, on its state solve ``base``, along d = ``direction``."""
    h_src = apply_B(problem.disc, spec.with_coefficients(direction), problem.solver)
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
    grad = _apply_B_transpose(problem.disc, spec, problem.solver, g_h)
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
    gram = control_gram(problem.disc, spec, problem.solver)
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
