"""Directional derivative of the control-to-state map via the linearized
recursion, plus finite-difference verification harnesses.

For a base trajectory y (with hysteresis output z) and a source direction h,
the sensitivity zeta solves the linearization of the IMEX recursion:

    (D + dt L) zeta[k+1] = D (zeta[k] + dt (f'[(y[k], z[k]); (zeta[k], w[k])] + h[k]))

where w is the directional derivative of the stop output, advanced by the
one-sided clamp rule on the pair (v = S y, dv = S zeta).  Branch decisions
replay the exact offset states stored on the base trajectory, so the
linearization follows bitwise the same saturation pattern the base solve
took.  Starting state is zeta_0 = 0: perturbing the source cannot move the
fixed initial condition.  Both schemes run on the state solve's own driver,
with the same Picard slices: at the converged base the sensitivity's sweep is
the linearization of the state's, so it contracts wherever the state's does.
Only the per-step rules differ.

The finite-difference harnesses quantify how fast difference quotients of
the full nonlinear solve approach zeta, optionally with an o(lambda)
remainder added to the increment; surviving that remainder is what separates
this notion of derivative from a plain one-sided Gateaux limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, GridMismatchError, InvalidConfigError
from .evolution import ReactionFunction, Trajectory, _integrate, solve_state
from .hysteresis import HysteresisConfig, _stop_derivative_step
from .spatial import evaluate_S, quad_norm

__all__ = [
    "LinearizedProblem",
    "SensitivityRecord",
    "FdStudy",
    "solve_sensitivity",
    "fd_convergence_study",
    "hadamard_perturbed_quotient",
]


@dataclass(frozen=True)
class LinearizedProblem:
    """Base trajectory, perturbation direction, and the reaction derivative rule."""

    base: Trajectory
    direction: np.ndarray  # (N+1, m, n_nodes) source direction h
    reaction: ReactionFunction
    hyst_cfg: HysteresisConfig

    def __post_init__(self):
        h = np.asarray(self.direction, dtype=float)
        if h.shape != self.base.states.shape:
            raise GridMismatchError(
                f"direction shape {h.shape} must match base states "
                f"{self.base.states.shape}"
            )
        if not np.all(np.isfinite(h)):
            raise InvalidConfigError("direction must be finite")
        if self.hyst_cfg != self.base.hyst_cfg:
            raise InvalidConfigError("hysteresis config differs from the base trajectory's")
        object.__setattr__(self, "direction", h)


@dataclass
class SensitivityRecord:
    """Discrete sensitivity path and the hysteresis-output derivative."""

    times: np.ndarray
    states: np.ndarray           # zeta_k, (N+1, m, n_nodes)
    stop_derivative: np.ndarray  # w_k = directional derivative of z_k
    s_values: np.ndarray         # S zeta_k
    derivative_is_exact: bool    # False when the reaction derivative is tabulated
    picard_iterations: list = field(default_factory=list)  # per-slice sweep counts


def solve_sensitivity(problem: LinearizedProblem, disc, sfun, solver) -> SensitivityRecord:
    """Integrate the linearized recursion along the base trajectory."""
    base = problem.base
    n_steps = solver.n_steps
    if base.states.shape[0] != n_steps + 1 or not np.array_equal(base.times, solver.times()):
        raise GridMismatchError("base trajectory was not solved on this solver grid")

    h = problem.direction
    reaction = problem.reaction
    cfg = problem.hyst_cfg
    zeta = np.zeros((n_steps + 1, disc.n_components, disc.n_nodes))
    wz = np.zeros(n_steps + 1)      # derivative of the stop output
    dv = np.zeros(n_steps + 1)      # S zeta
    omega = np.zeros(n_steps + 1)   # wz - dv; zero since zeta_0 = 0

    def rhs(k, zk):
        return reaction.directional(base.states[k], base.stop.values[k], zk, wz[k]) + h[k]

    def advance(k, zk):
        if not np.all(np.isfinite(zk)):
            raise BlowupError(
                f"sensitivity became non-finite at step {k} (t={base.times[k]:.6g})"
            )
        dv[k] = evaluate_S(disc, sfun, zk)
        omega[k] = _stop_derivative_step(
            cfg, base.stop_offsets[k - 1], base.s_values[k], omega[k - 1], dv[k]
        )
        wz[k] = omega[k] + dv[k]

    sweeps = _integrate(disc, solver, zeta, rhs, advance)

    return SensitivityRecord(
        times=base.times,
        states=zeta,
        stop_derivative=wz,
        s_values=dv,
        derivative_is_exact=reaction.derivative_is_exact,
        picard_iterations=sweeps,
    )


@dataclass
class FdStudy:
    """Difference-quotient errors e(lambda) against the computed sensitivity."""

    lambdas: np.ndarray
    errors: np.ndarray
    record: SensitivityRecord
    base: Trajectory


def _check_lambdas(lambdas):
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidConfigError("lambda sequence must be a nonempty 1-D array")
    if np.any(lam <= 0) or np.any(np.diff(lam) >= 0):
        raise InvalidConfigError("lambda sequence must be positive and strictly decreasing")
    return lam


def fd_convergence_study(disc, sfun, reaction, hyst_cfg, u, h, lambdas, solver) -> FdStudy:
    """e(lambda) = max_k |(G(u + lambda h) - G(u))_k / lambda - zeta_k|_quad."""
    return hadamard_perturbed_quotient(
        disc, sfun, reaction, hyst_cfg, u, h, None, lambdas, solver
    )


def hadamard_perturbed_quotient(disc, sfun, reaction, hyst_cfg, u, h,
                                remainder, lambdas, solver) -> FdStudy:
    """Like ``fd_convergence_study`` but perturbing with u + lambda h + r(lambda).

    ``remainder`` maps lambda to a source-shaped array with r(lambda)/lambda -> 0
    (or is None for the plain study).  Convergence of e(lambda) despite the
    remainder is what distinguishes the derivative from a directional limit.
    """
    lam = _check_lambdas(lambdas)
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.shape != u.shape:
        raise GridMismatchError(f"direction shape {h.shape} must match source {u.shape}")

    base = solve_state(disc, sfun, reaction, hyst_cfg, u, solver)
    record = solve_sensitivity(
        LinearizedProblem(base=base, direction=h, reaction=reaction, hyst_cfg=hyst_cfg),
        disc, sfun, solver,
    )

    errors = np.empty(lam.size)
    for i, s in enumerate(lam):
        u_pert = u + s * h
        if remainder is not None:
            r = np.asarray(remainder(s), dtype=float)
            if r.shape != u.shape:
                raise GridMismatchError(
                    f"remainder shape {r.shape} must match source {u.shape}"
                )
            u_pert = u_pert + r
        pert = solve_state(disc, sfun, reaction, hyst_cfg, u_pert, solver)
        quot = (pert.states - base.states) / s
        errors[i] = max(
            quad_norm(disc, quot[k] - record.states[k]) for k in range(len(base.times))
        )

    return FdStudy(lambdas=lam, errors=errors, record=record, base=base)
