"""Directional derivative of the control-to-state map via the linearized
recursion, plus finite-difference verification harnesses.

For a base trajectory y (with hysteresis output z) and a source direction h,
the sensitivity zeta solves the linearization of the IMEX recursion:

    (D + dt L) zeta[k+1] = D (zeta[k] + dt (f'[(y[k], z[k]); (zeta[k], w[k])] + h[k]))

where w is the directional derivative of the stop output, advanced by the
one-sided clamp rule on the pair (v = S y, dv = S zeta).  Branch decisions
are the census of the offset states stored on the base trajectory, so the
linearization follows bitwise the same saturation pattern the base solve
took.  Starting state is zeta_0 = 0: perturbing the source cannot move the
fixed initial condition.  Both schemes run on the state solve's own driver,
with the same Picard slices: at the converged base the sensitivity's sweep is
the linearization of the state's, so it contracts wherever the state's does.
Only the per-step rules differ.  Where the direct recursion is linear in h,
one backward (adjoint) sweep gives sum_k <seed_k, zeta_k> as a linear form
in h for a fixed weight field ``seed``; the optimizer takes its gradient from
it.

The finite-difference harnesses quantify how fast difference quotients of
the full nonlinear solve approach zeta, optionally with an o(lambda)
remainder added to the increment; surviving that remainder is what separates
this notion of derivative from a plain one-sided Gateaux limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, GridMismatchError, InvalidConfigError
from .evolution import (
    Source,
    Trajectory,
    _add_source,
    _as_path,
    _integrate,
    solve_state,
)
from .hysteresis import INTERIOR, _omega_step, branch_census
from .spatial import _path_norms, _Stepper

__all__ = [
    "SensitivityRecord",
    "FdStudy",
    "solve_sensitivity",
    "fd_convergence_study",
    "hadamard_perturbed_quotient",
]


@dataclass
class SensitivityRecord:
    """Discrete sensitivity path and the hysteresis-output derivative."""

    times: np.ndarray
    states: np.ndarray           # zeta_k, (N+1, m, n_nodes), or a ``_NoPath``
    norms: np.ndarray            # |zeta_k|_quad, kept path or not
    stop_derivative: np.ndarray  # w_k = directional derivative of z_k
    s_values: np.ndarray         # S zeta_k
    derivative_is_exact: bool    # False when the reaction derivative is tabulated
    picard_iterations: list = field(default_factory=list)  # per-slice sweep counts


def solve_sensitivity(base: Trajectory, direction, keep_states=True) -> SensitivityRecord:
    """Integrate the linearized recursion of ``base``'s equation along it, in
    the source direction ``direction`` (a ``Source`` or an (N+1, m, n_nodes)
    array), keeping the zeta path only with ``keep_states``, as ``solve_state``."""
    h = _as_path(direction)
    if h.shape != base.states.shape:
        raise GridMismatchError(
            f"direction shape {h.shape} must match base states {base.states.shape}"
        )
    if not (h.is_finite() if isinstance(h, Source) else np.all(np.isfinite(h))):
        raise InvalidConfigError("direction must be finite")

    solver, reaction = base.solver, base.reaction
    n_steps = solver.n_steps
    wz = np.zeros(n_steps + 1)      # derivative of the stop output
    dv = np.zeros(n_steps + 1)      # S zeta
    omega = np.zeros(n_steps + 1)   # wz - dv; zero since zeta_0 = 0
    stepper = _Stepper(base.disc, solver.dt, base.sfun)
    branches = branch_census(base.hyst_cfg, base.stop_offsets, base.s_values).steps.tolist()

    def rhs(k, zk, out):
        reaction.directional(base.states[k], base.stop.values[k], zk, wz[k], out=out)
        _add_source(h, k, out)

    def advance(k, zk):
        zf = zk.ravel()
        if not math.isfinite(zf.dot(zf)) and not np.all(np.isfinite(zk)):
            raise BlowupError(
                f"sensitivity became non-finite at step {k} (t={base.times[k]:.6g})"
            )
        dv[k] = stepper.S(zf)
        omega[k] = _omega_step(branches[k - 1], omega[k - 1], dv[k])
        wz[k] = omega[k] + dv[k]

    zeta, norms, sweeps = _integrate(stepper, solver, rhs, advance, keep_states)

    return SensitivityRecord(
        times=base.times,
        states=zeta,
        norms=norms,
        stop_derivative=wz,
        s_values=dv,
        derivative_is_exact=reaction.derivative_is_exact,
        picard_iterations=sweeps,
    )


def _adjoint_sweep(base: Trajectory, seed, stepper):
    """Backward sweep of the direct linearized recursion along ``base``.

    Returns the source-shaped g with sum_k <g_k, h_k> = sum_k <seed_k, zeta_k>
    (plain sums over components and nodes) for every direction h, where zeta
    is ``solve_sensitivity``'s path along h.  Returns None where that path is
    not linear in h: on the Picard scheme, whose sensitivity is a fixed point
    of the recursion only to the Picard tolerance; at an exact stop tie on
    the base path; and where the reaction's directional derivative is not
    linear in the direction.  The scalar adjoint of omega passes through
    interior steps and resets at a bound, as omega itself does forward.  Each
    step solves with ``stepper``'s transposed step (one built for the base's
    grid, S and step) from its buffer, which holds the adjoint of zeta.
    """
    census = branch_census(base.hyst_cfg, base.stop_offsets, base.s_values)
    states, reaction, solver = base.states, base.reaction, base.solver
    if (solver.scheme != "imex-euler" or census.tie
            or not reaction.directional_is_linear(states)):
        return None
    n_steps = solver.n_steps
    dt = solver.dt
    z = base.stop.values[:, None, None]
    # the explicit step's partials, 1 + dt f_y and dt f_z, over the whole path
    gy = np.broadcast_to(1.0 + dt * reaction.directional(states, z, 1.0, 0.0), states.shape)
    gz = np.broadcast_to(dt * reaction.directional(states, z, 0.0, 1.0), states.shape)
    interior = census.steps == INTERIOR
    s_field = stepper.s_field  # S zeta = sum(s_field * zeta)

    grad = np.zeros_like(states)
    x_bar = np.zeros_like(states[0])  # Dirichlet nodes stay zero
    x_flat = x_bar.ravel()
    scaled = np.empty_like(x_bar)  # s_field times a scalar
    lam = stepper.buf  # adjoint of zeta_{k+1}
    np.copyto(lam, seed[n_steps])
    mu = 0.0           # adjoint of omega_{k+1}
    for k in range(n_steps - 1, -1, -1):
        if not interior[k]:  # omega_{k+1} = -S zeta_{k+1}
            lam -= np.multiply(s_field, mu, out=scaled)
            mu = 0.0
        stepper.adjoint(x_bar)
        if not math.isfinite(x_flat.dot(x_flat)) and not np.all(np.isfinite(x_bar)):
            raise BlowupError(
                f"adjoint became non-finite at step {k} (t={base.times[k]:.6g})"
            )
        np.multiply(x_bar, dt, out=grad[k])
        wz_bar = float(gz[k].ravel().dot(x_flat))  # wz_k = omega_k + S zeta_k
        mu += wz_bar
        if k:  # lam_0 is unused; the buffer keeps the last solve's for check
            np.multiply(gy[k], x_bar, out=lam)
            lam += np.multiply(s_field, wz_bar, out=scaled)
            lam += seed[k]
    stepper.check(x_bar)
    return grad


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


def fd_convergence_study(base: Trajectory, h, lambdas) -> FdStudy:
    """e(lambda) = max_k |(G(u + lambda h) - G(u))_k / lambda - zeta_k|_quad,
    with G the equation ``base`` solved and u its source."""
    return hadamard_perturbed_quotient(base, h, None, lambdas)


def hadamard_perturbed_quotient(base: Trajectory, h, remainder, lambdas) -> FdStudy:
    """Like ``fd_convergence_study`` but perturbing with u + lambda h + r(lambda).

    ``remainder`` maps lambda to a source-shaped array with r(lambda)/lambda -> 0
    (or is None for the plain study).  Convergence of e(lambda) despite the
    remainder is what distinguishes the derivative from a directional limit.
    ``base`` must keep its path.  Its source and ``h`` may be ``Source``s;
    the perturbed sources need their dense paths, so the study forms them.
    """
    lam = _check_lambdas(lambdas)
    u = np.asarray(base.source, dtype=float)
    h = np.asarray(h, dtype=float)
    record = solve_sensitivity(base, h)  # checks h

    errors = np.empty(lam.size)
    u_pert = np.empty_like(u)  # u + s h (+ r), rebuilt for each lambda
    for i, s in enumerate(lam):
        np.multiply(h, s, out=u_pert)
        u_pert += u
        if remainder is not None:
            r = np.asarray(remainder(s), dtype=float)
            if r.shape != u.shape:
                raise GridMismatchError(
                    f"remainder shape {r.shape} must match source {u.shape}"
                )
            u_pert += r
        # the quotient's error, formed in the perturbed path's own states
        quot = solve_state(base.disc, base.sfun, base.reaction, base.hyst_cfg,
                           u_pert, base.solver).states
        quot -= base.states
        quot /= s
        quot -= record.states
        errors[i] = _path_norms(base.disc, quot).max()

    return FdStudy(lambdas=lam, errors=errors, record=record, base=base)
