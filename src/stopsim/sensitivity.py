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
fixed initial condition.  With the branches fixed the recursion is explicit
in zeta, so the solve is one direct march of the state solve's driver on
either scheme: a Picard-sliced base is linearized at the path its sweeps
converged to, and only the state solve sweeps slices.  Where the recursion is
linear in h, one backward (adjoint) sweep gives sum_k <seed_k, zeta_k> as a
linear form in h for a fixed weight field ``seed``; the optimizer takes its
gradient from it.

The finite-difference harnesses quantify how fast difference quotients of
the full nonlinear solve approach zeta, optionally with an o(lambda)
remainder added to the increment; surviving that remainder is what separates
this notion of derivative from a plain one-sided Gateaux limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, _array, _fail
from .evolution import Trajectory, _integrate, _path, solve_state
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


def solve_sensitivity(base: Trajectory, direction, keep_states=True) -> SensitivityRecord:
    """Integrate the linearized recursion of ``base``'s equation along it, in
    the source direction ``direction`` (a ``Source`` or an (N+1, m, n_nodes)
    array), keeping the zeta path only with ``keep_states``, as ``solve_state``.
    The march is direct on either scheme, so without the path it holds one 64 KiB window."""
    solver, reaction, states, z = base.solver, base.reaction, base.states, base.stop.values
    h = _path(base.disc, solver, direction, "direction")
    n_steps = solver.n_steps
    wz, dv, omega = np.zeros((3, n_steps + 1))  # d(stop output), S zeta, wz - dv; zeta_0 = 0
    stepper = _Stepper(base.disc, solver.dt, base.sfun)
    branches = branch_census(base.hyst_cfg, base.stop_offsets, base.s_values).steps.tolist()
    directional, S = reaction.directional, stepper.S

    def rhs(k, zk, out):
        directional(states[k], z[k], zk, wz[k], out)
        out += h[k]

    def advance(k, zk):
        zf = zk.ravel()
        if not math.isfinite(zf.dot(zf)):
            _overflow("sensitivity", k, base.times[k])
        dv[k] = d = S(zf)
        omega[k] = o = _omega_step(branches[k - 1], omega[k - 1], d)
        wz[k] = o + d

    zeta, norms, _ = _integrate(stepper, n_steps, rhs, advance, keep_states)

    return SensitivityRecord(
        times=base.times,
        states=zeta,
        norms=norms,
        stop_derivative=wz,
        s_values=dv,
        derivative_is_exact=reaction.derivative_is_exact,
    )


def _overflow(what, k, t):
    """Stop a linearized sweep at step k (time t), where its |x|^2 is not finite."""
    raise BlowupError(f"{what} overflowed at step {k} (t={t:.6g}): its squared norm is not finite")


def _adjoint_sweep(base: Trajectory, seed, stepper):
    """Backward sweep of the direct linearized recursion along ``base``.

    Returns the source-shaped g with sum_k <g_k, h_k> = sum_k <seed_k, zeta_k>
    (plain sums over components and nodes) for every direction h, where zeta
    is ``solve_sensitivity``'s path along h, on either scheme.  Returns None
    where that path is not linear in h: at an exact stop tie on the base path
    and where the reaction's directional derivative is not linear in the
    direction.  The scalar adjoint of omega passes through interior steps and
    resets at a bound, as omega itself does forward.  Each step solves with
    ``stepper``'s transposed step (one built for the base's grid, S and step)
    from its buffer, which holds the adjoint of zeta, into row k of the
    result (Dirichlet nodes stay zero), scaled by dt at the end.
    """
    census = branch_census(base.hyst_cfg, base.stop_offsets, base.s_values)
    states, reaction, solver = base.states, base.reaction, base.solver
    if census.tie or not reaction.directional_is_linear(states):
        return None
    n_steps = solver.n_steps
    dt = solver.dt
    z = base.stop.values[:, None, None]
    # the explicit step's partials, 1 + dt f_y and dt f_z, over the whole path
    gy = 1.0 + dt * reaction.directional(states, z, 1.0, 0.0)
    gz = (dt * reaction.directional(states, z, 0.0, 1.0)).reshape(n_steps + 1, -1)
    branches = census.steps.tolist()
    s_field = stepper.s_field  # S zeta = sum(s_field * zeta)

    grad = np.zeros_like(states)
    scaled = np.empty_like(states[0])  # s_field times a scalar
    lam, adjoint = stepper.buf, stepper.adjoint  # lam: adjoint of zeta_{k+1}
    np.copyto(lam, seed[n_steps])
    mu = 0.0           # adjoint of omega_{k+1}
    for k in range(n_steps - 1, -1, -1):
        if branches[k] != INTERIOR:  # omega_{k+1} = -S zeta_{k+1}
            lam -= np.multiply(s_field, mu, out=scaled)
            mu = 0.0
        xf = adjoint(grad[k]).ravel()
        if not math.isfinite(xf.dot(xf)):
            _overflow("adjoint", k, base.times[k])
        wz_bar = float(gz[k].dot(xf))  # wz_k = omega_k + S zeta_k
        mu += wz_bar
        if k:  # lam_0 is unused; the buffer keeps the last solve's for check
            np.multiply(gy[k], grad[k], out=lam)
            lam += np.multiply(s_field, wz_bar, out=scaled)
            lam += seed[k]
    stepper.check(grad[0])
    grad *= dt
    return grad


@dataclass
class FdStudy:
    """Difference-quotient errors e(lambda) against the computed sensitivity."""

    lambdas: np.ndarray
    errors: np.ndarray
    record: SensitivityRecord
    base: Trajectory


def _check_lambdas(lambdas):
    lam = _array(lambdas, "lambdas")
    if lam.ndim != 1 or lam.size == 0:
        _fail("lambdas", "expected a nonempty array of step sizes")
    if np.any(lam <= 0.0) or np.any(np.diff(lam) >= 0.0):
        _fail("lambdas", "must be positive and strictly decreasing")
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
    record = solve_sensitivity(base, h)  # checks h before its dense path is formed
    u, h = np.asarray(base.source, dtype=float), np.asarray(h, dtype=float)

    errors = np.empty(lam.size)
    u_pert = np.empty_like(u)  # u + s h (+ r), rebuilt for each lambda
    for i, s in enumerate(lam):
        np.multiply(h, s, out=u_pert)
        u_pert += u
        if remainder is not None:
            u_pert += _path(base.disc, base.solver, remainder(s), "remainder")
        # the quotient's error, formed in the perturbed path's own states
        quot = solve_state(base.disc, base.sfun, base.reaction, base.hyst_cfg,
                           u_pert, base.solver).states
        quot -= base.states
        quot /= s
        quot -= record.states
        errors[i] = _path_norms(base.disc, quot).max()

    return FdStudy(lambdas=lam, errors=errors, record=record, base=base)
