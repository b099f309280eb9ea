"""End-to-end acceptance suite.

Each test prints one ``[A-NN] <label>: PASS`` or ``FAIL`` verdict on the real
stdout, so the lines survive pytest's capture, and enforces a wall-clock
budget.  Tolerances are hard-coded on purpose; they are the numbers the
package commits to, not knobs.
"""

import contextlib
import importlib.resources
import json
import sys
import time

import numpy as np
import pytest

from stopsim import (
    BoundarySides,
    ControlProblem,
    DomainSpec,
    HysteresisConfig,
    PiecewiseLinearSignal,
    ReactionFunction,
    SFunctional,
    SolverConfig,
    apply_B,
    assemble,
    build_control_problem,
    control_gram,
    fd_convergence_study,
    fractional_power_diagnostic,
    hadamard_perturbed_quotient,
    load_scenario,
    optimize,
    quad_norm,
    solve_state,
    stop_directional_derivative,
    stop_evaluate,
)
from stopsim.evolution import boundedness_report
from stopsim.sensitivity import solve_sensitivity
from stopsim.spatial import evaluate_S

from conftest import random_signal
from oracles import generator_dense_1d, insert_midpoints, normal_equation_coefficients


_capture_manager = None


@pytest.fixture(autouse=True)
def _remember_capture_manager(request):
    global _capture_manager
    _capture_manager = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _announce(tag, label, outcome, elapsed):
    line = f"[{tag}] {label}: {outcome} ({elapsed:.2f} s)\n"
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()


@contextlib.contextmanager
def verdict(tag, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(tag, label, "FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        _announce(tag, label, "FAIL", elapsed)
        raise AssertionError(
            f"{tag} took {elapsed:.2f} s, over the {budget:.0f} s budget")
    _announce(tag, label, "PASS", elapsed)


def signal(times, values):
    return PiecewiseLinearSignal(times=np.asarray(times, dtype=float),
                                 values=np.asarray(values, dtype=float))


def bundled(name):
    return json.loads(importlib.resources.files("stopsim.scenarios").joinpath(
        f"{name}.json").read_text())


def max_state_norm(disc, fields):
    return max(quad_norm(disc, field) for field in fields)


class SaturatingDraw:
    """One random 1-D setup whose clamp is genuinely exercised.

    The direction amplitude is deliberately large: the quotient error it
    produces must stay above the floating-point cancellation floor at the
    smallest probe magnitude, which scales like eps/lambda.
    """

    def __init__(self, rng):
        n = int(rng.integers(15, 30))
        left, right = rng.choice(["dirichlet", "neumann"], size=2)
        self.disc = assemble(
            DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
            [BoundarySides(left=left, right=right)],
            [float(rng.uniform(0.5, 1.5))])
        self.sfun = SFunctional(weight=np.full((1, n), rng.uniform(0.4, 0.8)))
        self.reaction = ReactionFunction("saturating", (
            -float(rng.uniform(0.6, 1.2)), float(rng.uniform(1.0, 1.8)),
            float(rng.uniform(0.6, 1.2)), float(rng.uniform(1.0, 1.8))))
        half = float(rng.uniform(0.02, 0.08))
        self.hyst = HysteresisConfig(a=-half, b=half, z0=0.0)
        self.solver = SolverConfig(dt=0.02, t_final=1.0)
        t = self.solver.times()
        x = self.disc.coords[:, 0]
        amp, om = rng.uniform(2.0, 4.0), rng.uniform(3.0, 6.0)
        self.u = (amp * np.sin(om * t))[:, None, None] \
            * np.sin(np.pi * x)[None, None, :]
        gate = ((t >= 0.1) & (t < 0.9)).astype(float)
        self.h = gate[:, None, None] * np.sin(2 * np.pi * x)[None, None, :]

    def solve(self, source):
        return solve_state(self.disc, self.sfun, self.reaction, self.hyst,
                           source, self.solver)


def clamp_pattern(traj, cfg):
    """Classify each step by the clamp branch that produced it.

    The carried offset is compared against the step's clamp interval; ties
    get their own classes so that a borderline draw cannot masquerade as a
    generic one.
    """
    w_prev = traj.stop_offsets[:-1]
    lo = cfg.a - traj.s_values[1:]
    hi = cfg.b - traj.s_values[1:]
    return np.where(w_prev < lo, -2,
           np.where(w_prev == lo, -1,
           np.where(w_prev > hi, 2,
           np.where(w_prev == hi, 1, 0))))


def test_a01_stop_closed_forms():
    with verdict("A-01", "stop closed forms (ramp and triangle)", 1.0):
        cfg = HysteresisConfig(a=-1.0, b=1.0, z0=0.0)

        times = np.linspace(0.0, 2.0, 21)
        out = stop_evaluate(signal(times, times), cfg)
        np.testing.assert_allclose(out.stop.values, np.minimum(times, 1.0),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(out.play.values,
                                   np.maximum(times - 1.0, 0.0),
                                   rtol=0.0, atol=1e-12)

        tri_t = np.arange(17) * 0.25
        tri_v = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 1.5, 1.0, 0.5, 0.0,
                          -0.5, -1.0, -1.5, -2.0, -1.5, -1.0, -0.5, 0.0])
        expected = np.array([0.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0, -0.5,
                             -1.0, -1.0, -1.0, -1.0, -1.0, -0.5, 0.0,
                             0.5, 1.0])
        out = stop_evaluate(signal(tri_t, tri_v), cfg)
        np.testing.assert_allclose(out.stop.values, expected,
                                   rtol=0.0, atol=1e-12)


def test_a02_two_sided_lipschitz_bound():
    with verdict("A-02", "sup-norm Lipschitz bound with factor 2", 5.0):
        cfg = HysteresisConfig(a=-1.0, b=1.0, z0=0.0)
        rng = np.random.default_rng(20260201)
        violations = 0
        worst = 0.0
        for _ in range(1000):
            first = random_signal(rng, n_points=100)
            second = PiecewiseLinearSignal(
                times=first.times,
                values=rng.uniform(-2.0, 2.0, 100))
            deviation = np.abs(first.values - second.values).max()
            dz = np.abs(stop_evaluate(first, cfg).stop.values
                        - stop_evaluate(second, cfg).stop.values).max()
            ratio = dz / deviation
            worst = max(worst, ratio)
            if ratio > 2.0:
                violations += 1
        assert violations == 0, f"{violations} pairs exceeded the factor-2 bound"
        assert worst <= 2.0


def test_a03_rate_independence_and_concatenation():
    from stopsim import stop_concatenate

    with verdict("A-03", "rate independence and concatenation", 5.0):
        cfg = HysteresisConfig(a=-1.0, b=1.0, z0=0.0)
        rng = np.random.default_rng(20260301)
        for _ in range(200):
            sig = random_signal(rng)

            segs = rng.choice(len(sig) - 1, size=10, replace=False)
            rt, rv = insert_midpoints(sig.times, sig.values, segs)
            refined = stop_evaluate(signal(rt, rv), cfg)
            original = stop_evaluate(sig, cfg)
            keep = np.isin(rt, sig.times)
            np.testing.assert_array_equal(refined.stop.values[keep],
                                          original.stop.values)

            k = int(rng.integers(1, len(sig) - 1))
            prefix = stop_evaluate(
                PiecewiseLinearSignal(sig.times[:k + 1], sig.values[:k + 1]),
                cfg)
            joined = stop_concatenate(
                prefix,
                PiecewiseLinearSignal(sig.times[k:], sig.values[k:]),
                cfg)
            np.testing.assert_array_equal(joined.stop.values,
                                          original.stop.values)
            np.testing.assert_array_equal(joined.play.values,
                                          original.play.values)


def test_a04_directional_derivative_consistency():
    with verdict("A-04", "directional derivative consistency", 30.0):
        lambdas = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        rng = np.random.default_rng(20260815)
        accepted = attempts = 0
        while accepted < 50:
            attempts += 1
            assert attempts <= 400, "generator stopped producing generic draws"
            setup = SaturatingDraw(rng)
            base = setup.solve(setup.u)
            pattern = clamp_pattern(base, setup.hyst)
            # a draw counts as generic only when the clamp saturates
            # somewhere, no step sits exactly on a clamp boundary, and the
            # branch pattern survives every probe magnitude unchanged
            if not (np.abs(pattern) == 2).any() or (np.abs(pattern) == 1).any():
                continue
            if any(not np.array_equal(
                       clamp_pattern(setup.solve(setup.u + lam * setup.h),
                                     setup.hyst),
                       pattern)
                   for lam in lambdas):
                continue
            accepted += 1
            study = fd_convergence_study(base, setup.h, lambdas)
            assert np.all(np.diff(study.errors) < 0.0), (
                f"draw {attempts}: quotient errors not strictly decreasing: "
                f"{study.errors}")

        srng = np.random.default_rng(42)
        checked = scalar_attempts = 0
        while checked < 200:
            scalar_attempts += 1
            assert scalar_attempts <= 400
            n = int(srng.integers(20, 80))
            t = np.cumsum(srng.uniform(0.05, 0.3, size=n))
            v = np.cumsum(srng.normal(0.0, 0.4, size=n))
            half = float(srng.uniform(0.05, 0.3))
            cfg = HysteresisConfig(a=-half, b=half,
                                   z0=float(srng.uniform(-half, half)))
            direction = srng.normal(0.0, 1.0, size=n)
            out = stop_evaluate(signal(t, v), cfg)
            w_prev = (out.stop.values - v)[:-1]
            margin = min(np.abs(w_prev - (cfg.a - v[1:])).min(),
                         np.abs(w_prev - (cfg.b - v[1:])).min())
            if margin < 1e-4:
                continue
            checked += 1
            lam = 1e-6
            pert = stop_evaluate(signal(t, v + lam * direction), cfg)
            quot = (pert.stop.values - out.stop.values) / lam
            der = stop_directional_derivative(signal(t, v),
                                              signal(t, direction), cfg)
            np.testing.assert_allclose(quot, der.derivative,
                                       rtol=0.0, atol=1e-6)


def test_a05_solver_convergence_orders():
    with verdict("A-05", "solver convergence orders", 120.0):
        n = 21
        disc = assemble(
            DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
            [BoundarySides(left="dirichlet", right="dirichlet")], [1.0])
        x = disc.coords[:, 0]
        dense, active = generator_dense_1d(n, 1.0, 1.0, "dirichlet", "dirichlet")
        phi = np.sin(np.pi * x)
        operator_phi = np.zeros(n)
        operator_phi[active] = dense @ phi[active]

        sfun = SFunctional(weight=np.full((1, n), 0.5))
        c_z = 0.6
        reaction = ReactionFunction("linear", (0.2, -0.8, c_z))
        hyst = HysteresisConfig(a=-1e6, b=1e6, z0=0.1)
        s_phi = float(evaluate_S(disc, sfun, phi[None, :]))

        # manufactured profile sin(1.3 t) phi; the band is wide so the stop
        # follows its input exactly and the source can cancel every term
        errors = []
        for dt in (0.02, 0.01, 0.005, 0.0025):
            solver = SolverConfig(dt=dt, t_final=1.0)
            t = solver.times()
            g, gp = np.sin(1.3 * t), 1.3 * np.cos(1.3 * t)
            y_star = g[:, None, None] * phi[None, None, :]
            z_star = hyst.z0 + s_phi * g
            u = (gp[:, None] * phi[None, :]
                 + g[:, None] * operator_phi[None, :]
                 - (0.2 - 0.8 * g[:, None] * phi[None, :])
                 - c_z * z_star[:, None])[:, None, :]
            traj = solve_state(disc, sfun, reaction, hyst, u, solver)
            errors.append(max_state_norm(disc, traj.states - y_star))
        errors = np.array(errors)
        temporal_orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(temporal_orders >= 0.9), (
            f"temporal orders {temporal_orders}")

        # steady manufactured solution sin(pi x); the long implicit run
        # lands on the discrete steady state, so only the spatial error is left
        quiet = ReactionFunction("linear", (0.0, 0.0, 0.0))
        sp_errors = []
        for nn in (11, 21, 41, 81):
            d2 = assemble(
                DomainSpec(dimension=1, extent=(1.0,), resolution=(nn,)),
                [BoundarySides(left="dirichlet", right="dirichlet")], [1.0])
            xs = d2.coords[:, 0]
            sf2 = SFunctional(weight=np.full((1, nn), 0.5))
            solver = SolverConfig(dt=0.05, t_final=6.0)
            u = np.broadcast_to(
                (np.pi ** 2) * np.sin(np.pi * xs),
                (solver.n_steps + 1, 1, nn)).copy()
            traj = solve_state(d2, sf2, quiet, hyst, u, solver)
            sp_errors.append(quad_norm(
                d2, traj.states[-1] - np.sin(np.pi * xs)[None, :]))
        sp_errors = np.array(sp_errors)
        spatial_orders = np.log2(sp_errors[:-1] / sp_errors[1:])
        assert np.all(spatial_orders >= 1.9), (
            f"spatial orders {spatial_orders}")


def test_a06_state_bound_stable_under_sampling():
    with verdict("A-06", "state bound stability under sampling", 120.0):
        n = 25
        disc = assemble(
            DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
            [BoundarySides(left="dirichlet", right="neumann")], [0.8])
        sfun = SFunctional(weight=np.full((1, n), 0.5))
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        solver = SolverConfig(dt=0.02, t_final=1.0)
        t = solver.times()
        x = disc.coords[:, 0]

        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(200):
            amp = 10.0 ** rng.uniform(-1.0, 1.5)
            om = rng.uniform(0.5, 8.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            mix = rng.normal(size=3)
            prof = sum(m * np.sin((s + 1) * np.pi * x)
                       for s, m in enumerate(mix))
            u = amp * np.sin(om * t + phase)[:, None, None] \
                * prof[None, None, :]
            traj = solve_state(disc, sfun, reaction, hyst, u, solver)
            ratios.append(boundedness_report(traj).ratio)
        ratios = np.array(ratios)
        c_half, c_full = ratios[:100].max(), ratios.max()
        assert np.isfinite(c_full)
        assert c_full < 2.0 * c_half, (
            f"bound jumped from {c_half:.4f} to {c_full:.4f} on doubling")


def test_a07_linear_case_sensitivity_exactness():
    with verdict("A-07", "linear-case sensitivity exactness", 30.0):
        n = 21
        disc = assemble(
            DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
            [BoundarySides(left="dirichlet", right="neumann")], [1.0])
        sfun = SFunctional(weight=np.full((1, n), 0.5))
        reaction = ReactionFunction("linear", (0.1, -0.6, 0.4))
        hyst = HysteresisConfig(a=-100.0, b=100.0, z0=0.0)
        solver = SolverConfig(dt=0.01, t_final=1.0)
        t = solver.times()
        x = disc.coords[:, 0]
        u = (2.0 * np.sin(4.0 * t))[:, None, None] \
            * np.sin(np.pi * x / 2)[None, None, :]
        gate = ((t >= 0.1) & (t < 0.9)).astype(float)
        h = 0.5 * gate[:, None, None] * np.sin(np.pi * x)[None, None, :]

        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        pert = solve_state(disc, sfun, reaction, hyst, u + h, solver)
        for traj in (base, pert):
            assert np.abs(traj.stop.values).max() < 99.0, "band saturated"
        record = solve_sensitivity(base, h)
        num = max_state_norm(disc,
                             record.states - (pert.states - base.states))
        den = max_state_norm(disc, record.states)
        assert num <= 1e-9 * den, f"relative mismatch {num / den:.3e}"


def test_a08_vanishing_remainder_robustness():
    with verdict("A-08", "vanishing-remainder quotient robustness", 60.0):
        setup = SaturatingDraw(np.random.default_rng(20260815))
        lambdas = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        base = setup.solve(setup.u)
        plain = fd_convergence_study(base, setup.h, lambdas)
        assert np.all(np.diff(plain.errors) < 0.0)

        # remainder scale keeps the extra sqrt(lambda) tail below the plain
        # study's own error at the smallest magnitude; larger and it would
        # dominate in exact arithmetic, which is not what is being tested
        x = setup.disc.coords[:, 0]
        t = setup.solver.times()
        extra = 1e-6 * np.cos(3 * np.pi * x)[None, None, :] \
            * np.ones((t.size, 1, 1))
        perturbed = hadamard_perturbed_quotient(
            base, setup.h, lambda lam: lam ** 1.5 * extra, lambdas)
        assert np.all(np.diff(perturbed.errors) < 0.0)
        assert perturbed.errors[-1] <= 2.0 * plain.errors[-1], (
            f"final errors {perturbed.errors[-1]:.3e} vs "
            f"{plain.errors[-1]:.3e}")


def test_a09_optimizer_against_normal_equations():
    with verdict("A-09", "optimizer against normal equations", 180.0):
        scn = load_scenario(bundled("linear_quadratic"), needs=("state", "control"))
        problem, spec, _ = build_control_problem(scn)

        def solve(coefficients):
            u = apply_B(problem.disc, spec.with_coefficients(coefficients), problem.solver)
            return solve_state(problem.disc, problem.sfun, problem.reaction,
                               problem.hyst_cfg, u, problem.solver).states

        gram = control_gram(problem.disc, spec, problem.solver)
        oracle = normal_equation_coefficients(problem, spec, solve, gram)
        assert spec.coefficients.size <= 20

        result = optimize(problem, spec, max_iters=400, tol=1e-9)
        assert result.status == "converged"
        np.testing.assert_allclose(result.spec.coefficients, oracle,
                                   rtol=0.0, atol=1e-6)
        costs = [row[1] for row in result.history]
        assert all(b <= a for a, b in zip(costs, costs[1:])), (
            "cost history increased")

        norms = []
        for kappa in (0.01, 0.1, 1.0):
            scaled = ControlProblem(
                disc=problem.disc, sfun=problem.sfun,
                reaction=problem.reaction, hyst_cfg=problem.hyst_cfg,
                solver=problem.solver, target=problem.target, kappa=kappa)
            res = optimize(scaled, spec, max_iters=800, tol=1e-7)
            assert res.status == "converged"
            c = res.spec.coefficients
            norms.append(float(np.sqrt(c @ gram @ c)))
        assert all(b <= a for a, b in zip(norms, norms[1:])), (
            f"control norms not non-increasing: {norms}")


def test_a10_semigroup_smoothing_diagnostic():
    with verdict("A-10", "semigroup smoothing diagnostic", 60.0):
        def make(n):
            return assemble(
                DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
                [BoundarySides(left="dirichlet", right="neumann")], [1.0])

        for theta in (0.25, 0.5, 0.75):
            coarse = fractional_power_diagnostic(make(41), theta)
            fine = fractional_power_diagnostic(make(81), theta)
            assert np.isfinite(coarse.sup_value)
            assert np.isfinite(fine.sup_value)
            rel = abs(fine.sup_value - coarse.sup_value) / coarse.sup_value
            assert rel <= 0.05, f"theta={theta}: sup moved by {rel:.2%}"


def test_a11_neumann_mass_conservation():
    with verdict("A-11", "pure-Neumann mass conservation", 10.0):
        scn = load_scenario(bundled("neumann_conservation"))
        traj = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                           scn.source, scn.solver)
        mass = traj.states[:, 0, :] @ scn.disc.quadrature
        # the source is a pulse over the first ten steps; everything after
        # runs source-free and must hold the injected mass step by step
        settled = mass[10:]
        assert settled.size == 1001
        assert abs(settled[0]) > 0.1, "no mass was injected"
        drift = np.abs(np.diff(settled))
        assert drift.max() <= 1e-10, f"worst per-step drift {drift.max():.3e}"
