import json
import math
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

import stopsim.control as control_module
from stopsim import (
    BoundarySides,
    ControlProblem,
    ControlSpec,
    DomainSpec,
    EmptyBoundaryError,
    GridMismatchError,
    HysteresisConfig,
    InvalidConfigError,
    ReactionFunction,
    SFunctional,
    SolverConfig,
    apply_B,
    assemble,
    branch_census,
    build_control_problem,
    control_gram,
    load_scenario,
    optimize,
    quad_norm,
    reduced_cost,
    solve_state,
)
from stopsim.control import _directional, _gradient, _solve, _tracking_term
from stopsim.spatial import _path_norms, _Stepper

from conftest import bundled_config, constant_sfun
from oracles import normal_equation_coefficients, response_model, s_operator_norm


def sine_modes(disc, count):
    x = disc.coords[:, 0]
    length = disc.domain.extent[0]
    modes = np.empty((count, disc.n_components, disc.n_nodes))
    for s in range(count):
        modes[s] = np.sin((s + 1) * np.pi * x / length)
    return modes


def directional(problem, spec, direction):
    """J'(c; d) on ``optimize``'s forward path: ``_directional`` at the state solve of ``spec``."""
    gram = control_gram(problem.disc, spec, problem.solver)
    return _directional(problem, spec, direction, _solve(problem, spec), gram)


@pytest.fixture
def affine_problem(disc_mixed):
    """Wide hysteresis band and affine reaction: coefficient map is affine."""
    solver = SolverConfig(dt=0.02, t_final=0.6)
    spec = ControlSpec(mode="distributed", time_knots=3,
                       coefficients=np.zeros(6),
                       spatial_modes=sine_modes(disc_mixed, 2))
    sfun = constant_sfun(disc_mixed, 0.4)
    reaction = ReactionFunction("linear", (0.0, -0.5, 0.3))
    hyst = HysteresisConfig(a=-50.0, b=50.0, z0=0.0)
    c_true = np.array([0.8, -0.3, 0.5, 0.2, -0.4, 0.6])
    u_true = apply_B(disc_mixed, spec.with_coefficients(c_true), solver)
    target = solve_state(disc_mixed, sfun, reaction, hyst, u_true,
                         solver).states
    problem = ControlProblem(disc=disc_mixed, sfun=sfun, reaction=reaction,
                             hyst_cfg=hyst, solver=solver, target=target,
                             kappa=0.1)
    return problem, spec


def unit_interval(n):
    """The solver whose time grid is n points on [0, 1]."""
    return SolverConfig(dt=1.0 / (n - 1), t_final=1.0)


def affine_solver(problem, spec):
    def solve(coefficients):
        u = apply_B(problem.disc, spec.with_coefficients(coefficients), problem.solver)
        return solve_state(problem.disc, problem.sfun, problem.reaction,
                           problem.hyst_cfg, u, problem.solver).states
    return solve


class TestApplyB:
    def test_constant_mode_hits_every_node(self, disc_mixed):
        spec = ControlSpec(
            mode="distributed", time_knots=1, coefficients=np.array([0.7]),
            spatial_modes=np.ones((1, 1, disc_mixed.n_nodes)))
        u = apply_B(disc_mixed, spec, unit_interval(11))
        np.testing.assert_array_equal(u, np.full((11, 1, 17), 0.7))

    def test_time_hats_are_a_partition_of_unity(self, disc_mixed):
        modes = np.ones((1, 1, disc_mixed.n_nodes))
        spec = ControlSpec(mode="distributed", time_knots=4,
                           coefficients=np.full(4, 0.3),
                           spatial_modes=modes)
        u = apply_B(disc_mixed, spec, unit_interval(21))
        np.testing.assert_allclose(u, np.full_like(u, 0.3), rtol=1e-14)

    def test_time_hats_interpolate_their_knots(self, disc_mixed):
        modes = np.ones((1, 1, disc_mixed.n_nodes))
        spec = ControlSpec(mode="distributed", time_knots=3,
                           coefficients=np.array([1.0, 0.0, 0.0]),
                           spatial_modes=modes)
        u = apply_B(disc_mixed, spec, unit_interval(5))
        np.testing.assert_allclose(u[:, 0, 0], [1.0, 0.5, 0.0, 0.0, 0.0],
                                   rtol=1e-15)

    def test_boundary_unit_coefficient_in_1d(self, disc_mixed):
        spec = ControlSpec(mode="boundary", time_knots=1,
                           coefficients=np.array([1.0]))
        u = apply_B(disc_mixed, spec, unit_interval(6))
        expected = np.zeros((6, 1, 17))
        expected[:, 0, 16] = 1.0
        np.testing.assert_array_equal(u, expected)

    def test_boundary_weights_on_a_2d_edge(self):
        disc = assemble(
            DomainSpec(dimension=2, extent=(1.0, 1.5), resolution=(7, 6)),
            [BoundarySides(left="dirichlet", right="neumann",
                           bottom="dirichlet", top="dirichlet")],
            [1.0],
        )
        coeffs = np.array([1.0, 2.0, 3.0, 4.0])
        spec = ControlSpec(mode="boundary", time_knots=1, coefficients=coeffs)
        u = apply_B(disc, spec, unit_interval(3))
        hy = 1.5 / 5
        expected = np.zeros((3, 1, 42))
        expected[:, 0, [37, 38, 39, 40]] = coeffs * hy
        np.testing.assert_allclose(u, expected, rtol=1e-15)

    def test_boundary_needs_neumann_nodes(self, disc_dirichlet):
        spec = ControlSpec(mode="boundary", time_knots=1,
                           coefficients=np.array([1.0]))
        with pytest.raises(EmptyBoundaryError):
            apply_B(disc_dirichlet, spec, unit_interval(3))
        with pytest.raises(InvalidConfigError):
            apply_B(disc_dirichlet,
                    ControlSpec(mode="boundary", time_knots=1,
                                coefficients=np.array([1.0]), component=2),
                    unit_interval(3))

    def test_boundary_coefficient_count_is_checked(self, disc_mixed):
        spec = ControlSpec(mode="boundary", time_knots=2,
                           coefficients=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidConfigError):
            apply_B(disc_mixed, spec, unit_interval(3))

    def test_distributed_modes_must_fit_the_grid(self, disc_mixed):
        spec = ControlSpec(mode="distributed", time_knots=1,
                           coefficients=np.array([1.0]),
                           spatial_modes=np.ones((1, 1, 5)))
        with pytest.raises(GridMismatchError):
            apply_B(disc_mixed, spec, unit_interval(3))


class TestControlSpecValidation:
    def test_rejects_bad_layout(self, disc_mixed):
        modes = sine_modes(disc_mixed, 2)
        with pytest.raises(InvalidConfigError):
            ControlSpec(mode="pointwise", time_knots=1,
                        coefficients=np.array([1.0]))
        with pytest.raises(InvalidConfigError):
            ControlSpec(mode="distributed", time_knots=0,
                        coefficients=np.array([1.0]), spatial_modes=modes)
        with pytest.raises(InvalidConfigError):
            ControlSpec(mode="distributed", time_knots=2,
                        coefficients=np.zeros(3), spatial_modes=modes)
        with pytest.raises(InvalidConfigError):
            ControlSpec(mode="distributed", time_knots=1,
                        coefficients=np.array([np.nan, 0.0]),
                        spatial_modes=modes)
        with pytest.raises(InvalidConfigError):
            ControlSpec(mode="distributed", time_knots=1,
                        coefficients=np.array([1.0]))

    @pytest.mark.parametrize("knots", [2.7, True, 2.0, "2"])
    def test_time_knots_must_be_an_integer(self, disc_mixed, knots):
        modes = sine_modes(disc_mixed, 2)
        with pytest.raises(InvalidConfigError, match="time_knots: expected an integer"):
            ControlSpec(mode="distributed", time_knots=knots,
                        coefficients=np.zeros(4), spatial_modes=modes)
        spec = ControlSpec(mode="distributed", time_knots=np.int64(2),
                           coefficients=np.zeros(4), spatial_modes=modes)
        assert type(spec.time_knots) is int

    def test_with_coefficients_preserves_the_layout(self, disc_mixed):
        spec = ControlSpec(mode="distributed", time_knots=3,
                           coefficients=np.zeros(6),
                           spatial_modes=sine_modes(disc_mixed, 2))
        other = spec.with_coefficients(np.arange(6.0))
        assert other.mode == spec.mode
        assert other.time_knots == spec.time_knots
        assert other.n_coefficients == 6
        np.testing.assert_array_equal(other.spatial_modes, spec.spatial_modes)


class TestControlGram:
    def test_distributed_gram_matches_brute_force(self, affine_problem):
        problem, spec = affine_problem
        gram = control_gram(problem.disc, spec, problem.solver)
        n = spec.n_coefficients
        fields = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            fields.append(apply_B(problem.disc, spec.with_coefficients(e), problem.solver))
        dt = problem.solver.dt
        brute = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                brute[i, j] = dt * np.einsum(
                    "kmi,kmi,i->", fields[i], fields[j],
                    problem.disc.quadrature)
        np.testing.assert_allclose(gram, brute, rtol=1e-12, atol=1e-15)
        # symmetric positive definite for independent modes
        lam = np.linalg.eigvalsh(gram)
        assert lam.min() > 0

    def test_boundary_gram_is_a_kron_of_time_and_surface(self, disc_mixed):
        solver = SolverConfig(dt=0.1, t_final=1.0)
        spec = ControlSpec(mode="boundary", time_knots=2,
                           coefficients=np.zeros(2))
        gram = control_gram(disc_mixed, spec, solver)
        t = solver.times()
        knots = np.linspace(0.0, 1.0, 2)
        profiles = np.stack([np.interp(t, knots, [1.0, 0.0]),
                             np.interp(t, knots, [0.0, 1.0])])
        t_gram = solver.dt * profiles @ profiles.T
        np.testing.assert_allclose(gram, np.kron(t_gram, np.eye(1) * 1.0),
                                   rtol=1e-14)

    def test_distributed_modes_must_fit_the_grid(self, affine_problem):
        problem, _ = affine_problem
        spec = ControlSpec(mode="distributed", time_knots=1,
                           coefficients=np.array([1.0]),
                           spatial_modes=np.ones((1, 1, 5)))
        with pytest.raises(GridMismatchError):
            control_gram(problem.disc, spec, problem.solver)
        with pytest.raises(GridMismatchError):
            reduced_cost(problem, spec)
        with pytest.raises(GridMismatchError):
            directional(problem, spec, np.ones(1))
        with pytest.raises(GridMismatchError):
            optimize(problem, spec, max_iters=1)


class TestReducedCost:
    def test_zero_everything_costs_nothing(self, disc_mixed, affine_problem):
        problem, spec = affine_problem
        zero_target = ControlProblem(
            disc=problem.disc, sfun=problem.sfun, reaction=problem.reaction,
            hyst_cfg=problem.hyst_cfg, solver=problem.solver,
            target=np.zeros_like(problem.target), kappa=problem.kappa)
        assert reduced_cost(zero_target, spec) == 0.0

    def test_pure_tracking_term_for_zero_control(self, affine_problem):
        problem, spec = affine_problem
        dt = problem.solver.dt
        base = solve_state(problem.disc, problem.sfun, problem.reaction,
                           problem.hyst_cfg,
                           np.zeros_like(problem.target), problem.solver)
        expected = 0.5 * dt * sum(
            quad_norm(problem.disc, base.states[k] - problem.target[k]) ** 2
            for k in range(len(base.times)))
        assert reduced_cost(problem, spec) == pytest.approx(expected,
                                                            rel=1e-14)
        assert reduced_cost(problem, spec) > 0

    def test_tracking_term_sums_every_component_in_2d(self):
        disc = assemble(DomainSpec(dimension=2, extent=(1.0, 0.7),
                                   resolution=(6, 5)),
                        [BoundarySides("dirichlet", "neumann", "neumann",
                                       "neumann")] * 2, [1.0, 2.0])
        rng = np.random.default_rng(5)
        states, target = rng.standard_normal((2, 9, 2, disc.n_nodes))
        problem = SimpleNamespace(disc=disc, target=target,
                                  solver=SimpleNamespace(dt=0.1))
        expected = 0.5 * 0.1 * sum(quad_norm(disc, y - yd) ** 2
                                   for y, yd in zip(states, target))
        got = _tracking_term(problem, SimpleNamespace(states=states))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_matches_the_quadratic_model(self, affine_problem):
        problem, spec = affine_problem
        solve = affine_solver(problem, spec)
        M, b, const = response_model(problem, spec, solve)
        gram = control_gram(problem.disc, spec, problem.solver)
        rng = np.random.default_rng(40)
        for _ in range(4):
            c = rng.uniform(-1.0, 1.0, spec.n_coefficients)
            model = (0.5 * c @ M @ c + 0.5 * problem.kappa * c @ gram @ c
                     - b @ c + const)
            actual = reduced_cost(problem, spec.with_coefficients(c))
            assert actual == pytest.approx(model, rel=1e-10)

    def test_kappa_and_target_are_validated(self, affine_problem):
        problem, spec = affine_problem
        with pytest.raises(InvalidConfigError):
            ControlProblem(disc=problem.disc, sfun=problem.sfun,
                           reaction=problem.reaction,
                           hyst_cfg=problem.hyst_cfg, solver=problem.solver,
                           target=problem.target, kappa=0.0)
        with pytest.raises(GridMismatchError):
            ControlProblem(disc=problem.disc, sfun=problem.sfun,
                           reaction=problem.reaction,
                           hyst_cfg=problem.hyst_cfg, solver=problem.solver,
                           target=problem.target[:3], kappa=0.1)


class TestDirectionalDerivative:
    def test_matches_the_quadratic_gradient(self, affine_problem):
        problem, spec = affine_problem
        solve = affine_solver(problem, spec)
        M, b, _ = response_model(problem, spec, solve)
        gram = control_gram(problem.disc, spec, problem.solver)
        rng = np.random.default_rng(41)
        c = rng.uniform(-1.0, 1.0, spec.n_coefficients)
        at_c = spec.with_coefficients(c)
        for _ in range(3):
            d = rng.standard_normal(spec.n_coefficients)
            expected = float(c @ (M + problem.kappa * gram) @ d - b @ d)
            actual = directional(problem, at_c, d)
            assert actual == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_is_additive_in_the_direction(self, affine_problem):
        problem, spec = affine_problem
        at_c = spec.with_coefficients(
            np.array([0.4, -0.2, 0.1, 0.3, -0.5, 0.2]))
        rng = np.random.default_rng(42)
        d1 = rng.standard_normal(6)
        d2 = rng.standard_normal(6)
        j1 = directional(problem, at_c, d1)
        j2 = directional(problem, at_c, d2)
        j12 = directional(problem, at_c, d1 + d2)
        assert j12 == pytest.approx(j1 + j2, rel=1e-8, abs=1e-12)

    def test_forward_quotient_on_a_saturating_problem(self, disc_mixed):
        solver = SolverConfig(dt=0.02, t_final=0.6)
        spec = ControlSpec(mode="distributed", time_knots=2,
                           coefficients=np.array([0.6, -0.4, 0.8, 0.2]),
                           spatial_modes=sine_modes(disc_mixed, 2))
        sfun = constant_sfun(disc_mixed, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        problem = ControlProblem(
            disc=disc_mixed, sfun=sfun, reaction=reaction, hyst_cfg=hyst,
            solver=solver,
            target=np.zeros((solver.n_steps + 1, 1, disc_mixed.n_nodes)),
            kappa=0.05)
        d = np.array([1.0, -0.5, 0.3, 0.7])
        derivative = directional(problem, spec, d)
        lam = 1e-4
        j0 = reduced_cost(problem, spec)
        j1 = reduced_cost(problem,
                          spec.with_coefficients(spec.coefficients + lam * d))
        quotient = (j1 - j0) / lam
        assert derivative == pytest.approx(quotient, rel=1e-2)

class TestOptimize:
    def test_reaches_the_normal_equation_solution(self, affine_problem):
        problem, spec = affine_problem
        solve = affine_solver(problem, spec)
        gram = control_gram(problem.disc, spec, problem.solver)
        oracle = normal_equation_coefficients(problem, spec, solve, gram)

        result = optimize(problem, spec, max_iters=400, tol=1e-9)
        assert result.status == "converged"
        np.testing.assert_allclose(result.spec.coefficients, oracle,
                                   rtol=0.0, atol=1e-6)
        costs = [row[1] for row in result.history]
        assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
        assert result.cost == pytest.approx(
            reduced_cost(problem, spec.with_coefficients(oracle)),
            rel=1e-10)

    def test_returns_immediately_at_a_flat_point(self, affine_problem):
        problem, spec = affine_problem
        solve = affine_solver(problem, spec)
        gram = control_gram(problem.disc, spec, problem.solver)
        oracle = normal_equation_coefficients(problem, spec, solve, gram)
        result = optimize(problem, spec.with_coefficients(oracle),
                          max_iters=10, tol=1e-3)
        assert result.status == "converged"
        assert len(result.history) == 1
        assert result.history[0][3] == 0.0

    def test_exhausted_line_search_reports_stalled(self, affine_problem):
        problem, spec = affine_problem
        result = optimize(problem, spec, max_iters=5,
                          initial_step=1e12, max_halvings=1)
        assert result.status == "stalled"
        np.testing.assert_array_equal(result.spec.coefficients,
                                      spec.coefficients)
        assert result.cost == pytest.approx(reduced_cost(problem, spec),
                                            rel=1e-14)

    def test_stronger_regularization_shrinks_the_control(self,
                                                         affine_problem):
        problem, spec = affine_problem
        gram = control_gram(problem.disc, spec, problem.solver)
        norms = []
        for kappa in (0.01, 1.0):
            scaled = ControlProblem(
                disc=problem.disc, sfun=problem.sfun,
                reaction=problem.reaction, hyst_cfg=problem.hyst_cfg,
                solver=problem.solver, target=problem.target, kappa=kappa)
            result = optimize(scaled, spec, max_iters=600, tol=1e-7)
            assert result.status == "converged"
            c = result.spec.coefficients
            norms.append(np.sqrt(c @ gram @ c))
        assert norms[1] < norms[0]

    def test_rejects_silly_iteration_budget(self, affine_problem):
        problem, spec = affine_problem
        with pytest.raises(InvalidConfigError):
            optimize(problem, spec, max_iters=0)

    @pytest.mark.parametrize("option, value", [
        ("max_iters", 2.5), ("max_iters", True),
        ("tol", math.nan), ("tol", 0.0), ("tol", -1.0), ("tol", math.inf),
    ])
    def test_rejects_a_stopping_rule_the_schema_refuses(self, affine_problem, option, value):
        problem, spec = affine_problem
        with pytest.raises(InvalidConfigError, match=option) as excinfo:
            optimize(problem, spec, **{option: value})
        assert excinfo.value.exit_code == 2

    @pytest.mark.parametrize("option, value", [
        ("initial_step", 0.0), ("initial_step", -1.0), ("initial_step", math.inf),
        ("initial_step", math.nan), ("max_halvings", -3), ("max_halvings", 0),
        ("max_halvings", 2.5), ("armijo_c1", 0.0),
        ("armijo_c1", -1e-4), ("armijo_c1", 1.0), ("armijo_c1", 2.0), ("armijo_c1", math.nan),
    ])
    def test_rejects_a_line_search_the_schema_refuses(self, affine_problem, option, value):
        problem, spec = affine_problem
        with pytest.raises(InvalidConfigError, match=option) as excinfo:
            optimize(problem, spec, **{option: value})
        assert excinfo.value.exit_code == 2


def stability_deviations(problem, spec, perturbed_coefficients):
    """Largest state and stop deviations of each perturbed control from ``spec``,
    and the stop's Lipschitz bound on the first: twice the S operator norm
    times the state deviation."""
    base = _solve(problem, spec)
    state_dev, stop_dev = [], []
    for coeffs in perturbed_coefficients:
        traj = _solve(problem, spec.with_coefficients(coeffs))
        state_dev.append(_path_norms(problem.disc, traj.states - base.states).max())
        stop_dev.append(np.max(np.abs(traj.stop.values - base.stop.values)))
    state_dev, stop_dev = np.array(state_dev), np.array(stop_dev)
    bound = 2.0 * s_operator_norm(problem.sfun.weight, problem.disc.quadrature) * state_dev
    return state_dev, stop_dev, bound


class TestStabilityStudy:
    def test_affine_deviations_scale_linearly(self, affine_problem):
        problem, spec = affine_problem
        base_c = np.array([0.4, -0.2, 0.1, 0.3, -0.5, 0.2])
        at_c = spec.with_coefficients(base_c)
        delta = np.array([1.0, 0.5, -0.3, 0.2, 0.1, -0.4])
        state_dev, stop_dev, bound = stability_deviations(
            problem, at_c, [base_c + 0.1 * delta, base_c + 0.2 * delta])
        assert state_dev[1] == pytest.approx(2.0 * state_dev[0], rel=1e-10)
        assert np.all(stop_dev <= bound + 1e-12 * (1.0 + bound))
        assert np.all(stop_dev <= bound + 1e-10)

    def test_saturating_runs_still_obey_the_bound(self, disc_mixed):
        solver = SolverConfig(dt=0.02, t_final=0.6)
        spec = ControlSpec(mode="distributed", time_knots=2,
                           coefficients=np.array([2.0, -1.0, 1.5, 0.5]),
                           spatial_modes=sine_modes(disc_mixed, 2))
        problem = ControlProblem(
            disc=disc_mixed, sfun=constant_sfun(disc_mixed, 0.6),
            reaction=ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9)),
            hyst_cfg=HysteresisConfig(a=-0.05, b=0.05, z0=0.0),
            solver=solver,
            target=np.zeros((solver.n_steps + 1, 1, disc_mixed.n_nodes)),
            kappa=0.05)
        rng = np.random.default_rng(43)
        perturbed = [spec.coefficients + rng.uniform(-0.5, 0.5, 4)
                     for _ in range(5)]
        state_dev, stop_dev, bound = stability_deviations(problem, spec, perturbed)
        assert np.all(stop_dev <= bound + 1e-12 * (1.0 + bound))
        assert np.all(state_dev > 0)


def count_calls(monkeypatch, name):
    """Count the calls ``stopsim.control`` makes to one of its solve functions."""
    calls = []
    inner = getattr(control_module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(control_module, name, counted)
    return calls


def bundled_problem(name, **blocks):
    """Control problem of a bundled scenario with some top-level blocks replaced."""
    text = resources.files("stopsim").joinpath("scenarios", name + ".json").read_text()
    cfg = {**json.loads(text), **blocks}
    return build_control_problem(load_scenario(cfg, needs=("state", "control")))


def saturating_problem(disc, sfun, solver, target=None, reaction=None):
    """Narrow stop band [-0.05, 0.05] and, unless given, a saturating reaction."""
    return ControlProblem(
        disc=disc, sfun=sfun,
        reaction=reaction or ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9)),
        hyst_cfg=HysteresisConfig(a=-0.05, b=0.05, z0=0.0), solver=solver,
        target=(np.zeros((solver.n_steps + 1, disc.n_components, disc.n_nodes))
                if target is None else target),
        kappa=0.05)


def forward_gradient(problem, spec):
    return np.array([directional(problem, spec, e)
                     for e in np.eye(spec.n_coefficients)])


def census_of(problem, spec):
    base = control_module._solve(problem, spec)
    return branch_census(problem.hyst_cfg, base.stop_offsets, base.s_values)


class TestAdjointGradient:
    """The adjoint sweep against one forward sensitivity solve per coefficient."""

    def assert_matches_forward(self, monkeypatch, problem, spec):
        gram = control_gram(problem.disc, spec, problem.solver)
        base = control_module._solve(problem, spec)
        calls = count_calls(monkeypatch, "solve_sensitivity")
        stepper = _Stepper(problem.disc, problem.solver.dt, problem.sfun)
        grad, linear = _gradient(problem, spec, base, gram, stepper)
        assert linear and calls == []
        expected = forward_gradient(problem, spec)
        assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_saturating_1d_with_many_steps_at_a_bound(self, monkeypatch,
                                                      disc_mixed):
        solver = SolverConfig(dt=0.02, t_final=0.6)
        spec = ControlSpec(mode="distributed", time_knots=2,
                           coefficients=np.array([2.0, -1.0, 1.5, 0.5]),
                           spatial_modes=sine_modes(disc_mixed, 2))
        problem = saturating_problem(disc_mixed, constant_sfun(disc_mixed, 0.6),
                                     solver)
        census = census_of(problem, spec)
        assert census.at_a + census.at_b >= 10 and census.tie == 0
        self.assert_matches_forward(monkeypatch, problem, spec)

    def test_two_components_in_2d(self, monkeypatch):
        disc = assemble(
            DomainSpec(dimension=2, extent=(1.0, 1.5), resolution=(7, 6)),
            [BoundarySides(left="dirichlet", right="neumann",
                           bottom="neumann", top="dirichlet"),
             BoundarySides(left="neumann", right="neumann",
                           bottom="neumann", top="neumann")],
            [1.2, 0.4])
        rng = np.random.default_rng(44)
        modes = rng.uniform(0.0, 1.0, (3, 2, disc.n_nodes))
        sfun = SFunctional(weight=rng.uniform(0.2, 1.0, (2, disc.n_nodes)))
        solver = SolverConfig(dt=0.05, t_final=1.0)
        spec = ControlSpec(mode="distributed", time_knots=2,
                           coefficients=rng.uniform(-2.0, 2.0, 6),
                           spatial_modes=modes)
        target = np.full((solver.n_steps + 1, 2, disc.n_nodes), 0.1)
        problem = saturating_problem(disc, sfun, solver, target=target)
        census = census_of(problem, spec)
        assert census.at_a + census.at_b >= 5 and census.tie == 0
        self.assert_matches_forward(monkeypatch, problem, spec)

    def test_boundary_control(self, monkeypatch, disc_mixed):
        solver = SolverConfig(dt=0.02, t_final=0.6)
        spec = ControlSpec(mode="boundary", time_knots=3,
                           coefficients=np.array([3.0, -2.0, 1.0]))
        problem = saturating_problem(disc_mixed, constant_sfun(disc_mixed, 0.6),
                                     solver, target=np.full((31, 1, 17), 0.2))
        assert census_of(problem, spec).tie == 0
        self.assert_matches_forward(monkeypatch, problem, spec)

    def test_linear_reaction(self, monkeypatch, affine_problem):
        problem, spec = affine_problem
        narrow = ControlProblem(
            disc=problem.disc, sfun=problem.sfun, reaction=problem.reaction,
            hyst_cfg=HysteresisConfig(a=-0.02, b=0.02, z0=0.0),
            solver=problem.solver, target=problem.target, kappa=problem.kappa)
        at_c = spec.with_coefficients(np.array([0.8, -0.3, 0.5, 0.2, -0.4, 0.6]))
        census = census_of(narrow, at_c)
        assert census.at_a + census.at_b > 0 and census.tie == 0
        self.assert_matches_forward(monkeypatch, narrow, at_c)

    def test_logistic_capped_away_from_its_cap(self, monkeypatch, disc_mixed):
        solver = SolverConfig(dt=0.02, t_final=0.6)
        spec = ControlSpec(mode="distributed", time_knots=2,
                           coefficients=np.array([2.0, -1.0, 1.5, 0.5]),
                           spatial_modes=sine_modes(disc_mixed, 2))
        reaction = ReactionFunction("logistic-capped", (0.9, 2.0, 0.3, 0.6))
        problem = saturating_problem(disc_mixed, constant_sfun(disc_mixed, 0.6),
                                     solver, reaction=reaction)
        base = control_module._solve(problem, spec)
        inner = 0.9 * base.states * (1.0 - base.states / 2.0)
        assert np.abs(inner).max() > 0.3  # the clip is active somewhere
        assert reaction.directional_is_linear(base.states)
        self.assert_matches_forward(monkeypatch, problem, spec)

    def test_picard_linear_quadratic(self, monkeypatch):
        problem, spec, _ = bundled_problem(
            "linear_quadratic", solver={"dt": 0.02, "t_final": 1.0,
                                        "scheme": "picard-sliced", "slice_length": 0.1})
        self.assert_matches_forward(monkeypatch, problem, spec)
        sens = count_calls(monkeypatch, "solve_sensitivity")
        result = optimize(problem, spec, max_iters=2)
        assert result.status == "max-iterations" and sens == []

    def test_logistic_capped_at_its_cap_is_not_linear(self):
        reaction = ReactionFunction("logistic-capped", (1.0, 2.0, 0.5, 0.6))
        assert reaction.directional_is_linear(np.array([0.1, 0.5, 3.0]))
        assert not reaction.directional_is_linear(np.array([0.1, 1.0]))
        table = ReactionFunction("user-table", table=([-1.0, 1.0], [-1.0, 1.0], np.zeros((2, 2))))
        assert not table.directional_is_linear(np.zeros(3))


@pytest.fixture
def tie_problem():
    """Every step of the zero-control path is an exact stop tie.

    z0 = b and f(0, b) = 0, so y stays 0 and the carried offset sits on the
    upper moving bound at every step.
    """
    disc = assemble(DomainSpec(dimension=1, extent=(1.0,), resolution=(41,)),
                    [BoundarySides(left="dirichlet", right="neumann")], [0.8])
    solver = SolverConfig(dt=0.01, t_final=1.0)
    spec = ControlSpec(mode="distributed", time_knots=4,
                       coefficients=np.zeros(12),
                       spatial_modes=sine_modes(disc, 3))
    reaction = ReactionFunction("linear", (-0.015, -0.5, 0.3))
    hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.05)
    c_target = np.array([0.5, -0.4, 0.3, 0.2, 0.6, -0.2,
                         -0.5, 0.1, 0.4, 0.3, -0.3, 0.2])
    u_target = apply_B(disc, spec.with_coefficients(c_target), solver)
    sfun = constant_sfun(disc, 0.6)
    target = solve_state(disc, sfun, reaction, hyst, u_target, solver).states
    problem = ControlProblem(disc=disc, sfun=sfun, reaction=reaction,
                             hyst_cfg=hyst, solver=solver, target=target,
                             kappa=1e-3)
    return problem, spec


class TestGradientPath:
    def test_exact_ties_take_the_forward_path(self, monkeypatch, tie_problem):
        problem, spec = tie_problem
        assert census_of(problem, spec).tie == 100
        plus = forward_gradient(problem, spec)
        minus = np.array([directional(problem, spec, -e)
                          for e in np.eye(12)])
        assert np.max(np.abs(plus + minus)) > 1e-5  # J'(c; .) is not linear here
        calls = count_calls(monkeypatch, "solve_sensitivity")
        result = optimize(problem, spec, max_iters=1)
        assert result.history[0][2] == np.max(np.abs(plus))
        assert len(calls) == 12 + 1  # coordinates, then the candidate

    def test_bundled_linear_quadratic_runs_no_sensitivity_solve(self,
                                                                 monkeypatch):
        problem, spec, opts = bundled_problem("linear_quadratic")
        sens = count_calls(monkeypatch, "solve_sensitivity")
        states = count_calls(monkeypatch, "solve_state")
        result = optimize(problem, spec, **opts)
        assert result.status == "converged"
        assert len(result.history) == 24
        assert sens == []
        # one base solve, then one per line-search trial: each iteration
        # starts at twice the last accepted step and halves down to its own,
        # and the accepted trial is the next iteration's base
        trials, start = 0, opts["initial_step"]
        for _, _, _, t in result.history[:-1]:
            trials += 1 + round(np.log2(start / t))
            start = 2.0 * t
        assert len(states) == 1 + trials

    def test_picard_linear_quadratic_converges_on_the_adjoint(self, monkeypatch):
        # the sensitivity is the direct march along the Picard base, so the
        # adjoint serves it and the run converges where the direct one does
        direct, spec, opts = bundled_problem("linear_quadratic")
        problem, _, _ = bundled_problem(
            "linear_quadratic", solver={"dt": 0.02, "t_final": 1.0,
                                        "scheme": "picard-sliced", "slice_length": 0.2})
        reference = optimize(direct, spec, **opts)
        sens = count_calls(monkeypatch, "solve_sensitivity")
        result = optimize(problem, spec, **opts)
        assert result.status == "converged" and sens == []
        assert len(result.history) == len(reference.history) == 24
        np.testing.assert_allclose(result.spec.coefficients, reference.spec.coefficients,
                                   rtol=0.0, atol=1e-12)
        assert reduced_cost(direct, result.spec) == pytest.approx(reference.cost, rel=1e-12)
        # the Picard cost itself carries the state sweeps' tolerance (1e-10)
        assert result.cost == pytest.approx(reference.cost, rel=1e-11)

    def test_tables_take_the_forward_path(self, monkeypatch):
        problem, spec, _ = bundled_problem("saturating", **{
            "reaction": {"kind": "user-table",
                         "y_grid": [-4.0, -1.0, 0.0, 1.0, 4.0],
                         "z_grid": [-0.05, 0.0, 0.05],
                         "values": [[2.5, 2.6, 2.7], [0.7, 0.8, 0.9],
                                    [-0.1, 0.0, 0.1], [-0.9, -0.8, -0.7],
                                    [-2.7, -2.6, -2.5]]},
            "source": {"kind": "zero"},
            "control": {"mode": "distributed", "time_knots": 3,
                        "spatial_modes": {"kind": "sine", "count": 2},
                        "kappa": 0.01,
                        "target": {"kind": "constant", "value": 0.3}}})
        n = spec.n_coefficients
        first = np.max(np.abs(forward_gradient(problem, spec)))
        sens = count_calls(monkeypatch, "solve_sensitivity")
        result = optimize(problem, spec, max_iters=2)
        assert result.status == "max-iterations"
        assert len(sens) == 2 * (n + 1)
        assert result.history[0][2] == first


def linear_quadratic(resolution=31, dt=0.02, clamping=False, picard=False):
    """``linear_quadratic`` on ``resolution`` nodes with step ``dt``; its
    clamping copy has stop band [-0.02, 0.02] and target coefficients times
    20, its Picard copy slices of length 0.2."""
    cfg = bundled_config("linear_quadratic")
    cfg["domain"]["resolution"] = [resolution]
    cfg["solver"]["dt"] = dt
    if picard:
        cfg["solver"].update(scheme="picard-sliced", slice_length=0.2)
    if clamping:
        cfg["hysteresis"].update(a=-0.02, b=0.02)
        target = cfg["control"]["target"]
        target["coefficients"] = [20.0 * c for c in target["coefficients"]]
    return build_control_problem(load_scenario(cfg, needs=("state", "control")))


@pytest.mark.parametrize("clamping, picard", [(False, False), (True, False), (False, True)],
                         ids=["imex", "imex-clamping", "picard"])
def test_discrete_optima_converge_at_first_order_in_dt(clamping, picard):
    # J* at dt, dt/2, dt/4 and dt/8: the gaps between neighbours halve
    # (observed orders 1.09-1.16) and so do the coefficient differences (in
    # norm, ratios 0.51-0.53); the bounds are order 0.9 and ratio 0.6.  The
    # Picard copy of the clamping row stalls (``TestStalledClampingRows``).
    results = []
    for k in range(4):
        problem, spec, opts = linear_quadratic(dt=0.02 / 2**k, clamping=clamping, picard=picard)
        results.append(optimize(problem, spec, **opts))
    assert all(r.status == "converged" for r in results)
    gaps = -np.diff([r.cost for r in results])
    assert np.all(gaps > 0) and np.all(np.log2(gaps[:-1] / gaps[1:]) >= 0.9)
    steps = np.linalg.norm(np.diff([r.spec.coefficients for r in results], axis=0), axis=1)
    assert np.all(steps[1:] <= 0.6 * steps[:-1])


def accepted_costs(problem, spec, result):
    """J at ``spec`` followed by J after each accepted step of ``result``."""
    return [reduced_cost(problem, spec)] + [row[1] for row in result.history if row[3] > 0.0]


def test_a_null_step_ends_the_line_search():
    # at t = 1e-300 the trial's J rounds to the base's, so the first trial
    # is a null step: the run stops there instead of "accepting" it
    problem, spec, opts = linear_quadratic()
    opts.update(max_iters=5, initial_step=1e-300)
    result = optimize(problem, spec, **opts)
    j0 = reduced_cost(problem, spec)
    grad, _ = _gradient(problem, spec, _solve(problem, spec),
                        control_gram(problem.disc, spec, problem.solver),
                        _Stepper(problem.disc, problem.solver.dt, problem.sfun))
    assert result.status == "stalled"
    assert result.history == [(0, j0, float(np.max(np.abs(grad))), 0.0)]
    np.testing.assert_array_equal(result.spec.coefficients, spec.coefficients)
    assert result.cost == j0


@pytest.mark.parametrize("clamping", [False, True], ids=["bundled", "clamping"])
def test_discrete_optima_converge_at_second_order_in_h(clamping):
    # J* on 31, 61 and 121 nodes at dt 0.02: the gap to the next refinement
    # shrinks about 4x per halving (observed order 2.0014 on both rows); the
    # bound is order 1.8.  The clamping row at 121 nodes stops at float64's
    # floor just above its tol (``TestStalledClampingRows``).
    results = []
    for resolution in (31, 61, 121):
        problem, spec, opts = linear_quadratic(resolution, clamping=clamping)
        result = optimize(problem, spec, **opts)
        assert result.status in ("converged", "stalled") and result.history[-1][2] <= 3e-9
        costs = accepted_costs(problem, spec, result)
        assert all(b < a for a, b in zip(costs, costs[1:]))
        results.append(result)
    gaps = -np.diff([r.cost for r in results])
    assert np.all(gaps > 0) and np.log2(gaps[0] / gaps[1]) >= 1.8


class TestStalledClampingRows:
    """The clamping copy of ``linear_quadratic`` (see ``linear_quadratic``) as
    it stands under refinement.  It converges at the bundled grid; at h/4,
    and at h/2 with dt/2, it stalls just above its tol of 1e-9, where the
    next trial leaves J as it was (a null step).  Its Picard copy stalls at
    the bundled grid too, where the direct copy converges."""

    @staticmethod
    def clamping(resolution=31, dt=0.02, picard=False):
        return linear_quadratic(resolution, dt, clamping=True, picard=picard)

    def test_the_bundled_grid_converges(self):
        problem, spec, opts = self.clamping()
        result = optimize(problem, spec, **opts)
        assert result.status == "converged" and len(result.history) == 26

    @pytest.mark.parametrize("resolution, dt, picard, rows, grad_inf, cost", [
        (121, 0.02, False, 27, 1.2524e-9, 0.18480058663838092),
        (61, 0.01, False, 28, 2.3581e-9, 0.18373502619919907),
        (31, 0.02, True, 28, 1.2608e-9, 0.18507913432809425),
    ], ids=["h/4", "h/2-dt/2", "picard"])
    def test_a_refined_grid_stalls_above_tol(self, resolution, dt, picard, rows, grad_inf, cost):
        problem, spec, opts = self.clamping(resolution, dt, picard)
        result = optimize(problem, spec, **opts)
        assert result.status == "stalled" and len(result.history) == rows
        last = result.history[-1]
        assert last[3] == 0.0 and last[2] > opts["tol"]
        assert last[2] == pytest.approx(grad_inf, rel=1e-4)
        assert result.cost == last[1] == pytest.approx(cost, rel=1e-12)
        costs = accepted_costs(problem, spec, result)
        assert all(b < a for a, b in zip(costs, costs[1:]))
