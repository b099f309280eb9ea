import re

import numpy as np
import pytest

from stopsim import (
    BlowupError,
    GridMismatchError,
    HysteresisConfig,
    InvalidConfigError,
    NonContractionError,
    NonsmoothPointError,
    ReactionFunction,
    SolverConfig,
    StopCursor,
    boundedness_report,
    evaluate_S,
    load_scenario,
    picard_slice_iterate,
    quad_norm,
    solve_state,
)

from stopsim.evolution import _WINDOW_BYTES, BLOWUP_GUARD, _state_rules
from stopsim.spatial import _path_norms, _Stepper

from conftest import STREAMED_SCENARIOS, box_41, constant_sfun, traced_peak
from oracles import (
    clip_directional_reference,
    generator_dense_1d,
    imex_reference_1d,
    quad_weights_1d,
)


def zero_source(disc, solver):
    return np.zeros((solver.n_steps + 1, disc.n_components, disc.n_nodes))


def sine_source(disc, solver, amplitude=2.0, omega=4.0):
    x = disc.coords[:, 0]
    profile = np.sin(np.pi * x)
    t = solver.times()
    u = amplitude * np.sin(omega * t)[:, None, None] * profile[None, None, :]
    return u


class TestReactionCatalog:
    def test_linear_value_and_derivative(self):
        f = ReactionFunction("linear", (0.3, -0.5, 0.8))
        y = np.array([0.0, 1.0, -2.0])
        np.testing.assert_allclose(f.value(y, 0.5),
                                   0.3 - 0.5 * y + 0.8 * 0.5, rtol=1e-15)
        np.testing.assert_allclose(f.directional(y, 0.5, y, -1.0),
                                   -0.5 * y - 0.8, rtol=1e-15)
        assert f.derivative_is_exact

    def test_saturating_value_and_directional_vs_quotient(self):
        f = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        rng = np.random.default_rng(30)
        y = rng.uniform(-2, 2, 50)
        z, dy, dz = 0.4, rng.uniform(-1, 1, 50), -0.6
        np.testing.assert_allclose(
            f.value(y, z),
            -0.7 * np.tanh(1.1 * y) + 0.8 * np.tanh(0.9 * z), rtol=1e-15)
        eps = 1e-6
        quot = (f.value(y + eps * dy, z + eps * dz)
                - f.value(y - eps * dy, z - eps * dz)) / (2 * eps)
        np.testing.assert_allclose(f.directional(y, z, dy, dz), quot,
                                   rtol=1e-6, atol=1e-9)

    def test_logistic_capped_value_matches_clip(self):
        f = ReactionFunction("logistic-capped", (4.0, 2.0, 1.5, 0.6))
        rng = np.random.default_rng(31)
        y = rng.uniform(-1, 3, 100)
        inner = 4.0 * y * (1.0 - y / 2.0)
        np.testing.assert_allclose(f.value(y, 0.25),
                                   np.clip(inner, -1.5, 1.5) + 0.6 * 0.25,
                                   rtol=1e-14)

    def test_logistic_capped_one_sided_at_the_cap(self):
        # at y = 0.5 the uncapped value is exactly 1.5 = cap and its slope
        # along +y is 2, so the one-sided rule keeps only the inward move
        f = ReactionFunction("logistic-capped", (4.0, 2.0, 1.5, 0.6))
        y = np.array([0.5])
        up = f.directional(y, 0.0, np.array([1.0]), 0.0)
        down = f.directional(y, 0.0, np.array([-1.0]), 0.0)
        np.testing.assert_array_equal(up, [0.0])
        np.testing.assert_array_equal(down, [-2.0])
        with_z = f.directional(y, 0.0, np.array([1.0]), 2.0)
        np.testing.assert_allclose(with_z, [0.6 * 2.0], rtol=1e-15)

    def test_table_reproduces_affine_data(self):
        yg = np.linspace(-2.0, 2.0, 5)
        zg = np.linspace(-1.0, 1.0, 3)
        vals = 2.0 * yg[:, None] - zg[None, :] + 3.0
        f = ReactionFunction("user-table", table=(yg, zg, vals))
        assert not f.derivative_is_exact
        rng = np.random.default_rng(32)
        y = rng.uniform(-1.9, 1.9, 40)
        z = 0.37
        np.testing.assert_allclose(f.value(y, z), 2.0 * y - z + 3.0,
                                   rtol=1e-12)
        d = f.directional(y, z, np.ones_like(y), -1.0)
        np.testing.assert_allclose(d, np.full_like(y, 3.0), atol=1e-8)

    def test_table_rejects_probes_outside_domain(self):
        yg = np.linspace(-1.0, 1.0, 3)
        zg = np.linspace(-1.0, 1.0, 3)
        f = ReactionFunction("user-table", table=(yg, zg, np.zeros((3, 3))))
        with pytest.raises(NonsmoothPointError):
            f.value(np.array([1.5]), 0.0)
        with pytest.raises(NonsmoothPointError):
            f.directional(np.array([1.0 - 1e-9]), 0.0, np.array([1.0]), 0.0)

    def test_every_kind_compares_and_hashes_by_value(self):
        yg, zg, vals = np.linspace(-1.0, 1.0, 3), np.array([0.0, 1.0]), np.arange(6.0).reshape(3, 2)
        table = ReactionFunction("user-table", table=(yg, zg, vals))
        same = ReactionFunction("user-table", table=(list(yg), list(zg), vals.tolist()))
        assert table == same and hash(table) == hash(same)
        assert table != ReactionFunction("user-table", table=(yg, zg, vals + 1.0))
        kinds = [("linear", (0.0, -0.5, 0.3)), ("saturating", (-0.7, 1.1, 0.8, 0.9)),
                 ("logistic-capped", (1.0, 2.0, 0.5, 0.1))]
        catalog = [ReactionFunction(kind, params) for kind, params in kinds]
        for f, (kind, params) in zip(catalog, kinds):
            again = ReactionFunction(kind, list(params))
            assert f == again and hash(f) == hash(again) and f != table
        assert len({table, same, *catalog}) == 4

    @pytest.mark.parametrize("kind, params, table, message", [
        ("user-table", (), ([0.0, 1.0], [0.0, 1.0]), "table: expected (y_grid, z_grid, values)"),
        ("user-table", (), ([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), [1.0]),
         "table: expected (y_grid, z_grid, values)"),
        ("user-table", (), None, "table: expected (y_grid, z_grid, values)"),
        ("linear", (0.0, 0.5, 0.3), ([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2))),
         "table: a linear reaction takes none"),
        ("linear", 5, None, "params: expected a sequence of numbers"),
    ], ids=["two-arrays", "four-arrays", "no-table", "table-on-linear", "scalar-params"])
    def test_malformed_arguments_name_the_parameter(self, kind, params, table, message):
        with pytest.raises(InvalidConfigError) as info:
            ReactionFunction(kind, params, table)
        assert str(info.value) == message

    def test_construction_validation(self):
        with pytest.raises(InvalidConfigError):
            ReactionFunction("weird", (1.0,))
        with pytest.raises(InvalidConfigError):
            ReactionFunction("linear", (1.0,))
        with pytest.raises(InvalidConfigError):
            ReactionFunction("logistic-capped", (1.0, -2.0, 1.0, 0.0))
        with pytest.raises(InvalidConfigError):
            ReactionFunction("user-table", table=([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0]]))
        with pytest.raises(InvalidConfigError):
            ReactionFunction("user-table", table=([0.0, 0.0], [0.0, 1.0], np.zeros((2, 2))))


def zero_d_value(f, y, z):
    """``ReactionFunction.value`` with the z-part on 0-d arrays, as it was."""
    p = f.params
    if f.kind == "linear":
        return p[0] + p[1] * y + p[2] * np.asarray(z)
    if f.kind == "saturating":
        return p[0] * np.tanh(p[1] * y) + p[2] * np.tanh(p[3] * np.asarray(z))
    return np.clip(p[0] * y * (1.0 - y / p[1]), -p[2], p[2]) + p[3] * np.asarray(z)


def zero_d_directional(f, y, z, dy, dz):
    """``ReactionFunction.directional`` with the z-part on 0-d arrays, as it was."""
    p = f.params
    if f.kind == "linear":
        return p[1] * dy + p[2] * np.asarray(dz)
    if f.kind == "saturating":
        ty, tz = np.tanh(p[1] * y), np.tanh(p[3] * np.asarray(z))
        return (p[0] * p[1] * (1.0 - ty * ty) * dy
                + p[2] * p[3] * (1.0 - tz * tz) * np.asarray(dz))
    inner = p[0] * y * (1.0 - y / p[1])
    d_inner = p[0] * (1.0 - 2.0 * y / p[1]) * dy
    return clip_directional_reference(inner, p[2], d_inner) + p[3] * np.asarray(dz)


class TestReactionZPart:
    """The z-part evaluated once as a numpy scalar gives the 0-d array results."""

    @pytest.mark.parametrize("f", [
        ReactionFunction("linear", (0.3, -0.5, 0.8)),
        ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9)),
        ReactionFunction("logistic-capped", (4.0, 2.0, 1.5, 0.6)),
    ], ids=lambda f: f.kind)
    def test_bitwise_equal_to_zero_d_arrays(self, f):
        rng = np.random.default_rng(36)
        for _ in range(50):
            y, dy = rng.uniform(-3, 3, (2, 1, 41))
            z, dz = rng.uniform(-3, 3, 2)
            for zz, dzz in ((z, dz), (np.float64(z), np.float64(dz)),
                            (np.asarray(z), np.asarray(dz))):
                value = f.value(y, zz)
                directional = f.directional(y, zz, dy, dzz)
                assert value.shape == directional.shape == y.shape
                np.testing.assert_array_equal(value, zero_d_value(f, y, z))
                np.testing.assert_array_equal(
                    directional, zero_d_directional(f, y, z, dy, dz))
            zs = rng.uniform(-3, 3, (7, 1, 1))  # broadcast over a step axis
            ys = np.broadcast_to(y, (7, 1, 41))
            np.testing.assert_array_equal(f.value(ys, zs), zero_d_value(f, ys, zs))
            np.testing.assert_array_equal(f.directional(ys, zs, 1.0, 0.0),
                                          zero_d_directional(f, ys, zs, 1.0, 0.0))


class TestSolverConfig:
    def test_step_counts_and_times(self):
        solver = SolverConfig(dt=0.25, t_final=2.0)
        assert solver.n_steps == 8
        assert solver.slice_steps == 8
        np.testing.assert_allclose(solver.times(), 0.25 * np.arange(9),
                                   rtol=1e-15)
        sliced = SolverConfig(dt=0.25, t_final=2.0, scheme="picard-sliced",
                              slice_length=0.75)
        assert sliced.slice_steps == 3

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.1, t_final=1.0, scheme="rk4")
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.0, t_final=1.0)
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.3, t_final=0.2)
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.3, t_final=1.0)
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.1, t_final=1.0, slice_length=0.25)
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.1, t_final=1.0, picard_tol=0.0)
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.1, t_final=1.0, picard_max_iters=0)

    @pytest.mark.parametrize("dt", [5e-324, 1e-300, 1.2 / (2**53 + 2)])
    def test_a_step_count_past_2_53_names_dt_and_t_final(self, dt):
        with pytest.raises(InvalidConfigError, match=rf"t_final=1.2 / dt={dt} is .* over 2\*\*53"):
            SolverConfig(dt=dt, t_final=1.2)
        assert SolverConfig(dt=1.0 / 2**50, t_final=1.0).n_steps == 2**50

    @pytest.mark.parametrize("field, value", [
        ("picard_tol", float("nan")),
        ("picard_tol", float("inf")),
        ("picard_tol", -1e-10),
        ("picard_tol", "1e-10"),
        ("picard_max_iters", 2.5),
        ("picard_max_iters", 3.0),
        ("picard_max_iters", True),
        ("picard_max_iters", "10"),
        ("slice_length", 1e-300),  # rounds to zero steps within the slack
    ])
    def test_picard_settings_are_validated(self, field, value):
        with pytest.raises(InvalidConfigError):
            SolverConfig(dt=0.1, t_final=1.0, scheme="picard-sliced",
                         **{field: value})


class TestStateSolve:
    def test_zero_data_stays_exactly_zero(self, disc_mixed, hyst_cfg,
                                          solver_short):
        reaction = ReactionFunction("linear", (0.0, 0.0, 0.0))
        traj = solve_state(disc_mixed, constant_sfun(disc_mixed), reaction,
                           hyst_cfg, zero_source(disc_mixed, solver_short),
                           solver_short)
        np.testing.assert_array_equal(traj.states,
                                      np.zeros_like(traj.states))
        np.testing.assert_array_equal(traj.stop.values,
                                      np.zeros(solver_short.n_steps + 1))
        np.testing.assert_array_equal(traj.s_values,
                                      np.zeros(solver_short.n_steps + 1))

    def test_converges_to_discrete_steady_state(self, disc_dirichlet,
                                                hyst_cfg):
        solver = SolverConfig(dt=0.05, t_final=3.0)
        x = disc_dirichlet.coords[:, 0]
        profile = np.sin(np.pi * x) + 0.3 * x
        u = np.broadcast_to(
            profile, (solver.n_steps + 1, 1, x.size)).copy()
        reaction = ReactionFunction("linear", (0.0, 0.0, 0.0))
        traj = solve_state(disc_dirichlet, constant_sfun(disc_dirichlet),
                           reaction, hyst_cfg, u, solver)
        A, active = generator_dense_1d(21, 1.0, 1.0, "dirichlet", "dirichlet")
        steady = np.zeros(x.size)
        steady[active] = np.linalg.solve(A, profile[active])
        np.testing.assert_allclose(traj.states[-1, 0], steady,
                                   rtol=0.0, atol=1e-8)

    def test_matches_dense_coupled_reference(self, disc_mixed,
                                             saturating_reaction):
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc_mixed, 0.6)
        solver = SolverConfig(dt=0.02, t_final=1.0)
        u = sine_source(disc_mixed, solver)
        traj = solve_state(disc_mixed, sfun, saturating_reaction, hyst, u,
                           solver)

        A, active = generator_dense_1d(17, 1.0, 0.8, "dirichlet", "neumann")
        states, stops = imex_reference_1d(
            A, active, quad_weights_1d(17, 1.0),
            np.full(17, 0.6), saturating_reaction.value, u[:, 0],
            solver.dt, solver.n_steps, hyst.a, hyst.b, hyst.z0)
        np.testing.assert_allclose(traj.states[:, 0], states,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(traj.stop.values, stops,
                                   rtol=0.0, atol=1e-12)
        # the reference drives the band; make sure the case is not trivial
        assert np.abs(stops).max() == 0.05

    def test_trajectory_bookkeeping(self, disc_mixed, saturating_reaction):
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc_mixed, 0.6)
        solver = SolverConfig(dt=0.02, t_final=0.5)
        traj = solve_state(disc_mixed, sfun, saturating_reaction, hyst,
                           sine_source(disc_mixed, solver), solver)
        np.testing.assert_array_equal(traj.times, solver.times())
        np.testing.assert_array_equal(traj.stop.times, solver.times())
        for k in range(solver.n_steps + 1):
            assert traj.s_values[k] == evaluate_S(disc_mixed, sfun,
                                                  traj.states[k])
        np.testing.assert_array_equal(traj.stop_offsets,
                                      traj.stop.values - traj.s_values)
        assert traj.stop.values.min() >= hyst.a
        assert traj.stop.values.max() <= hyst.b
        # Dirichlet end stays pinned
        np.testing.assert_array_equal(traj.states[:, 0, 0],
                                      np.zeros(solver.n_steps + 1))

    def test_runs_are_deterministic(self, disc_mixed, hyst_cfg,
                                    linear_reaction, solver_short):
        u = sine_source(disc_mixed, solver_short)
        sfun = constant_sfun(disc_mixed)
        a = solve_state(disc_mixed, sfun, linear_reaction, hyst_cfg, u,
                        solver_short)
        b = solve_state(disc_mixed, sfun, linear_reaction, hyst_cfg, u,
                        solver_short)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.stop.values, b.stop.values)

    def test_truncated_run_is_a_bitwise_prefix(self, disc_mixed, hyst_cfg,
                                               linear_reaction):
        long = SolverConfig(dt=0.02, t_final=1.0)
        short = SolverConfig(dt=0.02, t_final=0.6)
        u = sine_source(disc_mixed, long)
        sfun = constant_sfun(disc_mixed)
        full = solve_state(disc_mixed, sfun, linear_reaction, hyst_cfg, u,
                           long)
        part = solve_state(disc_mixed, sfun, linear_reaction, hyst_cfg,
                           u[:short.n_steps + 1], short)
        np.testing.assert_array_equal(part.states,
                                      full.states[:short.n_steps + 1])
        np.testing.assert_array_equal(part.stop.values,
                                      full.stop.values[:short.n_steps + 1])

    def test_source_shape_is_checked(self, disc_mixed, hyst_cfg,
                                     linear_reaction, solver_short):
        with pytest.raises(GridMismatchError):
            solve_state(disc_mixed, constant_sfun(disc_mixed),
                        linear_reaction, hyst_cfg,
                        np.zeros((3, 1, disc_mixed.n_nodes)), solver_short)

    def test_guard_admits_the_bound_and_refuses_beyond_it(self, disc_mixed,
                                                          hyst_cfg,
                                                          linear_reaction):
        stepper = _Stepper(disc_mixed, 0.1, constant_sfun(disc_mixed))
        u = np.zeros((4, 1, disc_mixed.n_nodes))
        _, advance, _ = _state_rules(stepper, linear_reaction,
                                     StopCursor(hyst_cfg, 0.0), u)
        y = np.zeros((1, disc_mixed.n_nodes))
        y[0, 5], y[0, 6] = BLOWUP_GUARD, -BLOWUP_GUARD
        advance(1, y)
        beyond = np.nextafter(BLOWUP_GUARD, np.inf)
        for bad in (beyond, -beyond, np.nan, np.inf):
            z = y.copy()
            z[0, 7] = bad
            with pytest.raises(BlowupError, match=re.escape(
                    "state blew up at step 2 (t=0.2): magnitude ")):
                advance(2, z)

    def test_blowup_raises(self, disc_mixed, hyst_cfg):
        reaction = ReactionFunction("linear", (0.0, 50.0, 0.0))
        solver = SolverConfig(dt=0.1, t_final=5.0)
        u = np.ones((solver.n_steps + 1, 1, disc_mixed.n_nodes))
        with pytest.raises(BlowupError):
            solve_state(disc_mixed, constant_sfun(disc_mixed), reaction,
                        hyst_cfg, u, solver)


class TestConvergenceSmoke:
    def test_temporal_order_is_near_one(self, hyst_cfg):
        from stopsim import BoundarySides, DomainSpec, assemble
        disc = assemble(
            DomainSpec(dimension=1, extent=(1.0,), resolution=(21,)),
            [BoundarySides(left="dirichlet", right="dirichlet")],
            [1.0],
        )
        wide = HysteresisConfig(a=-5.0, b=5.0, z0=0.0)
        reaction = ReactionFunction("linear", (0.5, -1.0, 0.8))
        sfun = constant_sfun(disc)
        x = disc.coords[:, 0]
        profile = x * (1.0 - x)

        def run(dt):
            solver = SolverConfig(dt=dt, t_final=0.4)
            t = solver.times()
            u = 2.0 * np.sin(1.3 * t + 0.4)[:, None, None] \
                * profile[None, None, :]
            return solve_state(disc, sfun, reaction, wide, u, solver)

        finals = [run(dt).states[-1] for dt in (0.04, 0.02, 0.01, 0.005)]
        errs = [quad_norm(disc, finals[i] - finals[i + 1])
                for i in range(3)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 0.85

    def test_spatial_order_is_near_two(self, hyst_cfg):
        from stopsim import BoundarySides, DomainSpec, assemble
        reaction = ReactionFunction("linear", (0.0, 0.0, 0.0))
        errs = []
        for n in (11, 21, 41):
            disc = assemble(
                DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
                [BoundarySides(left="dirichlet", right="dirichlet")],
                [1.0],
            )
            solver = SolverConfig(dt=0.05, t_final=3.0)
            x = disc.coords[:, 0]
            u = np.broadcast_to(np.pi**2 * np.sin(np.pi * x),
                                (solver.n_steps + 1, 1, n)).copy()
            traj = solve_state(disc, constant_sfun(disc), reaction, hyst_cfg,
                               u, solver)
            errs.append(np.abs(traj.states[-1, 0] - np.sin(np.pi * x)).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.8


class TestPicardScheme:
    def scenario(self, disc):
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        return hyst, sfun, reaction

    def test_fixed_point_matches_direct_scheme(self, disc_mixed):
        hyst, sfun, reaction = self.scenario(disc_mixed)
        direct = SolverConfig(dt=0.02, t_final=1.0)
        sliced = SolverConfig(dt=0.02, t_final=1.0, scheme="picard-sliced",
                              slice_length=0.1, picard_tol=1e-13)
        u = sine_source(disc_mixed, direct)
        a = solve_state(disc_mixed, sfun, reaction, hyst, u, direct)
        b = solve_state(disc_mixed, sfun, reaction, hyst, u, sliced)
        np.testing.assert_allclose(b.states, a.states, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(b.stop.values, a.stop.values,
                                   rtol=0.0, atol=1e-9)
        assert len(b.picard_iterations) == 10
        assert all(sweeps >= 1 for sweeps in b.picard_iterations)
        assert a.picard_iterations == []

    def test_uneven_tail_slice_is_handled(self, disc_mixed):
        hyst, sfun, reaction = self.scenario(disc_mixed)
        direct = SolverConfig(dt=0.05, t_final=0.35)
        sliced = SolverConfig(dt=0.05, t_final=0.35, scheme="picard-sliced",
                              slice_length=0.2, picard_tol=1e-13)
        u = sine_source(disc_mixed, direct)
        a = solve_state(disc_mixed, sfun, reaction, hyst, u, direct)
        b = solve_state(disc_mixed, sfun, reaction, hyst, u, sliced)
        np.testing.assert_allclose(b.states, a.states, rtol=0.0, atol=1e-9)
        assert len(b.picard_iterations) == 2

    def test_sweeps_contract_and_shorter_slices_contract_faster(
            self, disc_mixed):
        hyst = HysteresisConfig(a=-0.5, b=0.5, z0=0.0)
        sfun = constant_sfun(disc_mixed, 0.6)
        reaction = ReactionFunction("linear", (0.0, -3.0, 0.5))
        dt = 0.02
        u = sine_source(disc_mixed, SolverConfig(dt=dt, t_final=1.0))

        def slice_ratios(ns):
            cursor = StopCursor(hyst, 0.0)
            y0 = np.zeros((1, disc_mixed.n_nodes))
            *_, ratios = picard_slice_iterate(
                disc_mixed, sfun, reaction, cursor, y0, u[:ns + 1],
                dt, 1e-13, 60)
            return ratios

        long_ratios = slice_ratios(25)
        short_ratios = slice_ratios(5)
        assert long_ratios and short_ratios
        assert max(long_ratios) < 1.0
        assert max(short_ratios) < max(long_ratios)

    def test_whole_interval_slice_holds_one_second_path(self):
        disc = box_41()
        hyst, sfun, reaction = self.scenario(disc)
        solver = SolverConfig(dt=0.005, t_final=1.0, scheme="picard-sliced")
        u = sine_source(disc, solver)
        traj, peak = traced_peak(
            lambda: solve_state(disc, sfun, reaction, hyst, u, solver))
        assert len(traj.picard_iterations) == 1
        # the path, the sweeps' previous iterate and per-step temporaries
        assert peak <= 2.5 * traj.states.nbytes

    def test_blowup_in_a_later_slice_names_the_absolute_step(
            self, disc_mixed, hyst_cfg):
        reaction = ReactionFunction("linear", (0.0, 24.0, 0.0))
        solver = SolverConfig(dt=0.05, t_final=3.0, scheme="picard-sliced",
                              slice_length=0.5)
        u = np.ones((solver.n_steps + 1, 1, disc_mixed.n_nodes))
        with pytest.raises(BlowupError) as excinfo:
            solve_state(disc_mixed, constant_sfun(disc_mixed), reaction,
                        hyst_cfg, u, solver)
        message = str(excinfo.value)
        match = re.match(r"state blew up at step (\d+) \(t=([^)]*)\)", message)
        step = int(match.group(1))
        assert 40 < step <= 50  # inside the fifth ten-step slice
        assert match.group(2) == f"{step * solver.dt:.6g}"
        assert "slice" not in message

    def test_non_contraction_raises(self, disc_mixed, hyst_cfg):
        reaction = ReactionFunction("linear", (0.0, 50.0, 0.0))
        solver = SolverConfig(dt=0.05, t_final=1.0, scheme="picard-sliced",
                              picard_tol=1e-12, picard_max_iters=3)
        u = np.ones((solver.n_steps + 1, 1, disc_mixed.n_nodes))
        with pytest.raises(NonContractionError):
            solve_state(disc_mixed, constant_sfun(disc_mixed), reaction,
                        hyst_cfg, u, solver)


def solve_scenario(cfg, keep_states=True):
    scn = load_scenario(cfg)
    traj = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                       scn.source, scn.solver, keep_states=keep_states)
    return scn, traj


class TestStreamedSolve:
    """A solve that keeps no path reports every per-step channel bitwise."""

    @pytest.mark.parametrize("name", list(STREAMED_SCENARIOS))
    def test_norms_are_the_path_norms_kept_or_not(self, name):
        scn, kept = solve_scenario(STREAMED_SCENARIOS[name])
        _, streamed = solve_scenario(STREAMED_SCENARIOS[name], keep_states=False)
        np.testing.assert_array_equal(kept.norms, _path_norms(scn.disc, kept.states))
        for channel in ("norms", "s_values", "stop_offsets"):
            np.testing.assert_array_equal(getattr(streamed, channel), getattr(kept, channel))
        np.testing.assert_array_equal(streamed.stop.values, kept.stop.values)
        assert streamed.picard_iterations == kept.picard_iterations
        assert streamed.states.shape == kept.states.shape

    @pytest.mark.parametrize("scheme", [{}, {"scheme": "picard-sliced", "slice_length": 0.5}],
                             ids=["direct", "picard"])
    def test_a_blowup_in_a_later_window_names_the_kept_runs_step(self, scheme):
        disc = box_41()
        hyst = HysteresisConfig(a=-1.0, b=1.0, z0=0.0)
        reaction = ReactionFunction("linear", (0.0, 24.0, 0.0))
        solver = SolverConfig(dt=0.05, t_final=3.0, **scheme)
        u = np.ones((solver.n_steps + 1, 1, disc.n_nodes))
        messages = []
        for keep in (True, False):
            with pytest.raises(BlowupError) as excinfo:
                solve_state(disc, constant_sfun(disc), reaction, hyst, u, solver, keep)
            messages.append(str(excinfo.value))
        assert messages[1] == messages[0]
        step = int(re.match(r"state blew up at step (\d+) ", messages[0]).group(1))
        assert step > _WINDOW_BYTES // disc.n_nodes // 8  # past the first streamed window

    def test_a_trajectory_without_a_path_refuses_reads_by_name(self):
        _, traj = solve_scenario(STREAMED_SCENARIOS["saturating"], keep_states=False)
        for read in (lambda: traj.states[3], lambda: np.asarray(traj.states),
                     lambda: traj.states - np.zeros(traj.states.shape)):
            with pytest.raises(InvalidConfigError, match="kept no path"):
                read()


class TestBoundednessReport:
    def test_a_trajectory_without_a_path_reports_alike(self):
        scn, kept = solve_scenario(STREAMED_SCENARIOS["saturating-2d"])
        _, streamed = solve_scenario(STREAMED_SCENARIOS["saturating-2d"], keep_states=False)
        assert boundedness_report(streamed) == boundedness_report(kept)

    def test_norms_equal_the_per_step_quadrature_norms(self, disc_mixed,
                                                       hyst_cfg,
                                                       saturating_reaction,
                                                       solver_short):
        u = sine_source(disc_mixed, solver_short)
        traj = solve_state(disc_mixed, constant_sfun(disc_mixed),
                           saturating_reaction, hyst_cfg, u, solver_short)
        report = boundedness_report(traj)
        assert report.max_state_norm == max(quad_norm(disc_mixed, y)
                                            for y in traj.states)
        assert report.source_norm == np.sqrt(solver_short.dt * sum(
            quad_norm(disc_mixed, uk) ** 2 for uk in u))

    def test_zero_run_reports_zero(self, disc_mixed, hyst_cfg, solver_short):
        reaction = ReactionFunction("linear", (0.0, 0.0, 0.0))
        traj = solve_state(disc_mixed, constant_sfun(disc_mixed), reaction,
                           hyst_cfg, zero_source(disc_mixed, solver_short),
                           solver_short)
        report = boundedness_report(traj)
        assert report.max_state_norm == 0.0
        assert report.source_norm == 0.0
        assert report.ratio == 0.0

    def test_linear_scaling_of_the_ingredients(self, disc_mixed, hyst_cfg,
                                               solver_short):
        reaction = ReactionFunction("linear", (0.0, 0.0, 0.0))
        sfun = constant_sfun(disc_mixed)
        u = sine_source(disc_mixed, solver_short)
        r1 = boundedness_report(
            solve_state(disc_mixed, sfun, reaction, hyst_cfg, u, solver_short))
        r10 = boundedness_report(
            solve_state(disc_mixed, sfun, reaction, hyst_cfg, 10.0 * u, solver_short))
        assert r10.max_state_norm == pytest.approx(10 * r1.max_state_norm,
                                                   rel=1e-12)
        assert r10.source_norm == pytest.approx(10 * r1.source_norm,
                                                rel=1e-12)
        assert r1.ratio == pytest.approx(
            r1.max_state_norm / (1 + r1.source_norm), rel=1e-15)
