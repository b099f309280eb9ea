import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stopsim.control as control_module
from stopsim import (
    BlowupError,
    BoundarySides,
    ControlProblem,
    ControlSpec,
    DomainSpec,
    GridMismatchError,
    HysteresisConfig,
    InvalidConfigError,
    PiecewiseLinearSignal,
    ReactionFunction,
    SFunctional,
    SolverConfig,
    Source,
    assemble,
    branch_census,
    control_gram,
    fd_convergence_study,
    hadamard_perturbed_quotient,
    load_scenario,
    quad_norm,
    solve_sensitivity,
    solve_state,
    stop_directional_derivative,
)

from stopsim.control import _gradient, _solve
from stopsim.evolution import _WINDOW_BYTES, _state_rules
from stopsim.hysteresis import INTERIOR, StopCursor
from stopsim.sensitivity import _adjoint_sweep
from stopsim.spatial import _path_norms, _Stepper

from conftest import (STREAMED_SCENARIOS, active_mask, box_41, bundled_config, constant_sfun,
                      traced_peak)
from oracles import (
    reaction_directional_reference,
    reaction_value_reference,
    reference_adjoint,
    reference_march,
    stop_derivative_step,
)


def sine_source(disc, solver, amplitude=2.0, omega=4.0):
    x = disc.coords[:, 0]
    profile = np.sin(np.pi * x)
    t = solver.times()
    return amplitude * np.sin(omega * t)[:, None, None] * profile[None, None, :]


def pulse_direction(disc, solver, value=0.2, mode=2):
    x = disc.coords[:, 0]
    profile = np.sin(mode * np.pi * x / disc.domain.extent[0])
    t = solver.times()
    gate = ((t >= 0.1) & (t < 0.9)).astype(float)
    return value * gate[:, None, None] * profile[None, None, :]


@pytest.fixture
def saturating_setup(disc_mixed):
    hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
    sfun = constant_sfun(disc_mixed, 0.6)
    reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
    solver = SolverConfig(dt=0.02, t_final=1.0)
    u = sine_source(disc_mixed, solver)
    return disc_mixed, sfun, reaction, hyst, u, solver


def run_pair(setup, h):
    disc, sfun, reaction, hyst, u, solver = setup
    base = solve_state(disc, sfun, reaction, hyst, u, solver)
    record = solve_sensitivity(base, h)
    return base, record


def scenario_base(name, keep_states=True):
    scn = load_scenario(STREAMED_SCENARIOS[name], needs=("state", "direction"))
    base = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                       scn.source, scn.solver, keep_states=keep_states)
    return scn, base


class TestStreamedSensitivity:
    """A sensitivity solve that keeps no zeta path reports every channel bitwise."""

    @pytest.mark.parametrize("name", [name for name, cfg in STREAMED_SCENARIOS.items()
                                      if "direction" in cfg])
    def test_norms_are_the_path_norms_kept_or_not(self, name):
        scn, base = scenario_base(name)
        kept = solve_sensitivity(base, scn.direction)
        streamed = solve_sensitivity(base, scn.direction, keep_states=False)
        np.testing.assert_array_equal(kept.norms, _path_norms(scn.disc, kept.states))
        for channel in ("norms", "stop_derivative", "s_values"):
            np.testing.assert_array_equal(getattr(streamed, channel), getattr(kept, channel))
        with pytest.raises(InvalidConfigError, match="kept no path"):
            streamed.states[0]

    def test_an_overflow_in_a_later_window_names_the_kept_runs_step(self):
        # each sensitivity is finite, but from the direction's onset at step
        # 10 its squared norm is not; the kept march holds the run, the
        # streamed one windows of 4 steps
        disc = box_41()
        solver = SolverConfig(dt=0.05, t_final=1.0)
        u = np.zeros((solver.n_steps + 1, 1, disc.n_nodes))
        base = solve_state(disc, constant_sfun(disc), ReactionFunction("linear", (0.0, -0.5, 0.3)),
                           HysteresisConfig(a=-1.0, b=1.0, z0=0.0), u, solver)
        h = Source(1e156 * (solver.times() >= 0.5), np.ones((1, disc.n_nodes)))
        messages = []
        for keep in (True, False):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(BlowupError) as excinfo:
                solve_sensitivity(base, h, keep)
            messages.append(str(excinfo.value))
        assert messages[1] == messages[0]
        step = int(re.match(r"sensitivity overflowed at step (\d+) ", messages[0]).group(1))
        assert step > _WINDOW_BYTES // disc.n_nodes // 8 == 4

    def test_a_base_without_a_path_is_refused(self):
        scn, base = scenario_base("saturating", keep_states=False)
        with pytest.raises(InvalidConfigError, match="kept no path"):
            solve_sensitivity(base, scn.direction)


class TestLinearizedSolve:
    def test_zero_direction_gives_zero_sensitivity(self, saturating_setup):
        disc, _, _, _, u, _ = saturating_setup
        base, record = run_pair(saturating_setup, np.zeros_like(u))
        np.testing.assert_array_equal(record.states,
                                      np.zeros_like(base.states))
        np.testing.assert_array_equal(record.stop_derivative,
                                      np.zeros_like(record.stop_derivative))

    def test_linear_dynamics_make_it_an_exact_difference(self, disc_mixed,
                                                         hyst_cfg):
        # for affine f and a wide band the map u -> y is affine, so the
        # linearization must reproduce G(u + h) - G(u) to rounding
        sfun = constant_sfun(disc_mixed, 0.5)
        reaction = ReactionFunction("linear", (0.4, -0.6, 0.3))
        solver = SolverConfig(dt=0.02, t_final=1.0)
        u = sine_source(disc_mixed, solver)
        h = pulse_direction(disc_mixed, solver, value=0.5)
        base = solve_state(disc_mixed, sfun, reaction, hyst_cfg, u, solver)
        pert = solve_state(disc_mixed, sfun, reaction, hyst_cfg, u + h,
                           solver)
        record = solve_sensitivity(base, h)
        assert np.abs(base.stop_offsets).max() < 1.0  # band never saturates
        np.testing.assert_allclose(record.states, pert.states - base.states,
                                   rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(
            record.stop_derivative, pert.stop.values - base.stop.values,
            rtol=0.0, atol=1e-11)

    def test_quotient_approaches_the_derivative(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        h = pulse_direction(disc, solver)
        base, record = run_pair(saturating_setup, h)
        lam = 1e-4
        pert = solve_state(disc, sfun, reaction, hyst, u + lam * h, solver)
        quot = (pert.states - base.states) / lam
        err = max(quad_norm(disc, quot[k] - record.states[k])
                  for k in range(len(base.times)))
        scale = max(quad_norm(disc, z) for z in record.states)
        assert scale > 0
        assert err <= 1e-2 * scale

    def test_positive_homogeneity_in_the_direction(self, saturating_setup):
        disc, _, _, _, _, _ = saturating_setup
        h = pulse_direction(disc, saturating_setup[5])
        _, r1 = run_pair(saturating_setup, h)
        _, r2 = run_pair(saturating_setup, 2.0 * h)
        np.testing.assert_array_equal(r2.states, 2.0 * r1.states)
        np.testing.assert_array_equal(r2.stop_derivative,
                                      2.0 * r1.stop_derivative)

    def test_stop_derivative_obeys_the_scalar_chain_rule(self,
                                                         saturating_setup):
        disc, _, _, hyst, _, _ = saturating_setup
        h = pulse_direction(disc, saturating_setup[5])
        base, record = run_pair(saturating_setup, h)
        scalar = stop_directional_derivative(
            PiecewiseLinearSignal(base.times, base.s_values),
            PiecewiseLinearSignal(base.times, record.s_values),
            hyst)
        np.testing.assert_array_equal(scalar.base_stop, base.stop.values)
        np.testing.assert_array_equal(scalar.derivative,
                                      record.stop_derivative)

    def test_saturated_steps_gate_the_derivative(self, saturating_setup):
        # wherever the base run sits strictly at a bound and the drive pushes
        # outward, the derivative must drop the outward component
        disc, _, _, hyst, _, _ = saturating_setup
        h = pulse_direction(disc, saturating_setup[5])
        base, record = run_pair(saturating_setup, h)
        pinned = np.isin(base.stop.values, [hyst.a, hyst.b])
        assert pinned.any()
        assert not pinned.all()

    def test_grid_mismatch_is_rejected(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        with pytest.raises(GridMismatchError):
            solve_sensitivity(base, np.zeros((3, 2)))

    def test_non_finite_direction_is_rejected(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        for bad in (np.nan, np.inf):
            h = np.zeros_like(u)
            h[3, 0, 4] = bad
            with pytest.raises(InvalidConfigError):
                solve_sensitivity(base, h)

    @pytest.mark.parametrize("scheme, slice_length", [
        ("imex-euler", None),
        ("picard-sliced", 0.2),    # ten-step slices
        ("picard-sliced", None),   # one slice over the whole run
    ])
    def test_overflowing_sensitivity_is_a_numerical_failure(
            self, disc_mixed, hyst_cfg, scheme, slice_length):
        # a finite direction whose sensitivity overflows: both schemes must
        # stop with the blow-up error (exit code 3), never return inf/nan
        reaction = ReactionFunction("linear", (0.0, 50.0, 0.0))
        solver = SolverConfig(dt=0.02, t_final=1.0, scheme=scheme,
                              slice_length=slice_length)
        sfun = constant_sfun(disc_mixed)
        u = np.zeros((solver.n_steps + 1, 1, disc_mixed.n_nodes))
        base = solve_state(disc_mixed, sfun, reaction, hyst_cfg, u, solver)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowupError) as excinfo:
            solve_sensitivity(base, np.full_like(u, 1e308))
        assert excinfo.value.exit_code == 3


class TestPicardVariant:
    def test_matches_the_direct_recursion(self, disc_mixed):
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc_mixed, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        direct = SolverConfig(dt=0.02, t_final=1.0)
        sliced = SolverConfig(dt=0.02, t_final=1.0, scheme="picard-sliced",
                              slice_length=0.2, picard_tol=1e-13)
        u = sine_source(disc_mixed, direct)
        h = pulse_direction(disc_mixed, direct)

        base_d = solve_state(disc_mixed, sfun, reaction, hyst, u, direct)
        base_s = solve_state(disc_mixed, sfun, reaction, hyst, u, sliced)
        rec_d = solve_sensitivity(base_d, h)
        rec_s = solve_sensitivity(base_s, h)
        np.testing.assert_allclose(rec_s.states, rec_d.states,
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(rec_s.stop_derivative,
                                   rec_d.stop_derivative,
                                   rtol=0.0, atol=1e-9)
        assert len(base_s.picard_iterations) == 5
        assert base_d.picard_iterations == []

    @pytest.mark.parametrize("slice_length, n_slices", [
        (0.3, 4),    # uneven tail slice
        (None, 1),   # one slice over the whole run
    ])
    def test_sweeps_the_state_solve_slices(self, disc_mixed, slice_length,
                                           n_slices):
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc_mixed, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        direct = SolverConfig(dt=0.02, t_final=1.0)
        sliced = SolverConfig(dt=0.02, t_final=1.0, scheme="picard-sliced",
                              slice_length=slice_length, picard_tol=1e-13)
        u = sine_source(disc_mixed, direct)
        h = pulse_direction(disc_mixed, direct)
        base = solve_state(disc_mixed, sfun, reaction, hyst, u, sliced)
        rec = solve_sensitivity(base, h)
        assert len(base.picard_iterations) == n_slices
        assert all(sweeps >= 1 for sweeps in base.picard_iterations)
        rec_d = solve_sensitivity(solve_state(disc_mixed, sfun, reaction, hyst, u, direct), h)
        np.testing.assert_allclose(rec.states, rec_d.states,
                                   rtol=0.0, atol=1e-9)

    def test_matches_the_direct_recursion_at_exact_ties(self):
        disc = two_component_1d_disc()
        sfun, hyst, reaction, u, h = exact_tie_setup(disc)
        direct, sliced = TIE_SOLVERS
        records = {}
        for solver in (direct, sliced):
            base = solve_state(disc, sfun, reaction, hyst, u, solver)
            assert np.abs(base.states[:, 0]).max() > 0.1
            np.testing.assert_array_equal(base.stop_offsets[:-1],
                                          hyst.a - base.s_values[1:])
            for sign in (1.0, -1.0):
                records[solver.scheme, sign] = solve_sensitivity(base, sign * h)
        for sign in (1.0, -1.0):
            rec_d = records["imex-euler", sign]
            rec_s = records["picard-sliced", sign]
            np.testing.assert_allclose(rec_s.states, rec_d.states,
                                       rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(rec_s.stop_derivative,
                                       rec_d.stop_derivative,
                                       rtol=0.0, atol=1e-9)
        plus = records["imex-euler", 1.0]
        minus = records["imex-euler", -1.0]
        assert not np.allclose(minus.stop_derivative, -plus.stop_derivative)
        assert not np.allclose(minus.states, -plus.states)

    def test_a_picard_tie_base_takes_the_forward_path(self, monkeypatch):
        disc = two_component_1d_disc()
        sfun, hyst, reaction, u, _ = exact_tie_setup(disc)
        solver = TIE_SOLVERS[1]
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        assert branch_census(hyst, base.stop_offsets, base.s_values).tie > 0
        stepper = _Stepper(disc, solver.dt, sfun)
        assert _adjoint_sweep(base, np.ones_like(base.states), stepper) is None
        # a control on component 0 leaves S's plateau, and so the ties, in place
        modes = np.zeros((2, 2, disc.n_nodes))
        modes[:, 0] = np.sin([[np.pi], [2.0 * np.pi]] * disc.coords[:, 0])
        spec = ControlSpec(mode="distributed", time_knots=2,
                           coefficients=np.array([1.0, -0.5, 2.0, 0.5]), spatial_modes=modes)
        problem = ControlProblem(disc=disc, sfun=sfun, reaction=reaction, hyst_cfg=hyst,
                                 solver=solver, target=np.zeros_like(u), kappa=0.1)
        calls = []
        monkeypatch.setattr(control_module, "solve_sensitivity",
                            lambda *args: calls.append(1) or solve_sensitivity(*args))
        grad, linear = _gradient(problem, spec, _solve(problem, spec),
                                 control_gram(disc, spec, solver), stepper)
        assert not linear and len(calls) == spec.n_coefficients
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("slice_length", [0.2, None])
    @pytest.mark.parametrize("name", ["saturating", "linear_quadratic",
                                      "neumann_conservation", "zero"])
    def test_the_march_is_within_the_sweep_tolerance(self, name, slice_length, tol):
        # the fixed point the slice-by-slice sweeps of the linearized recursion
        # approach to their tolerance is the direct march along the same base
        cfg = copy.deepcopy(bundled_config(name))
        cfg.setdefault("direction", {"kind": "constant", "value": 0.1})
        cfg["solver"].update(scheme="picard-sliced", picard_tol=tol)
        if slice_length is not None:
            cfg["solver"]["slice_length"] = slice_length
        scn = load_scenario(cfg, needs=("state", "direction"))
        solver = scn.solver
        base = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg, scn.source, solver)
        record = solve_sensitivity(base, scn.direction)
        swept, _, _ = reference_sensitivity(
            base, scn.direction, allocating_rules(scn.reaction)[1],
            (solver.slice_steps, solver.picard_tol, solver.picard_max_iters))
        assert _path_norms(scn.disc, record.states - swept).max() <= 100 * tol

    def test_a_streamed_solve_on_a_whole_run_slice_holds_two_rows(self):
        disc = box_41()
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        solver = SolverConfig(dt=0.005, t_final=1.0, scheme="picard-sliced")
        t, x = solver.times(), disc.coords[:, 0]
        u = Source(2.0 * np.sin(4.0 * t), np.sin(np.pi * x)[None, :])
        h = Source(0.2 * ((t >= 0.1) & (t < 0.9)), np.sin(2.0 * np.pi * x)[None, :])
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        assert len(base.picard_iterations) == 1
        record, peak = traced_peak(lambda: solve_sensitivity(base, h, keep_states=False))
        np.testing.assert_array_equal(record.norms, solve_sensitivity(base, h).norms)
        # two rows, the step's factors and per-step temporaries, where the
        # one slice would be the whole 201-row path
        assert peak <= 0.1 * base.states.nbytes


class TestAdjointIdentity:
    @pytest.mark.parametrize("scheme", [
        {},
        {"scheme": "picard-sliced", "slice_length": 0.2},    # ten-step slices
        {"scheme": "picard-sliced"},                         # one whole-run slice
    ], ids=["direct", "picard-sliced", "picard-whole-run"])
    def test_the_gradient_pairs_with_the_forward_sensitivity(self, disc_mixed, scheme):
        # <g, h> = <seed, zeta> for the adjoint g of any seed and any direction h
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc_mixed, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        solver = SolverConfig(dt=0.02, t_final=1.0, **scheme)
        base = solve_state(disc_mixed, sfun, reaction, hyst, sine_source(disc_mixed, solver),
                           solver)
        census = branch_census(hyst, base.stop_offsets, base.s_values)
        assert census.at_a + census.at_b >= 10 and census.tie == 0
        rng = np.random.default_rng(27)
        seed, h = rng.standard_normal((2, *base.states.shape))
        g = _adjoint_sweep(base, seed, _Stepper(disc_mixed, solver.dt, sfun))
        zeta = solve_sensitivity(base, h).states
        lhs, rhs = float(np.sum(g * h)), float(np.sum(seed * zeta))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


TIE_SOLVERS = (SolverConfig(dt=0.02, t_final=1.0),
               SolverConfig(dt=0.02, t_final=1.0, scheme="picard-sliced",
                            slice_length=0.2, picard_tol=1e-13))


def exact_tie_setup(disc):
    """S, stop, reaction, source and direction whose base path ties at every step.

    S reads only component 1, which no source drives.  With f(0, 0) = 0
    and z0 = a = 0 it stays exactly zero, so S y is a constant plateau and
    every step of the stop is an exact tie at its lower bound.  Component 0
    gets a zero-source prefix, a pulse and a zero tail; the direction moves
    both components.
    """
    weight = np.zeros((2, disc.n_nodes))
    weight[1] = 0.5
    sfun = SFunctional(weight=weight)
    hyst = HysteresisConfig(a=0.0, b=0.1, z0=0.0)
    reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
    t = TIE_SOLVERS[0].times()
    x = disc.coords[:, 0] / disc.domain.extent[0]
    u = np.zeros((t.size, 2, disc.n_nodes))
    u[(t >= 0.2) & (t < 0.5), 0] = 2.0 * np.sin(np.pi * x)
    h = np.empty_like(u)
    h[:, 0] = 0.3 * np.cos(np.pi * x)
    h[:, 1] = 0.2 + 0.1 * x
    return sfun, hyst, reaction, u, h


def two_component_1d_disc():
    return assemble(
        DomainSpec(dimension=1, extent=(1.0,), resolution=(13,)),
        [BoundarySides(left="dirichlet", right="neumann"),
         BoundarySides(left="neumann", right="neumann")],
        [0.8, 0.3],
    )


def two_component_2d_disc():
    """Two components on a box with Dirichlet sides on different axes."""
    return assemble(
        DomainSpec(dimension=2, extent=(1.3, 0.7), resolution=(9, 7)),
        [BoundarySides(left="dirichlet", right="neumann",
                       bottom="neumann", top="dirichlet"),
         BoundarySides(left="neumann", right="neumann",
                       bottom="dirichlet", top="dirichlet")],
        [0.8, 2.5])


# single-component discs of the benchmark's optimizer and grid shapes:
# 41 nodes Dirichlet/Neumann in 1D, a box Dirichlet on one side of each axis in 2D
RULE_DISCS = {
    "1d": two_component_1d_disc,
    "2d": two_component_2d_disc,
    "1d-one": lambda: assemble(
        DomainSpec(dimension=1, extent=(1.0,), resolution=(41,)),
        [BoundarySides(left="dirichlet", right="neumann")], [0.8]),
    "2d-one": lambda: assemble(
        DomainSpec(dimension=2, extent=(1.0, 1.0), resolution=(11, 9)),
        [BoundarySides(left="dirichlet", right="neumann",
                       bottom="dirichlet", top="neumann")], [0.5]),
}


def _table_reaction():
    yg, zg = np.linspace(-10.0, 10.0, 21), np.linspace(-1.0, 1.0, 5)
    return ReactionFunction("user-table",
                            table=(yg, zg, np.tanh(yg)[:, None] * (1.0 - zg[None, :] ** 2)))


RULE_REACTIONS = {
    "linear": ReactionFunction("linear", (0.3, -0.5, 0.8)),
    # f is -0.0 wherever y and z are +0.0
    "negative-zero": ReactionFunction("linear", (-0.0, -1.0, -0.5)),
    "saturating": ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9)),
    # 4 y (1 - y / 2) is the cap 2.0 exactly at y = 1
    "logistic-capped": ReactionFunction("logistic-capped", (4.0, 2.0, 2.0, 0.6)),
    "user-table": _table_reaction(),
}


def allocating_rules(reaction):
    """``value(y, z)`` and ``directional(y, z, dy, dz)`` as one allocating
    expression each; a table's are its own calls without ``out``."""
    if reaction.kind == "user-table":
        return reaction.value, reaction.directional
    kind, p = reaction.kind, reaction.params
    return (lambda y, z: reaction_value_reference(kind, p, y, z),
            lambda y, z, dy, dz: reaction_directional_reference(kind, p, y, z, dy, dz))


def rule_source(disc, solver, kind, scale):
    """A source on every component (dense or factored), or on the last
    component only; its amplitude is a signed zero at t = 0."""
    x, last = disc.coords[:, 0], disc.n_components - 1
    profile = np.zeros((disc.n_components, disc.n_nodes))
    profile[last] = np.cos(np.pi * x)
    if kind != "component":
        profile[:last] = np.sin(np.pi * x)
    source = Source(scale * np.sin(4.0 * solver.times()), profile)
    return np.asarray(source) if kind == "dense" else source


def reference_sensitivity(base, h, directional, slicing=None):
    """zeta, its stop derivative w and S zeta along ``base`` in the direction
    ``h``: ``reference_march`` of the allocating ``directional`` with the
    scalar stop-derivative rule, direct or swept as ``slicing`` says."""
    hyst, n = base.hyst_cfg, base.solver.n_steps
    stepper = _Stepper(base.disc, base.solver.dt, base.sfun)
    wz, dv, omega = np.zeros((3, n + 1))
    dense_h = np.asarray(h)

    def advance(k, zk):
        dv[k] = stepper.S(zk.ravel())
        omega[k] = stop_derivative_step(hyst.a, hyst.b, base.stop_offsets[k - 1],
                                        base.s_values[k], omega[k - 1], dv[k])
        wz[k] = omega[k] + dv[k]

    zeta, _ = reference_march(
        stepper, n,
        lambda k, zk: directional(base.states[k], base.stop.values[k], zk, wz[k]) + dense_h[k],
        advance, base.disc.quadrature, slicing)
    return zeta, wz, dv


class TestInPlaceRules:
    """Each rule writes into the stepper's buffer exactly what the allocating
    expression gives, and the solves match a march of those expressions."""

    @pytest.mark.parametrize("name", RULE_REACTIONS)
    def test_reactions_write_the_allocating_values(self, name):
        f = RULE_REACTIONS[name]
        value, directional = allocating_rules(f)
        y = np.array([[0.0, -0.0, 1.0, 1.0, 1.0, 0.5, -2.0, 3.0],
                      [1.0, -1.0, 0.25, 2.0, -0.0, 1.0, 7.0, -7.5]])
        dy = np.array([[1.0, -1.0, 0.5, -0.5, -0.0, 0.0, 2.0, -3.0],
                       [-0.0, 0.0, 1.0, -1.0, 0.3, -0.2, 0.0, 1.0]])
        out = np.full_like(y, np.nan)
        for z in map(np.float64, (0.0, -0.0, 0.04, -0.9)):
            assert f.value(y, z, out=out) is out
            assert out.tobytes() == np.broadcast_to(value(y, z), y.shape).tobytes()
            for d_y, dz in ((dy, -0.0), (dy, 1.5), (-dy, 0.0), (0.0 * dy, -2.0)):
                assert f.directional(y, z, d_y, np.float64(dz), out=out) is out
                expected = directional(y, z, d_y, np.float64(dz))
                assert out.tobytes() == np.broadcast_to(expected, y.shape).tobytes()

    @pytest.mark.parametrize("component", [None, 0, 1])
    def test_sources_add_their_dense_rows(self, component):
        # a rule adds ``source[k]``, formed from the factors
        disc = two_component_1d_disc()
        profile = np.zeros((2, disc.n_nodes))
        for j in ((0, 1) if component is None else (component,)):
            profile[j] = np.sin((j + 1) * np.pi * disc.coords[:, 0])
        source = Source(np.array([1.5, -0.0, 0.0, -2.0]), profile)
        dense = np.asarray(source)
        for k in range(4):
            for fill in (-0.0, 0.0, 0.25):
                out = np.full((2, disc.n_nodes), fill)
                expected = out + dense[k]
                out += source[k]
                assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scheme", ["imex-euler", "picard-sliced"])
    @pytest.mark.parametrize("source", ["dense", "factored", "component"])
    @pytest.mark.parametrize("name", RULE_REACTIONS)
    @pytest.mark.parametrize("shape", RULE_DISCS)
    def test_solves_match_the_allocating_march(self, shape, name, source, scheme):
        disc = RULE_DISCS[shape]()
        reaction = RULE_REACTIONS[name]
        value, directional = allocating_rules(reaction)
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc, 0.6)
        solver = SolverConfig(dt=0.05, t_final=0.5, scheme=scheme,
                              **({} if scheme == "imex-euler"
                                 else {"slice_length": 0.15, "picard_tol": 1e-12}))
        slicing = (None if scheme == "imex-euler"
                   else (solver.slice_steps, solver.picard_tol, solver.picard_max_iters))
        n, dt, q = solver.n_steps, solver.dt, disc.quadrature
        u, h = (rule_source(disc, solver, source, scale) for scale in (3.0, -0.3))
        stepper = _Stepper(disc, dt, sfun)

        # the state: the package's advance, an allocating right-hand side
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        _, advance, channel = _state_rules(stepper, reaction, StopCursor(hyst, 0.0), u)
        zs, dense_u = channel[0], np.asarray(u)
        path, sweeps = reference_march(stepper, n, lambda k, y: value(y, zs[k]) + dense_u[k],
                                       advance, q, slicing)
        assert base.states.tobytes() == path.tobytes()
        for ours, theirs in zip((base.stop.values, base.stop_offsets, base.s_values), channel):
            assert ours.tobytes() == theirs.tobytes()
        assert base.picard_iterations == sweeps

        # the forward sensitivity: the direct march on either scheme
        record = solve_sensitivity(base, h)
        zeta, wz, dv = reference_sensitivity(base, h, directional)
        assert record.states.tobytes() == zeta.tobytes()
        assert record.stop_derivative.tobytes() == wz.tobytes()
        assert record.s_values.tobytes() == dv.tobytes()

        # the adjoint gradient, where the recursion is linear in the direction
        seed = dt * (base.states - 0.1) * q
        grad = _adjoint_sweep(base, seed, _Stepper(disc, dt, sfun))
        census = branch_census(hyst, base.stop_offsets, base.s_values)
        linear = not census.tie and reaction.directional_is_linear(base.states)
        assert (grad is not None) == linear
        if linear:
            z = base.stop.values[:, None, None]
            gy = np.broadcast_to(1.0 + dt * directional(base.states, z, 1.0, 0.0), seed.shape)
            gz = np.broadcast_to(dt * directional(base.states, z, 0.0, 1.0), seed.shape)
            expected = reference_adjoint(stepper, seed, gy, gz, census.steps == INTERIOR,
                                         stepper.s_field, dt)
            assert grad.tobytes() == expected.tobytes()

    def test_a_non_finite_adjoint_names_the_reference_step(self):
        disc = two_component_1d_disc()
        reaction = ReactionFunction("linear", (0.0, 1e200, 0.0))
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc, 0.6)
        solver = SolverConfig(dt=0.05, t_final=0.5)
        base = solve_state(disc, sfun, reaction, hyst,
                           np.zeros((11, 2, disc.n_nodes)), solver)
        seed = np.full(base.states.shape, solver.dt)
        stepper = _Stepper(disc, solver.dt, sfun)
        census = branch_census(hyst, base.stop_offsets, base.s_values)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as reference:
                reference_adjoint(stepper, seed, np.full(seed.shape, 1.0 + 0.05 * 1e200),
                                  np.zeros(seed.shape), census.steps == INTERIOR,
                                  stepper.s_field, solver.dt)
            k = reference.value.args[0]
            message = f"adjoint became non-finite at step {k} (t={base.times[k]:.6g})"
            with pytest.raises(BlowupError, match=re.escape(message)):
                _adjoint_sweep(base, seed, stepper)


class TestInPlaceSteps:
    """The steps write each path row's active nodes in place."""

    @pytest.mark.parametrize("two_d", [False, True])
    def test_dirichlet_nodes_stay_zero_and_slices_agree(self, disc_mixed, two_d):
        disc = two_component_2d_disc() if two_d else disc_mixed
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        tol = 1e-11
        solvers = [SolverConfig(dt=0.02, t_final=0.6, **kw) for kw in (
            {},
            {"scheme": "picard-sliced", "slice_length": 0.2, "picard_tol": tol},
            {"scheme": "picard-sliced", "picard_tol": tol})]
        shape = (solvers[0].n_steps + 1, disc.n_components, disc.n_nodes)
        # source and direction are non-zero on Dirichlet nodes too
        u = np.broadcast_to(sine_source(disc, solvers[0]) + 0.3, shape)
        h = np.broadcast_to(pulse_direction(disc, solvers[0]) + 0.1, shape)
        paths = []
        for solver in solvers:
            base = solve_state(disc, sfun, reaction, hyst, u, solver)
            record = solve_sensitivity(base, h)
            for states in (base.states, record.states):
                for j in range(disc.n_components):
                    assert np.all(states[:, j, ~active_mask(disc, j)] == 0.0)
                    assert np.any(states[:, j, active_mask(disc, j)] != 0.0)
            paths.append((base.states, record.states))
        # slices of 10 steps against one whole-run slice
        for sliced, whole in zip(paths[1], paths[2]):
            assert max(quad_norm(disc, a - b) for a, b in zip(sliced, whole)) <= tol


class TestFdStudy:
    def test_errors_decrease_on_a_saturating_run(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        h = pulse_direction(disc, solver)
        lambdas = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        study = fd_convergence_study(solve_state(disc, sfun, reaction, hyst, u, solver),
                                     h, lambdas)
        np.testing.assert_array_equal(study.lambdas, lambdas)
        assert np.all(np.diff(study.errors) < 0)

    def test_zero_remainder_reduces_to_the_plain_study(self,
                                                       saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        h = pulse_direction(disc, solver)
        lambdas = np.array([1e-2, 1e-3, 1e-4])
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        plain = fd_convergence_study(base, h, lambdas)
        via_zero = hadamard_perturbed_quotient(base, h, lambda lam: np.zeros_like(u), lambdas)
        np.testing.assert_array_equal(via_zero.errors, plain.errors)

    def test_quadratic_remainder_shares_the_limit(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        h = pulse_direction(disc, solver)
        lambdas = np.array([1e-2, 1e-3, 1e-4])
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        plain = fd_convergence_study(base, h, lambdas)
        perturbed = hadamard_perturbed_quotient(base, h, lambda lam: (lam ** 2) * h, lambdas)
        assert np.all(np.diff(perturbed.errors) < 0)
        # r(lam) = lam^2 h shifts the quotient by at most lam * |dG h| to
        # first order, so the extra error is O(lam) on top of the plain one
        scale = max(quad_norm(disc, z) for z in plain.record.states)
        bound = plain.errors + 1.1 * lambdas * scale + 1e-12
        assert np.all(perturbed.errors <= bound)

    def test_quotients_are_formed_in_the_perturbed_paths(self):
        disc = box_41()
        hyst = HysteresisConfig(a=-0.05, b=0.05, z0=0.0)
        sfun = constant_sfun(disc, 0.6)
        reaction = ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
        solver = SolverConfig(dt=0.005, t_final=1.0)
        t = solver.times()
        x = disc.coords[:, 0]
        # factored, as a scenario gives them: the study forms the dense paths
        u = Source(2.0 * np.sin(4.0 * t), np.sin(np.pi * x)[None, :])
        h = Source(0.2 * ((t >= 0.1) & (t < 0.9)), np.sin(2.0 * np.pi * x)[None, :])
        study, peak = traced_peak(lambda: fd_convergence_study(
            solve_state(disc, sfun, reaction, hyst, u, solver), h, np.array([1e-1, 1e-2, 1e-3])))
        assert np.all(np.diff(study.errors) < 0)
        # the dense u and h, the perturbed source, and the base, sensitivity
        # and perturbed paths, with the solves' temporaries
        assert peak <= 7.5 * study.base.states.nbytes

    def test_lambda_sequence_is_validated(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        h = pulse_direction(disc, solver)
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        for bad in ([1e-2, 1e-2], [1e-3, 1e-2], [0.0, -1.0], []):
            with pytest.raises(InvalidConfigError):
                fd_convergence_study(base, h, np.asarray(bad, dtype=float))

    def test_direction_shape_is_checked(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        with pytest.raises(GridMismatchError):
            fd_convergence_study(base, u[:, :, :3], np.array([1e-2, 1e-3]))

    def test_remainder_shape_is_checked(self, saturating_setup):
        disc, sfun, reaction, hyst, u, solver = saturating_setup
        base = solve_state(disc, sfun, reaction, hyst, u, solver)
        with pytest.raises(GridMismatchError):
            hadamard_perturbed_quotient(base, u, lambda lam: np.zeros(3), np.array([1e-2, 1e-3]))


class TestForcedTies:
    """One-sided difference quotients where every stop step is an exact tie."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("scheme", ["imex-euler", "picard-sliced"])
    @pytest.mark.parametrize("make_disc", [two_component_1d_disc,
                                           two_component_2d_disc])
    def test_one_sided_quotients_converge(self, make_disc, scheme, sign):
        disc = make_disc()
        sfun, hyst, reaction, u, h = exact_tie_setup(disc)
        (solver,) = (s for s in TIE_SOLVERS if s.scheme == scheme)
        lambdas = np.array([1e-2, 1e-3, 1e-4])
        study = fd_convergence_study(solve_state(disc, sfun, reaction, hyst, u, solver),
                                     sign * h, lambdas)
        base = study.base
        assert branch_census(hyst, base.stop_offsets, base.s_values).tie > 0
        assert np.all(study.errors[1:] * 5.0 <= study.errors[:-1])
        scale = max(quad_norm(disc, z) for z in study.record.states)
        assert study.errors[-1] <= 1e-6 * scale


@st.composite
def stop_rule_cases(draw):
    """Hysteresis band, reaction, S weight and source amplitudes for the
    stop-derivative rule on ``two_component_1d_disc``, with dt = 1/2.

    With f = c - 2 y, one step maps a pure-Neumann component with no source
    to the constant c / 2 exactly from step 1 on (c - 2 y is exact near y =
    c / 2), so an S that reads only that component is a plateau V: the stop
    ties at every step where it sits on a bound.  A band of width 5e-324
    puts a - V and b - V on the same float.
    """
    band = draw(st.sampled_from([(0.0, 0.1), (-0.1, 0.0), (-0.05, 0.05),
                                 (0.0, 5e-324), (-5e-324, 0.0)]))
    c = draw(st.sampled_from([0.0, 0.5, -0.5, 1.0]))
    saturating = draw(st.booleans())
    plateau = draw(st.booleans())
    source = draw(st.sampled_from([0.0, 2.0]) | st.floats(-3.0, 3.0))
    rates = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0])
                          | st.floats(-2.0, 2.0), min_size=11, max_size=11))
    return band, c, saturating, plateau, source, np.array(rates)


class TestStopDerivativeRule:
    @settings(max_examples=40, deadline=None)
    @given(stop_rule_cases())
    # a subnormal state, whose solves' residual once read 1.7e-10
    @example(((0.0, 0.1), 0.0, False, False, 2.2250738585e-313, np.zeros(11)))
    def test_both_schemes_follow_the_scalar_rule_bitwise(self, case):
        (a, b), c, saturating, plateau, source, rates = case
        disc = two_component_1d_disc()
        hyst = HysteresisConfig(a=a, b=b, z0=0.0)
        reaction = (ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9)) if saturating
                    else ReactionFunction("linear", (c, -2.0, 0.0)))
        weight = np.full((2, disc.n_nodes), 0.5)
        if plateau:
            weight[0] = 0.0
        sfun = SFunctional(weight=weight)
        profile = np.zeros((2, disc.n_nodes))
        profile[0] = np.sin(np.pi * disc.coords[:, 0])
        u = Source(np.full(11, source), profile)
        h = rates[:, None, None] * np.cos(np.pi * disc.coords[:, 0])
        for solver in (SolverConfig(dt=0.5, t_final=5.0),
                       SolverConfig(dt=0.5, t_final=5.0, scheme="picard-sliced",
                                    slice_length=1.5, picard_tol=1e-13)):
            base = solve_state(disc, sfun, reaction, hyst, u, solver)
            record = solve_sensitivity(base, np.broadcast_to(h, (11, 2, disc.n_nodes)))
            omega, expected = 0.0, [0.0]
            for k in range(1, 11):
                dv = record.s_values[k]
                omega = stop_derivative_step(a, b, base.stop_offsets[k - 1], base.s_values[k],
                                             omega, dv)
                expected.append(omega + dv)
            assert np.array(expected).tobytes() == record.stop_derivative.tobytes()
            if plateau and not saturating and c != 0.0:
                # ties from step 2 on; in the thin bands on both bounds at once
                assert np.all(base.s_values[2:] == base.s_values[1])
                census = branch_census(hyst, base.stop_offsets, base.s_values)
                assert census.tie == 9
                if b - a < 1e-300:
                    assert np.all(a - base.s_values[1:] == b - base.s_values[1:])


class TestTableReaction:
    def test_tabulated_derivative_is_flagged_approximate(self, disc_mixed,
                                                         hyst_cfg):
        yg = np.linspace(-5.0, 5.0, 21)
        zg = np.linspace(-2.0, 2.0, 9)
        vals = 0.3 * yg[:, None] + 0.1 * zg[None, :]
        reaction = ReactionFunction("user-table", table=(yg, zg, vals))
        sfun = constant_sfun(disc_mixed, 0.5)
        solver = SolverConfig(dt=0.05, t_final=0.5)
        u = sine_source(disc_mixed, solver, amplitude=0.5)
        base = solve_state(disc_mixed, sfun, reaction, hyst_cfg, u, solver)
        record = solve_sensitivity(base, u)
        assert not record.derivative_is_exact
        assert np.all(np.isfinite(record.states))
