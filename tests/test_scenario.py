import collections
import copy
import importlib.resources
import json
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopsim import (
    BlowupError,
    HysteresisConfig,
    InvalidConfigError,
    ScenarioValidationError,
    Source,
    apply_B,
    build_control_problem,
    load_hysteresis_config,
    load_scenario,
    solve_sensitivity,
    solve_state,
)
from stopsim import scenario as scenario_module
from stopsim.cli import _SUBCOMMANDS, _load

from conftest import active_mask, traced_peak


def bundled(name):
    root = importlib.resources.files("stopsim") / "scenarios"
    return json.loads((root / f"{name}.json").read_text())


def base_scenario():
    return {
        "domain": {"dimension": 1, "extent": [1.0], "resolution": [9]},
        "boundaries": [{"left": "dirichlet", "right": "neumann"}],
        "diffusion": [0.8],
        "s_weight": {"kind": "constant", "value": 0.5},
        "hysteresis": {"a": -1.0, "b": 1.0, "z0": 0.0},
        "reaction": {"kind": "linear", "constant": 0.0, "state": -0.5,
                     "hysteresis": 0.3},
        "solver": {"dt": 0.1, "t_final": 0.5},
        "source": {"kind": "zero"},
    }


def expect_error(cfg, fragment, needs=("state",)):
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(cfg, needs)
    assert fragment in str(err.value)
    return err.value


class TestBundledScenarios:
    def test_zero_scenario_loads(self):
        scn = load_scenario(bundled("zero"))
        assert scn.disc.n_nodes == 31
        assert scn.solver.n_steps == 20
        np.testing.assert_array_equal(scn.source, np.zeros_like(scn.source))

    def test_linear_quadratic_scenario_loads(self):
        scn = load_scenario(bundled("linear_quadratic"),
                            needs=("state", "control"))
        assert scn.control is not None
        assert scn.control.spec.mode == "distributed"
        assert scn.control.spec.n_coefficients == 6
        assert scn.control.target_kind == "from-control"

    def test_saturating_scenario_loads(self):
        scn = load_scenario(bundled("saturating"),
                            needs=("state", "direction", "lambdas"))
        assert scn.direction is not None
        assert scn.direction.shape == scn.source.shape
        assert len(scn.lambdas) == 5
        assert all(x > y for x, y in zip(scn.lambdas, scn.lambdas[1:]))

    def test_neumann_scenario_loads(self):
        scn = load_scenario(bundled("neumann_conservation"))
        assert active_mask(scn.disc).all()
        assert scn.solver.n_steps == 1010


class TestStructuralValidation:
    def test_a_must_be_below_b(self):
        cfg = base_scenario()
        cfg["hysteresis"] = {"a": 1.0, "b": -1.0, "z0": 0.0}
        err = expect_error(cfg, "hysteresis.a")
        assert "strictly less" in str(err)

    def test_z0_must_sit_in_the_band(self):
        cfg = base_scenario()
        cfg["hysteresis"]["z0"] = 2.0
        expect_error(cfg, "hysteresis.z0")

    def test_missing_required_block(self):
        cfg = base_scenario()
        del cfg["solver"]
        err = expect_error(cfg, "solver")
        assert "required field is missing" in str(err)

    def test_unknown_fields_are_rejected(self):
        cfg = base_scenario()
        cfg["mystery"] = 1
        err = expect_error(cfg, "mystery")
        assert "unknown field" in str(err)
        cfg = base_scenario()
        cfg["hysteresis"]["bogus"] = 1
        expect_error(cfg, "hysteresis.bogus")

    def test_boundary_label_paths(self):
        cfg = base_scenario()
        cfg["boundaries"] = [{"left": "weird", "right": "neumann"}]
        expect_error(cfg, "boundaries[0].left")

    def test_diffusion_count_and_sign(self):
        cfg = base_scenario()
        cfg["diffusion"] = [0.8, 1.0]
        expect_error(cfg, "diffusion")
        cfg["diffusion"] = [-0.8]
        expect_error(cfg, "diffusion")

    def test_s_weight_validation(self):
        cfg = base_scenario()
        cfg["s_weight"] = {"kind": "constant", "value": 0.0}
        expect_error(cfg, "s_weight.value")
        cfg["s_weight"] = {"kind": "values", "values": [1.0, 2.0]}
        expect_error(cfg, "s_weight.values")

    def test_solver_validation_paths(self):
        cfg = base_scenario()
        cfg["solver"] = {"dt": 0.1, "t_final": 0.55}
        expect_error(cfg, "solver")
        cfg["solver"] = {"dt": -0.1, "t_final": 0.5}
        expect_error(cfg, "solver.dt")

    def test_non_object_input(self):
        with pytest.raises(ScenarioValidationError):
            load_scenario([1, 2, 3])

    @pytest.mark.parametrize("path", [("source", "profile"), ("direction", "profile"),
                                      ("diagnostic",)])
    def test_null_is_not_an_absent_block(self, path):
        cfg = base_scenario()
        cfg["source"] = {"kind": "sine", "amplitude": 1.0, "omega": 2.0,
                         "profile": {"kind": "sine", "mode": 1}}
        cfg["direction"] = {"kind": "constant", "value": 1.0}
        json_at(cfg, path[:-1])[path[-1]] = None
        expect_error(cfg, f"{'.'.join(path)}: expected an object")

    def test_seed_parsing(self):
        cfg = base_scenario()
        cfg["seed"] = 7
        assert load_scenario(cfg).seed == 7
        cfg["seed"] = -1
        expect_error(cfg, "seed")
        cfg["seed"] = 1.5
        expect_error(cfg, "seed")


class TestSourceParsing:
    def test_sine_source_values(self):
        cfg = base_scenario()
        cfg["source"] = {"kind": "sine", "amplitude": 2.0, "omega": 4.0,
                         "profile": {"kind": "sine", "mode": 1}}
        scn = load_scenario(cfg)
        t = scn.solver.times()
        x = scn.disc.coords[:, 0]
        expected = (2.0 * np.sin(4.0 * t))[:, None, None] \
            * np.sin(np.pi * x)[None, None, :]
        np.testing.assert_allclose(scn.source, expected, rtol=1e-15)

    def test_pulse_window_is_half_open(self):
        cfg = base_scenario()
        cfg["source"] = {"kind": "pulse", "value": 3.0, "start": 0.1,
                         "stop": 0.3}
        scn = load_scenario(cfg)
        amp = np.asarray(scn.source)[:, 0, 0]
        np.testing.assert_array_equal(amp, [0.0, 3.0, 3.0, 0.0, 0.0, 0.0])

    def test_pulse_needs_a_forward_window(self):
        cfg = base_scenario()
        cfg["source"] = {"kind": "pulse", "value": 1.0, "start": 0.3,
                         "stop": 0.3}
        expect_error(cfg, "source.stop")

    def test_component_selection(self):
        cfg = base_scenario()
        cfg["source"] = {"kind": "constant", "value": 1.0, "component": 5}
        expect_error(cfg, "source.component")

    def test_profile_values_shape(self):
        cfg = base_scenario()
        cfg["source"] = {"kind": "constant", "value": 1.0,
                         "profile": {"kind": "values", "values": [1.0]}}
        expect_error(cfg, "source.profile.values")

    def test_direction_uses_the_same_schema(self):
        cfg = base_scenario()
        cfg["direction"] = {"kind": "pulse", "value": 0.2, "start": 0.0,
                            "stop": 0.2}
        scn = load_scenario(cfg, needs=("state", "direction"))
        assert scn.direction.shape == scn.source.shape
        cfg2 = base_scenario()
        expect_error(cfg2, "direction", needs=("state", "direction"))


def two_component_scenario(source, direction=None, scheme="imex-euler"):
    """A two-component box whose components have Dirichlet sides on different axes."""
    cfg = base_scenario()
    cfg["domain"] = {"dimension": 2, "extent": [1.3, 0.7], "resolution": [9, 7]}
    cfg["boundaries"] = [
        {"left": "dirichlet", "right": "neumann", "bottom": "neumann", "top": "dirichlet"},
        {"left": "neumann", "right": "neumann", "bottom": "dirichlet", "top": "dirichlet"}]
    cfg["diffusion"] = [0.8, 2.5]
    cfg["hysteresis"] = {"a": -0.05, "b": 0.05, "z0": 0.0}
    cfg["reaction"] = {"kind": "saturating", "state_amplitude": -0.7, "state_rate": 1.1,
                       "hysteresis_amplitude": -0.8, "hysteresis_rate": 0.9}
    cfg["solver"] = {"dt": 0.05, "t_final": 1.0, "scheme": scheme}
    if scheme == "picard-sliced":
        cfg["solver"]["slice_length"] = 0.25
    cfg["source"] = source
    if direction is not None:
        cfg["direction"] = direction
    return cfg


def dense_field(amp, profile, targets, shape):
    """The source path built densely: each targeted component's products written into zeros."""
    u = np.zeros(shape)
    for comp in targets:
        np.multiply(amp[:, None], profile[None, :], out=u[:, comp, :])
    return u


# negative amplitudes, so untargeted rows read -0.0 where a dense build writes +0.0
SOURCE_KINDS = {
    "zero": ({"kind": "zero"}, None),
    "constant": ({"kind": "constant", "value": -1.5}, lambda t: np.full(t.size, -1.5)),
    "pulse": ({"kind": "pulse", "value": -3.0, "start": 0.1, "stop": 0.3},
              lambda t: np.where((t >= 0.1) & (t < 0.3), -3.0, 0.0)),
    "sine": ({"kind": "sine", "amplitude": -2.0, "omega": 4.0},
             lambda t: -2.0 * np.sin(4.0 * t)),
}


def zeros_written(source):
    """A ``Source``'s dense path with each nonzero profile row's products
    written into zeros, so every other row is +0.0."""
    targets = np.flatnonzero(np.any(source.profile, axis=1))
    return dense_field(source.amplitude, source.profile[targets[0]], targets, source.shape)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLowRankSources:
    """Scenario sources and directions are kept as amplitude x profile."""

    @pytest.mark.parametrize("kind", sorted(SOURCE_KINDS))
    @pytest.mark.parametrize("component", ["all", 0, 1])
    def test_dense_form_is_bitwise_the_dense_construction(self, kind, component):
        block, amp = SOURCE_KINDS[kind]
        block = dict(block)
        if kind != "zero":
            block["profile"] = {"kind": "sine", "mode": [1, 2]}
            block["component"] = component
        scn = load_scenario(two_component_scenario(block))
        source = scn.source
        assert isinstance(source, Source)
        t = scn.solver.times()
        x, y = scn.disc.coords[:, 0], scn.disc.coords[:, 1]
        if kind == "zero":
            amp_t, profile, targets = np.zeros(t.size), np.zeros(x.size), ()
        else:
            amp_t = amp(t)
            profile = np.ones(x.size) * np.sin(1 * np.pi * x / 1.3) * np.sin(2 * np.pi * y / 0.7)
            targets = (0, 1) if component == "all" else (component,)
        expected = dense_field(amp_t, profile, targets, source.shape)
        assert source.shape == (t.size, 2, scn.disc.n_nodes)
        # the targeted rows bitwise; the others are zero, of either sign
        rows = list(targets)
        others = [c for c in range(2) if c not in targets]
        dense = np.asarray(source)
        assert same_bits(dense[:, rows], expected[:, rows])
        assert np.all(dense[:, others] == 0.0)
        for k in range(t.size):
            assert same_bits(source[k][rows], expected[k][rows])
            assert same_bits(source[k], dense[k])

    @pytest.mark.parametrize("scheme", ["imex-euler", "picard-sliced"])
    @pytest.mark.parametrize("component", ["all", 1])
    def test_solves_on_factors_match_the_dense_path_bitwise(self, scheme, component):
        cfg = two_component_scenario(
            {"kind": "sine", "amplitude": -2.0, "omega": 4.0, "component": component,
             "profile": {"kind": "sine", "mode": [1, 2]}},
            {"kind": "pulse", "value": -0.3, "start": 0.0, "stop": 0.3,
             "component": 0 if component == 1 else "all"},
            scheme)
        scn = load_scenario(cfg, needs=("state", "direction"))
        args = (scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg)
        runs = []
        # the factors, their dense product (-0.0 on an untargeted row where the
        # amplitude is negative), and the products written into zeros (+0.0)
        for as_given in (lambda s: s, np.asarray, zeros_written):
            base = solve_state(*args, as_given(scn.source), scn.solver)
            runs.append((base, solve_sensitivity(base, as_given(scn.direction))))
        (base, record), *dense_runs = runs
        assert isinstance(base.source, Source)
        for dense_base, dense_record in dense_runs:
            for name in ("states", "s_values", "stop_offsets"):
                assert same_bits(getattr(base, name), getattr(dense_base, name)), name
            assert same_bits(base.stop.values, dense_base.stop.values)
            assert base.picard_iterations == dense_base.picard_iterations
            for name in ("states", "stop_derivative", "s_values"):
                assert same_bits(getattr(record, name), getattr(dense_record, name)), name
        assert np.any(record.states != 0.0)

    def test_loading_and_solving_allocate_no_second_path(self):
        cfg = base_scenario()
        cfg["domain"] = {"dimension": 2, "extent": [1.0, 1.0], "resolution": [41, 41]}
        cfg["boundaries"] = [{"left": "dirichlet", "right": "neumann",
                              "bottom": "dirichlet", "top": "neumann"}]
        cfg["solver"] = {"dt": 0.005, "t_final": 1.0}
        cfg["source"] = {"kind": "sine", "amplitude": 3.0, "omega": 6.0,
                         "profile": {"kind": "sine", "mode": 1}}
        def load_and_solve():
            scn = load_scenario(cfg)
            return solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                               scn.source, scn.solver)

        load_and_solve()  # warm-up: cached bases and imports
        tracemalloc.start()
        try:
            traj = load_and_solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states.nbytes == 201 * 41 * 41 * 8
        assert peak < 1.5 * traj.states.nbytes

    def test_direction_overflowing_only_in_its_products_is_refused(self):
        cfg = base_scenario()
        values = [1.0] * 9
        values[4] = 10.0
        cfg["direction"] = {"kind": "constant", "value": 1e308,
                            "profile": {"kind": "values", "values": values}}
        scn = load_scenario(cfg, needs=("state", "direction"))
        assert np.all(np.isfinite(scn.direction.amplitude))
        assert np.all(np.isfinite(scn.direction.profile))
        base = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                           scn.source, scn.solver)
        with pytest.raises(InvalidConfigError, match="direction: entries must be finite"):
            solve_sensitivity(base, scn.direction)
        values[4] = 1.0  # the largest product is 1e308 itself
        scn = load_scenario(cfg, needs=("state", "direction"))
        # accepted: its solve runs, and fails only numerically (exit 3),
        # naming the first step whose squared norm overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowupError, match=re.escape(
                    "sensitivity overflowed at step 1 (t=0.1): "
                    "its squared norm is not finite")):
            solve_sensitivity(base, scn.direction)

    def test_control_target_is_size_checked_without_allocating(self, monkeypatch):
        cfg = base_scenario()
        cfg["control"] = {"mode": "distributed", "time_knots": 1,
                          "spatial_modes": {"kind": "constant"}, "kappa": 0.1,
                          "target": {"kind": "constant", "value": 0.4}}
        scn = load_scenario(cfg, needs=("state", "control"))
        shape = (scn.solver.n_steps + 1, 1, scn.disc.n_nodes)
        monkeypatch.setattr(scenario_module, "_physical_memory",
                            lambda: 8 * math.prod(shape) - 1)
        for kind in ({"kind": "zero"}, {"kind": "constant", "value": 0.4}):
            scn.control.target_kind = kind["kind"]
            with pytest.raises(ScenarioValidationError) as err:
                build_control_problem(scn)
            assert str(err.value).startswith(f"control.target: needs a {shape} array")


    def test_gram_matrix_and_time_profiles_are_size_checked(self, monkeypatch):
        cfg = base_scenario()
        cfg["solver"] = {"dt": 0.1, "t_final": 2.0}
        cfg["control"] = {"mode": "distributed", "time_knots": 20,
                          "spatial_modes": {"kind": "constant"}, "kappa": 0.1,
                          "target": {"kind": "zero"}}
        scn = load_scenario(cfg, needs=("state", "control"))
        # the target holds 21 * 9 values, the Gram matrix 20 * 20 and the
        # time profiles 20 * 21
        for entries, shape in ((399, (20, 20)), (419, (20, 21))):
            monkeypatch.setattr(scenario_module, "_physical_memory",
                                lambda entries=entries: 8 * entries)
            with pytest.raises(ScenarioValidationError) as err:
                build_control_problem(scn)
            assert str(err.value).startswith(f"control.time_knots: needs a {shape} array")

    @pytest.mark.parametrize("resolution", [[20001], [101, 101]])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_resolution_check_covers_what_assemble_holds(self, monkeypatch, resolution, m):
        dim = len(resolution)
        sides = dict(zip(("left", "right", "bottom", "top"), ("dirichlet", "neumann") * dim))
        cfg = {"domain": {"dimension": dim, "extent": [1.0] * dim, "resolution": resolution},
               "boundaries": [sides] * m, "diffusion": [1.0] * m}
        _, peak = traced_peak(lambda: load_scenario(cfg, needs=("spatial",)))
        # refused below the loading peak, and loads with twice that
        monkeypatch.setattr(scenario_module, "_physical_memory", lambda: peak - 1)
        expect_error(cfg, f"domain.resolution: needs a {tuple(resolution)} array",
                     needs=("spatial",))
        monkeypatch.setattr(scenario_module, "_physical_memory", lambda: 2 * peak)
        load_scenario(cfg, needs=("spatial",))

    def test_resolution_check_counts_the_components(self, monkeypatch):
        cfg = base_scenario()  # 9 nodes
        monkeypatch.setattr(scenario_module, "_physical_memory", lambda: 8 * 11 * 9)
        load_scenario(cfg)
        cfg["boundaries"] *= 2
        cfg["diffusion"] *= 2
        err = expect_error(cfg, "domain.resolution: needs a (9,) array")
        assert "(nodes per axis, 15 doubles per node) of 1.08e+03 bytes" in str(err)

class TestLambdas:
    def test_must_decrease(self):
        cfg = base_scenario()
        cfg["lambdas"] = [1e-3, 1e-2]
        expect_error(cfg, "lambdas")
        cfg["lambdas"] = [1e-2, -1e-3]
        expect_error(cfg, "lambdas")
        cfg["lambdas"] = []
        expect_error(cfg, "lambdas")

    def test_valid_sequence_is_stored(self):
        cfg = base_scenario()
        cfg["lambdas"] = [1e-1, 1e-2, 1e-3]
        scn = load_scenario(cfg, needs=("state", "lambdas"))
        assert scn.lambdas == (1e-1, 1e-2, 1e-3)


class TestControlParsing:
    def control_block(self):
        return {
            "mode": "distributed",
            "time_knots": 2,
            "spatial_modes": {"kind": "constant"},
            "kappa": 0.1,
            "coefficients": [0.3, -0.2],
            "target": {"kind": "from-control", "coefficients": [0.5, 0.1]},
        }

    def test_coefficient_counts_are_enforced(self):
        cfg = base_scenario()
        cfg["control"] = self.control_block()
        cfg["control"]["coefficients"] = [1.0]
        expect_error(cfg, "control.coefficients", needs=("state", "control"))
        cfg["control"] = self.control_block()
        cfg["control"]["target"]["coefficients"] = [1.0, 2.0, 3.0]
        expect_error(cfg, "control.target.coefficients",
                     needs=("state", "control"))

    def test_kappa_must_be_positive(self):
        cfg = base_scenario()
        cfg["control"] = self.control_block()
        cfg["control"]["kappa"] = 0.0
        expect_error(cfg, "control.kappa", needs=("state", "control"))

    def test_boundary_mode_needs_neumann_nodes(self):
        cfg = base_scenario()
        cfg["boundaries"] = [{"left": "dirichlet", "right": "dirichlet"}]
        cfg["control"] = {"mode": "boundary", "time_knots": 1, "kappa": 0.1,
                          "target": {"kind": "zero"}}
        expect_error(cfg, "control.component", needs=("state", "control"))

    def test_optimizer_defaults_and_overrides(self):
        cfg = base_scenario()
        cfg["control"] = self.control_block()
        scn = load_scenario(cfg, needs=("state", "control"))
        assert scn.control.optimizer == {"max_iters": 100, "tol": 1e-8, "initial_step": 1.0}
        cfg["control"]["optimizer"] = {"max_iters": 7, "tol": 1e-5}
        scn = load_scenario(cfg, needs=("state", "control"))
        assert scn.control.optimizer["max_iters"] == 7
        assert scn.control.optimizer["tol"] == 1e-5
        assert scn.control.optimizer["initial_step"] == 1.0
        cfg["control"]["optimizer"] = {"surprise": 1}
        expect_error(cfg, "control.optimizer.surprise",
                     needs=("state", "control"))

    @pytest.mark.parametrize("path", [("p",), ("alpha",), ("control", "optimizer", "armijo_c1"),
                                      ("control", "optimizer", "max_halvings")], ids=".".join)
    def test_a_setting_that_changes_no_result_is_an_unknown_field(self, path):
        cfg = base_scenario()
        cfg["control"] = self.control_block()
        cfg["control"]["optimizer"] = {}
        json_at(cfg, path[:-1])[path[-1]] = 0.25
        err = expect_error(cfg, f"{'.'.join(path)}: unknown field", needs=("state", "control"))
        assert err.exit_code == 2

    def test_build_control_problem_targets(self):
        cfg = base_scenario()
        cfg["control"] = self.control_block()
        cfg["control"]["target"] = {"kind": "zero"}
        scn = load_scenario(cfg, needs=("state", "control"))
        problem, spec, opts = build_control_problem(scn)
        np.testing.assert_array_equal(problem.target,
                                      np.zeros_like(problem.target))
        np.testing.assert_array_equal(spec.coefficients, [0.3, -0.2])
        assert opts["max_iters"] == 100

        cfg["control"]["target"] = {"kind": "constant", "value": 0.4}
        scn = load_scenario(cfg, needs=("state", "control"))
        problem, _, _ = build_control_problem(scn)
        np.testing.assert_array_equal(problem.target,
                                      np.full_like(problem.target, 0.4))

        cfg["control"]["target"] = {"kind": "from-control",
                                    "coefficients": [0.5, 0.1]}
        scn = load_scenario(cfg, needs=("state", "control"))
        problem, spec, _ = build_control_problem(scn)
        u_d = apply_B(scn.disc, spec.with_coefficients(np.array([0.5, 0.1])), scn.solver)
        ref = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                          u_d, scn.solver)
        np.testing.assert_array_equal(problem.target, ref.states)


class TestDiagnosticParsing:
    def test_defaults_are_supplied(self):
        cfg = base_scenario()
        scn = load_scenario(cfg, needs=("state", "diagnostic"))
        assert scn.diagnostic == {"theta": 0.5, "gamma": 0.5, "component": 0,
                                  "t_min": 1e-3, "t_max": 20.0, "t_count": 400}

    def test_bounds(self):
        cfg = base_scenario()
        cfg["diagnostic"] = {"theta": 1.0}
        expect_error(cfg, "diagnostic.theta", needs=("state", "diagnostic"))
        cfg["diagnostic"] = {"t_min": 2.0, "t_max": 1.0}
        expect_error(cfg, "diagnostic.t_max", needs=("state", "diagnostic"))
        cfg["diagnostic"] = {"theta": 0.25, "t_count": 17}
        scn = load_scenario(cfg, needs=("state", "diagnostic"))
        assert scn.diagnostic["theta"] == 0.25
        assert scn.diagnostic["t_count"] == 17


class TestReactionParsing:
    def test_saturating_parameters_by_name(self):
        cfg = base_scenario()
        cfg["reaction"] = {"kind": "saturating", "state_amplitude": -0.7,
                           "state_rate": 1.1, "hysteresis_amplitude": 0.8,
                           "hysteresis_rate": 0.9}
        scn = load_scenario(cfg)
        assert scn.reaction.kind == "saturating"
        assert scn.reaction.params == (-0.7, 1.1, 0.8, 0.9)

    def test_user_table_round_trip(self):
        cfg = base_scenario()
        cfg["reaction"] = {"kind": "user-table",
                           "y_grid": [-5.0, 0.0, 5.0],
                           "z_grid": [-1.0, 1.0],
                           "values": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]}
        scn = load_scenario(cfg)
        assert scn.reaction.kind == "user-table"
        assert not scn.reaction.derivative_is_exact

    def test_bad_parameters_are_reported_with_path(self):
        cfg = base_scenario()
        cfg["reaction"] = {"kind": "linear", "constant": 0.0, "state": -0.5}
        expect_error(cfg, "reaction.hysteresis")
        cfg["reaction"] = {"kind": "linear", "constant": 0.0, "state": -0.5,
                           "hysteresis": 0.3, "growth_constant": -1.0}
        expect_error(cfg, "reaction.growth_constant: unknown field")


class TestNeedsTokens:
    def test_spatial_only_scenarios_are_minimal(self):
        cfg = {"domain": {"dimension": 1, "extent": [1.0], "resolution": [5]},
               "boundaries": [{"left": "neumann", "right": "neumann"}],
               "diffusion": [1.0]}
        scn = load_scenario(cfg, needs=("spatial",))
        assert scn.disc is not None
        assert scn.solver is None
        assert scn.source is None

    def test_state_needs_everything(self):
        cfg = {"domain": {"dimension": 1, "extent": [1.0], "resolution": [5]},
               "boundaries": [{"left": "neumann", "right": "neumann"}],
               "diffusion": [1.0]}
        expect_error(cfg, "hysteresis")

    def test_present_blocks_are_validated_even_when_not_needed(self):
        cfg = base_scenario()
        cfg["lambdas"] = [1e-3, 1e-2]
        expect_error(cfg, "lambdas", needs=("state",))

    @pytest.mark.parametrize("needs, named", [
        (("sate",), "'sate'"), ("state", "'state'"), (("state", "control", 1), "1")])
    def test_a_string_or_an_unknown_token_is_refused(self, needs, named):
        # without the source block, a loose reading would load it with source=None
        cfg = bundled("saturating")
        del cfg["source"]
        with pytest.raises(InvalidConfigError) as info:
            load_scenario(cfg, needs=needs)
        assert named in str(info.value) and not isinstance(info.value, ScenarioValidationError)
        expect_error(cfg, "source: required field is missing", needs=("state",))


class TestTextEntryPoints:
    def test_loads_round_trip(self):
        scn = load_scenario(json.loads(json.dumps(base_scenario())))
        assert scn.solver.n_steps == 5

    def test_hysteresis_config_accepts_both_shapes(self):
        bare = load_hysteresis_config({"a": -2.0, "b": 3.0, "z0": 0.5})
        wrapped = load_hysteresis_config(
            {"hysteresis": {"a": -2.0, "b": 3.0, "z0": 0.5}})
        assert bare == HysteresisConfig(a=-2.0, b=3.0, z0=0.5) == wrapped

    @pytest.mark.parametrize("cfg,message", [
        ({k: v for k, v in base_scenario().items() if k != "hysteresis"},
         "hysteresis: required field is missing"),
        ({"seed": 1, "a": -1.0, "b": 1.0, "z0": 0.0}, "hysteresis: required field is missing"),
        ({"a": -1.0, "b": 1.0, "z0": 0.0, "bogus": 1}, "hysteresis.bogus: unknown field")])
    def test_an_object_with_a_scenario_field_is_a_full_scenario(self, cfg, message):
        with pytest.raises(ScenarioValidationError, match=message):
            load_hysteresis_config(cfg)

    @pytest.mark.parametrize("extra,message", [({"seed": "not-a-seed"}, "seed: expected an integer"),
                                               ({"bogus": 1}, "bogus: unknown field")])
    def test_a_full_scenario_is_validated_whole(self, extra, message):
        with pytest.raises(ScenarioValidationError, match=message):
            load_hysteresis_config({"hysteresis": {"a": -0.5, "b": 0.5, "z0": 0}, **extra})


TWO_COMPONENT_BOX = {
    "domain": {"dimension": 2, "extent": [1.0, 0.7], "resolution": [7, 5]},
    "boundaries": [{"left": "dirichlet", "right": "neumann",
                    "bottom": "neumann", "top": "dirichlet"},
                   {"left": "neumann", "right": "neumann",
                    "bottom": "dirichlet", "top": "neumann"}],
    "diffusion": [0.8, 2.5],
    "s_weight": {"kind": "constant", "value": 0.5},
    "hysteresis": {"a": -0.1, "b": 0.1, "z0": 0.0},
    "reaction": {"kind": "linear", "constant": 0.0, "state": -0.5, "hysteresis": 0.3},
    "solver": {"dt": 0.05, "t_final": 0.5},
    "source": {"kind": "constant", "value": 1.0, "component": 1,
               "profile": {"kind": "sine", "mode": [1, 2]}},
    "direction": {"kind": "pulse", "value": 0.1, "start": 0.0, "stop": 0.2},
    "control": {"mode": "boundary", "component": 1, "time_knots": 2, "kappa": 0.1,
                "target": {"kind": "from-control", "coefficients": [0.1] * 26}},
    "diagnostic": {"theta": 0.25, "t_count": 20},
}

# the kinds and optional fields the bundled scenarios and the box leave out
TABLE_PICARD = {
    "domain": {"dimension": 1, "extent": [1.0], "resolution": [5]},
    "boundaries": [{"left": "neumann", "right": "dirichlet"}],
    "diffusion": [0.6],
    "s_weight": {"kind": "values", "values": [[0.2, 0.4, 0.6, 0.4, 0.2]]},
    "hysteresis": {"a": -0.2, "b": 0.3, "z0": 0.1},
    "reaction": {"kind": "user-table", "y_grid": [-10.0, 0.0, 10.0], "z_grid": [-1.0, 1.0],
                 "values": [[0.5, -0.5], [0.0, 0.2], [-0.5, 0.5]]},
    "solver": {"dt": 0.05, "t_final": 0.2, "scheme": "picard-sliced", "slice_length": 0.1,
               "picard_tol": 1e-9, "picard_max_iters": 30},
    "source": {"kind": "sine", "amplitude": 1.0, "omega": 3.0, "component": 0,
               "profile": {"kind": "values", "values": [0.0, 0.5, 1.0, 0.5, 0.0]}},
    "direction": {"kind": "constant", "value": 0.1, "profile": {"kind": "constant"}},
    "lambdas": [0.1, 0.01],
    "control": {"mode": "distributed", "time_knots": 2,
                "spatial_modes": {"kind": "values", "values": [[[0.0, 1.0, 1.0, 1.0, 0.0]]]},
                "coefficients": [0.1, -0.1], "kappa": 0.05, "target": {"kind": "zero"},
                "optimizer": {"max_iters": 3, "tol": 1e-6, "initial_step": 0.5}},
    "diagnostic": {"theta": 0.5, "gamma": 0.25, "component": 0, "t_min": 0.01,
                   "t_max": 2.0, "t_count": 10},
    "seed": 5,
}
LOGISTIC_CONSTANT = {
    "domain": {"dimension": 1, "extent": [2.0], "resolution": [6]},
    "boundaries": [{"left": "dirichlet", "right": "dirichlet"},
                   {"left": "neumann", "right": "neumann"}],
    "diffusion": [1.0, 0.3],
    "s_weight": {"kind": "constant", "value": -0.3},
    "hysteresis": {"a": 0.0, "b": 1.0, "z0": 1.0},
    "reaction": {"kind": "logistic-capped", "rate": 0.5, "capacity": 2.0, "cap": 3.0,
                 "hysteresis": 0.2},
    "solver": {"dt": 0.1, "t_final": 0.3, "scheme": "imex-euler"},
    "source": {"kind": "pulse", "value": 0.5, "start": 0.1, "stop": 0.2, "component": "all",
               "profile": {"kind": "sine", "mode": [2]}},
    "control": {"mode": "distributed", "time_knots": 1,
                "spatial_modes": {"kind": "constant", "component": 1}, "kappa": 1.0,
                "target": {"kind": "constant", "value": 0.5}},
}

FUZZ_NAMES = ("saturating", "linear_quadratic", "neumann_conservation", "zero")
FUZZ_BASES = [bundled(name) for name in FUZZ_NAMES]
FUZZ_BASES += [TWO_COMPONENT_BOX, TABLE_PICARD, LOGISTIC_CONSTANT]
FUZZ_NAMES += ("box", "table-picard", "logistic-constant")

# every number is small or so large that it is refused before anything is
# allocated: integers from 0..64 or from 10**15 up, floats of magnitude
# 0.01..64 or 1e15 and beyond, and the non-finite floats
FUZZ_NUMBERS = st.one_of(
    st.integers(0, 64), st.integers(min_value=10**15),
    st.floats(0.01, 64.0), st.floats(-64.0, -0.01),
    st.sampled_from([0.0, 1e15, -1e15, 1e300, math.inf, -math.inf, math.nan]))
FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), FUZZ_NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def json_paths(node, path=()):
    """The path of every value in a JSON tree, the root's () included."""
    yield path
    if isinstance(node, (dict, list)):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield from json_paths(node[key], path + (key,))


def json_at(node, path):
    for key in path:
        node = node[key]
    return node


Field, Variants = scenario_module._Field, scenario_module._Variants


def tables_of(block):
    return list(block.tables.values()) if isinstance(block, Variants) else [block]


def schema_blocks(spec=scenario_module._SCENARIO):
    """Every table and ``_Variants`` that the scenario tables reach from ``spec``."""
    yield spec
    for table in tables_of(spec):
        for f in table.values():
            if isinstance(f.type, (dict, Variants)):
                yield from schema_blocks(f.type)


VARIANT_NAMES = sorted({kind for block in schema_blocks() if isinstance(block, Variants)
                        for kind in block.tables})


def declared_field(cfg, path):
    """The ``_Field`` that the tables declare for the value at ``path`` of
    ``cfg``, or None: the root, a list entry, or an undeclared name."""
    spec, node, f = scenario_module._SCENARIO, cfg, None
    for key in path:
        if not isinstance(node, dict):
            return None
        if isinstance(spec, Variants):
            kind = node.get(spec.key)
            table = spec.tables.get(kind, {}) if isinstance(kind, str) else {}
            spec = {spec.key: Field(scenario_module._string, choices=tuple(spec.tables)),
                    **table}
        if not isinstance(spec, dict) or key not in spec:
            return None
        f, node, spec = spec[key], node[key], spec[key].type
    return f


def field_values(f):
    """Values of ``f``'s declared type: numbers at and just past each bound,
    integers around the minimum, each choice, an undeclared string and the
    variant names; JSON values of any type for arrays and blocks."""
    if f.type is scenario_module._number:
        bounds = [b for b in (f.minimum, f.exclusive_minimum, f.below) if b is not None]
        near = [x for b in bounds
                for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
        return st.one_of(st.sampled_from(near), FUZZ_NUMBERS) if near else FUZZ_NUMBERS
    if f.type is scenario_module._integer:
        low = f.minimum or 0
        return st.one_of(st.integers(low - 2, low + 2), FUZZ_NUMBERS)
    if f.type is scenario_module._string:
        return st.sampled_from([*(f.choices or ()), "undeclared", *VARIANT_NAMES])
    return FUZZ_VALUES


@st.composite
def mutated_scenarios(draw):
    """A base scenario with one or two mutations, each at a value anywhere in
    the tree: an unknown key (an entry, in a list) added to a container, or
    the value deleted or replaced, most often by a value of the type the
    tables declare for it (of a number, by a number), else by any JSON value."""
    cfg = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(json_paths(cfg))))
        node = json_at(cfg, path)
        if isinstance(node, (dict, list)) and (not path or draw(st.booleans())):
            value = draw(FUZZ_VALUES)
            if isinstance(node, dict):
                node["unknown_" + draw(st.text(max_size=3))] = value
            else:
                node.append(value)
        elif draw(st.booleans()):
            del json_at(cfg, path[:-1])[path[-1]]
        else:
            declared, values = declared_field(cfg, path), FUZZ_VALUES
            if declared is not None and draw(st.booleans()):
                values = field_values(declared)
            elif isinstance(node, (int, float)) and draw(st.booleans()):
                values = FUZZ_NUMBERS
            json_at(cfg, path[:-1])[path[-1]] = draw(values)
    return cfg


class TestFuzzedScenarios:
    @pytest.mark.parametrize("base", range(len(FUZZ_BASES)))
    def test_every_base_loads_for_the_subcommands_it_serves(self, base):
        served = [sub for sub, spec in _SUBCOMMANDS.items()
                  if all(n in ("state", "spatial") or n in FUZZ_BASES[base]
                         for n in spec.needs or ())]
        assert "simulate" in served and "hysteresis-eval" in served
        for sub in served:
            _load(sub, copy.deepcopy(FUZZ_BASES[base]))

    @settings(max_examples=300, deadline=None)
    @given(cfg=mutated_scenarios(), sub=st.sampled_from(sorted(_SUBCOMMANDS)))
    def test_a_mutated_scenario_loads_or_fails_validation(self, cfg, sub):
        try:
            _load(sub, cfg)
        except ScenarioValidationError:
            pass

    def test_the_fuzzer_reads_the_declared_fields(self):
        box = TWO_COMPONENT_BOX
        assert declared_field(box, ("solver", "dt")).exclusive_minimum == 0.0
        assert declared_field(box, ("control", "target", "kind")).choices == (
            "zero", "constant", "from-control")
        assert declared_field(box, ("control", "component")).minimum == 0
        for path in [(), ("domain", "extent", 0), ("control", "spatial_modes"), ("bogus",)]:
            assert declared_field(box, path) is None

    def test_a_field_of_another_variant_is_refused(self):
        seen = set()
        for cfg in FUZZ_BASES:
            for path, variants in variant_blocks(cfg):
                kind = json_at(cfg, path)[variants.key]
                seen.add((id(variants), kind))
                foreign = {name for table in tables_of(variants) for name in table}
                for name in sorted(foreign - set(variants.tables[kind])):
                    bad = copy.deepcopy(cfg)
                    json_at(bad, path)[name] = 1
                    expect_error(bad, f"{path_name(path)}.{name}: unknown field")
        every_kind = {(id(block), kind) for block in schema_blocks()
                      if isinstance(block, Variants) for kind in block.tables}
        assert seen == every_kind  # the bases hold every kind of every block


def variant_blocks(node, spec=scenario_module._SCENARIO, path=()):
    """(path, ``_Variants``) of every block of ``node`` that has a kind (or mode)."""
    if isinstance(spec, Variants):
        yield path, spec
        spec = spec.tables[node[spec.key]]
    if isinstance(spec, dict):
        for key, f in spec.items():
            if key in node:
                yield from variant_blocks(node[key], f.type, path + (key,))


def test_readme_names_every_declared_field():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("## Scenario files"):text.index("## Artifact formats")]
    names = set(scenario_module._SIDES)
    for block in schema_blocks():
        names.update(name for table in tables_of(block) for name in table)
        if isinstance(block, Variants):
            names.add(block.key)
    assert [n for n in sorted(names) if f"`{n}`" not in section and f'"{n}"' not in section] == []


# single faults: at every path of every base, the value deleted, an unknown
# key (a copy of the last entry, in a list) added, or the value replaced by
# each of these
FAULT_MENU = (None, True, "x", -1, 0, 1, 2, 3, 0.5, -0.5, 1e15, 1e300, math.nan, math.inf,
              [], {}, [1.0], [[1.0]], ["x"], {"kind": "constant"})
SINGLE_FAULT_GOLDEN = os.path.join(os.path.dirname(__file__), "single_fault_verdicts.json")
SINGLE_FAULT_STRIDE = 7  # tier-1 checks every 7th case


def path_name(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def single_faults():
    """(case name, build) for every single fault of every base, in a fixed
    order; ``build()`` returns the faulty scenario."""
    def build(base, path, fault, value=None):
        cfg = copy.deepcopy(base)
        if not path:
            return copy.deepcopy(value)
        parent, key = json_at(cfg, path[:-1]), path[-1]
        if fault == "delete":
            del parent[key]
        elif fault == "add" and isinstance(parent[key], dict):
            parent[key]["unknown"] = 1
        elif fault == "add":
            parent[key].append(copy.deepcopy(parent[key][-1]))
        else:
            parent[key] = copy.deepcopy(value)
        return cfg

    for name, base in zip(FUZZ_NAMES, FUZZ_BASES):
        for path in json_paths(base):
            node = json_at(base, path)
            where = f"{name} {path_name(path) or '<root>'}"
            if path:
                yield f"{where} delete", lambda b=base, p=path: build(b, p, "delete")
            if isinstance(node, (dict, list)) and path:
                yield f"{where} add", lambda b=base, p=path: build(b, p, "add")
            for value in FAULT_MENU:
                yield (f"{where} = {json.dumps(value)}",
                       lambda b=base, p=path, v=value: build(b, p, "replace", v))


def load_verdict(cfg, sub):
    """'ok', or the validation message, of the CLI's load step for ``sub`` on ``cfg``."""
    try:
        _load(sub, cfg)
    except ScenarioValidationError as exc:
        return str(exc)
    return "ok"


def single_fault_verdicts(stride=1):
    """Each strided case's verdict: one string when every subcommand gives
    it, else a verdict per subcommand."""
    out = {}
    for i, (case, build) in enumerate(single_faults()):
        if i % stride == 0:
            cfg = build()
            verdicts = {sub: load_verdict(cfg, sub) for sub in sorted(_SUBCOMMANDS)}
            same = len(set(verdicts.values())) == 1
            out[case] = next(iter(verdicts.values())) if same else verdicts
    return out


def golden_delta(verdicts, golden):
    """The golden keys that no case produces, the cases the file lacks, and
    the cases whose verdict differs from the file's."""
    stale = [case for case in golden if case not in verdicts]
    missing = [case for case in verdicts if case not in golden]
    differ = [case for case in verdicts if case in golden and verdicts[case] != golden[case]]
    return stale, missing, differ


def golden_report(verdicts, golden):
    """The standalone check's lines, and whether it fails."""
    stale, missing, differ = golden_delta(verdicts, golden)
    lines = [f"{case}\n  golden: {golden[case]}\n  now:    {verdicts[case]}" for case in differ]
    changes = collections.Counter(
        (json.dumps(golden[case]), json.dumps(verdicts[case])) for case in differ)
    lines += [f"{count:5d} x {was} -> {now}" for (was, now), count in changes.most_common()]
    lines += [f"no case produces the golden key {case!r}" for case in stale]
    lines += [f"the golden file lacks the case {case!r}" for case in missing]
    extra = f", {len(stale)} stale, {len(missing)} missing" if stale or missing else ""
    lines.append(f"{len(verdicts)} cases x {len(_SUBCOMMANDS)} subcommands, "
                 f"{len(differ)} differ{extra}")
    return lines, bool(differ or stale or missing)


class TestSingleFaults:
    """Every single fault's verdict is pinned in ``single_fault_verdicts.json``.

    ``python tests/test_scenario.py`` compares every case, not only the
    stride tier-1 runs, prints the ones that differ, then one line per
    (golden verdict -> new verdict) pair with its count, then each golden
    key that no case produces and each case the file lacks, and exits 1 if
    there is any; ``python tests/test_scenario.py --write`` prints how many
    keys it removes, adds and changes, then rewrites the file."""

    def test_the_golden_file_names_every_case(self):
        with open(SINGLE_FAULT_GOLDEN) as fh:
            golden = json.load(fh)
        assert [case for case, _ in single_faults()] == list(golden)

    def test_every_strided_verdict_matches_the_golden_file(self):
        with open(SINGLE_FAULT_GOLDEN) as fh:
            golden = json.load(fh)
        for case, verdict in single_fault_verdicts(SINGLE_FAULT_STRIDE).items():
            assert verdict == golden[case], case


class TestGoldenReport:
    """The standalone check fails on a stale golden key, a case the file
    lacks and a changed verdict alike."""

    GOLDEN = {"a": "ok", "b": "b: must be positive"}

    def test_a_matching_file_passes(self):
        lines, failed = golden_report(dict(self.GOLDEN), self.GOLDEN)
        assert not failed
        assert lines == [f"2 cases x {len(_SUBCOMMANDS)} subcommands, 0 differ"]

    def test_a_stale_golden_key_fails(self):
        lines, failed = golden_report({"a": "ok"}, self.GOLDEN)
        assert failed
        assert lines == ["no case produces the golden key 'b'",
                         f"1 cases x {len(_SUBCOMMANDS)} subcommands, 0 differ, 1 stale, 0 missing"]

    def test_a_case_the_file_lacks_fails(self):
        lines, failed = golden_report({**self.GOLDEN, "c": "ok"}, self.GOLDEN)
        assert failed
        assert lines == ["the golden file lacks the case 'c'",
                         f"3 cases x {len(_SUBCOMMANDS)} subcommands, 0 differ, 0 stale, 1 missing"]

    def test_a_changed_verdict_fails(self):
        lines, failed = golden_report({"a": "ok", "b": "ok"}, self.GOLDEN)
        assert failed
        assert lines == ["b\n  golden: b: must be positive\n  now:    ok",
                         '    1 x "b: must be positive" -> "ok"',
                         f"2 cases x {len(_SUBCOMMANDS)} subcommands, 1 differ"]

    def test_the_delta_counts_removed_added_and_changed_keys(self):
        verdicts = {"b": "ok", "c": "ok", "d": "ok"}
        assert golden_delta(verdicts, self.GOLDEN) == (["a"], ["c", "d"], ["b"])


class TestArrayEntries:
    @pytest.mark.parametrize("entries", [["0.1", "0.01"], [True, 0.01], [0.1, None],
                                         [0.1, [0.01]], [0.1, {}], [10**400]])
    def test_every_entry_must_be_a_number(self, entries):
        cfg = base_scenario()
        cfg["lambdas"] = entries
        expect_error(cfg, "lambdas: expected an array of numbers")

    def test_integers_and_floats_are_numbers(self):
        cfg = base_scenario()
        cfg["lambdas"] = [1, 0.5, 10**-3]
        assert load_scenario(cfg).lambdas == (1.0, 0.5, 1e-3)
        cfg["source"] = {"kind": "constant", "value": 1.0,
                         "profile": {"kind": "values", "values": [0, 1] * 4 + [1.5]}}
        load_scenario(cfg)
        cfg["source"]["profile"]["values"][3] = "1"
        expect_error(cfg, "source.profile.values: expected an array of numbers")


if __name__ == "__main__":
    verdicts = single_fault_verdicts()
    with open(SINGLE_FAULT_GOLDEN) as fh:
        golden = json.load(fh)
    if sys.argv[1:] == ["--write"]:
        stale, missing, differ = golden_delta(verdicts, golden)
        print(f"{len(stale)} removed, {len(missing)} added, {len(differ)} changed")
        lines = (f"{json.dumps(case)}: {json.dumps(v, allow_nan=False)}"
                 for case, v in verdicts.items())
        with open(SINGLE_FAULT_GOLDEN, "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    else:
        lines, failed = golden_report(verdicts, golden)
        print("\n".join(lines))
        sys.exit(1 if failed else 0)
