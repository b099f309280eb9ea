import copy
import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stopsim
from stopsim import (
    HysteresisConfig,
    PiecewiseLinearSignal,
    ScenarioValidationError,
    load_scenario,
    solve_state,
    stop_evaluate,
)
from stopsim import spatial
from stopsim.cli import _SUBCOMMANDS, _build_parser, _load, _write_csv, main, read_signal_csv

from conftest import traced_peak
from test_scenario import TABLE_PICARD, single_faults


def package_env():
    """Environment whose PYTHONPATH leads with the imported package's parent."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(stopsim.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def small_config(**overrides):
    cfg = {
        "domain": {"dimension": 1, "extent": [1.0], "resolution": [9]},
        "boundaries": [{"left": "dirichlet", "right": "neumann"}],
        "diffusion": [0.8],
        "s_weight": {"kind": "constant", "value": 0.5},
        "hysteresis": {"a": -0.1, "b": 0.1, "z0": 0.0},
        "reaction": {"kind": "linear", "constant": 0.0, "state": -0.5,
                     "hysteresis": 0.3},
        "solver": {"dt": 0.05, "t_final": 0.5},
        "source": {"kind": "sine", "amplitude": 2.0, "omega": 4.0,
                   "profile": {"kind": "sine", "mode": 1}},
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


PICARD = {"dt": 0.05, "t_final": 0.5, "scheme": "picard-sliced",
          "slice_length": 0.2}
PICARD_SLICES = {"scheme": "picard-sliced", "slice_length": 0.05}
BIG_SOURCE = {"kind": "constant", "value": 1e10}
UNIT_CONTROL = {"mode": "distributed", "time_knots": 1,
                "spatial_modes": {"kind": "sine", "count": 1},
                "kappa": 0.1, "target": {"kind": "constant", "value": 1.0}}
OVERFLOW = ("error: state blew up at step 9 (t=0.45): magnitude 1.418e+13 "
            "exceeds guard 1.0e+12\n")
NAN = "error: state became non-finite at step 2 (t=0.1)\n"


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0]
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in lines[1:]])
    return header, rows


def no_temp_litter(root):
    leftovers = [p for p in root.rglob(".tmp-*")]
    return leftovers == []


def csv_text(tmp_path, *columns):
    """The lines below the header that ``_write_csv`` writes for ``columns``."""
    path = tmp_path / "out.csv"
    _write_csv(str(path), "h", columns)
    return path.read_text().split("\n")[1:-1]


class TestFormatting:
    def test_seventeen_digit_floats(self, tmp_path):
        assert csv_text(tmp_path, [0.05, 1.0, np.float64(0.1)]) \
            == ["0.050000000000000003", "1", "0.10000000000000001"]
        assert csv_text(tmp_path, np.array([3, -2]), [0.5, -0.0]) \
            == ["3,0.5", "-2,-0"]
        assert csv_text(tmp_path, [np.nan, np.inf], [-np.inf, 0.0]) \
            == ["nan,-inf", "inf,0"]

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(50)
        xs = rng.standard_normal(200)
        assert [float(line) for line in csv_text(tmp_path, xs)] == xs.tolist()


class TestSimulate:
    def test_bundled_zero_run(self, tmp_path, capsys):
        rc = main(["simulate", "--config", "bundled:zero",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == "t,z,S_y,norm_y"
        assert rows.shape == (21, 4)
        np.testing.assert_array_equal(rows[:, 1:], np.zeros((21, 3)))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["config"] == "bundled:zero"
        assert manifest["seed"] == 0
        assert manifest["artifacts"] == ["trajectory.csv"]
        assert len(manifest["config_sha256"]) == 64
        assert "wrote" in capsys.readouterr().out
        assert no_temp_litter(tmp_path)

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["simulate", "--config", "bundled:saturating",
                       "--out", str(tmp_path / sub), "--quiet"])
            assert rc == 0
        for name in ("trajectory.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("left", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("right", ["dirichlet", "neumann"])
    def test_tiny_grids_match_superlu(self, tmp_path, monkeypatch, n, left,
                                      right):
        cfg = small_config(domain={"dimension": 1, "extent": [1.0],
                                   "resolution": [n]},
                           boundaries=[{"left": left, "right": right}])
        path = write_config(tmp_path, cfg)

        def states(out):
            rc = main(["simulate", "--config", path, "--out", str(out),
                       "--snapshot", "--quiet"])
            assert rc == 0
            raw = (out / "state.bin").read_bytes()
            return np.frombuffer(raw[4 * 8:], dtype=np.float64)

        ours = states(tmp_path / "ours")
        monkeypatch.setattr(spatial, "_component_solver", spatial._SuperLUSolve)
        lu = states(tmp_path / "lu")
        assert np.max(np.abs(ours - lu)) <= 1e-12 * np.max(np.abs(lu))

    def test_2d_reruns_are_byte_identical(self, tmp_path):
        # each run in a fresh process with the BLAS library's own thread
        # count, since the 2D step multiplies by dense axis eigenbases
        cfg = small_config(
            domain={"dimension": 2, "extent": [1.0, 0.8],
                    "resolution": [65, 49]},
            boundaries=[{"left": "dirichlet", "right": "neumann",
                         "bottom": "neumann", "top": "dirichlet"}],
            solver={"dt": 0.01, "t_final": 0.2},
        )
        path = write_config(tmp_path, cfg)
        env = package_env()
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        for sub in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "stopsim", "simulate", "--config", path,
                 "--out", str(tmp_path / sub), "--snapshot", "--quiet"],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        for name in ("trajectory.csv", "state.bin"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_snapshot_matches_the_solver_state(self, tmp_path):
        cfg = small_config()
        path = write_config(tmp_path, cfg)
        rc = main(["simulate", "--config", path, "--out", str(tmp_path),
                   "--snapshot", "--quiet"])
        assert rc == 0
        raw = (tmp_path / "state.bin").read_bytes()
        header = np.frombuffer(raw[:4 * 8], dtype=np.int64)
        np.testing.assert_array_equal(header, [1, 9, 1, 10])
        states = np.frombuffer(raw[4 * 8:], dtype=np.float64)
        states = states.reshape(11, 1, 9)
        scn = load_scenario(cfg)
        traj = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                           scn.source, scn.solver)
        np.testing.assert_array_equal(states, traj.states)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == ["trajectory.csv", "state.bin"]

    def test_trajectory_times_carry_full_precision(self, tmp_path):
        path = write_config(tmp_path, small_config())
        main(["simulate", "--config", path, "--out", str(tmp_path),
              "--quiet"])
        text = (tmp_path / "trajectory.csv").read_text()
        assert "0.050000000000000003" in text

    @staticmethod
    def grid_config(t_final, scheme):
        return small_config(
            domain={"dimension": 2, "extent": [1.0, 1.0], "resolution": [41, 41]},
            boundaries=[{"left": "dirichlet", "right": "neumann",
                         "bottom": "dirichlet", "top": "neumann"}],
            solver={"dt": 0.01, "t_final": t_final, **scheme})

    @pytest.mark.parametrize("scheme", [{}, PICARD_SLICES])
    def test_a_run_without_snapshot_holds_no_state_path(self, tmp_path, scheme):
        peaks, path_bytes = [], []
        for t_final in (1.0, 2.0):
            path = write_config(tmp_path, self.grid_config(t_final, scheme))
            rc, peak = traced_peak(lambda: main(
                ["simulate", "--config", path, "--out", str(tmp_path), "--quiet"]))
            assert rc == 0
            peaks.append(peak)
            path_bytes.append((round(t_final / 0.01) + 1) * 41 * 41 * 8)
        assert peaks[0] < path_bytes[0]
        # the scalar channels and the CSV lines grow with the step count,
        # a state path by 1.3 MB
        assert peaks[1] - peaks[0] < path_bytes[0] / 20

    def test_a_snapshot_holds_the_state_path_once(self, tmp_path):
        # the header and then the path's own buffer go to the file in turn:
        # the run peaks at 1.10 times the path (41x41, 200 steps), where
        # joining them into one bytes object peaked at 3.04 times
        path = write_config(tmp_path, self.grid_config(2.0, {}))
        rc, peak = traced_peak(lambda: main(["simulate", "--config", path, "--out",
                                             str(tmp_path), "--quiet", "--snapshot"]))
        assert rc == 0
        assert peak < 1.3 * 201 * 41 * 41 * 8

    @pytest.mark.parametrize("scheme", [{}, PICARD_SLICES])
    def test_trajectory_is_the_same_with_and_without_snapshot(self, tmp_path, scheme):
        path = write_config(tmp_path, self.grid_config(0.3, scheme))
        for sub, extra in (("plain", []), ("snap", ["--snapshot"])):
            assert main(["simulate", "--config", path, "--out",
                         str(tmp_path / sub), "--quiet", *extra]) == 0
        assert (tmp_path / "plain" / "trajectory.csv").read_bytes() \
            == (tmp_path / "snap" / "trajectory.csv").read_bytes()

    def test_the_manifest_records_the_scenario_seed(self, tmp_path):
        unseeded = small_config()
        del unseeded["seed"]
        for sub, cfg, seed in (("x", small_config(), 3), ("y", unseeded, None)):
            path = write_config(tmp_path, cfg)
            assert main(["simulate", "--config", path, "--out", str(tmp_path / sub),
                         "--quiet"]) == 0
            manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
            assert manifest["seed"] == seed

    def test_consecutive_calls_share_the_parser_but_no_state(self, tmp_path, capsys):
        cfg = small_config(direction={"kind": "constant", "value": 0.1,
                                      "profile": {"kind": "sine", "mode": 1}})
        path = write_config(tmp_path, cfg)
        runs = [(["simulate", "--snapshot", "--quiet"], ["trajectory.csv", "state.bin"]),
                (["sensitivity", "--quiet"], ["sensitivity.csv"]),
                (["simulate"], ["trajectory.csv"])]
        for k, (argv, artifacts) in enumerate(runs):
            out = tmp_path / f"run{k}"
            assert main(argv + ["--config", path, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["subcommand"] == argv[0]
            assert manifest["seed"] == 3
            assert manifest["artifacts"] == artifacts
            assert sorted(p.name for p in out.iterdir()) == sorted(artifacts + ["manifest.json"])
        assert capsys.readouterr().out.count("wrote") == 2  # only the last run speaks
        assert _build_parser() is _build_parser()

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        main(["simulate", "--config", "bundled:zero",
              "--out", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""


# inputs that once ended in a traceback or ran: each exits 2 with one line
SIDES_2D = [{"left": "dirichlet", "right": "neumann", "bottom": "neumann", "top": "neumann"}]
REFUSED_INPUTS = {
    # a slice that rounds to zero steps
    "slice-length": ("simulate", {"solver": {"dt": 0.02, "t_final": 1.2, "scheme": "picard-sliced",
                                             "slice_length": 1e-300}},
                     "error: solver: slice_length=1e-300 must be a positive multiple of dt\n"),
    # arrays that one scenario number sizes, each past any machine's memory
    "t-count": ("diagnose-semigroup", {"diagnostic": {"t_count": 10**15}},
                "error: diagnostic.t_count: needs a (1000000000000000,) array (times)"),
    "time-knots": ("optimize", {"control": dict(UNIT_CONTROL, time_knots=10**15)},
                   "error: control.time_knots: needs a (1000000000000000,) array"),
    "mode-count": ("optimize", {"control": dict(UNIT_CONTROL, spatial_modes={
                       "kind": "sine", "count": 10**15})},
                   "error: control.spatial_modes.count: needs a (1000000000000000, 1, 9) array"),
    "resolution": ("diagnose-semigroup", {"domain": {"dimension": 2, "extent": [1.0, 1.0],
                                                     "resolution": [10**8, 10**8]},
                                          "boundaries": SIDES_2D},
                   "error: domain.resolution: needs a (100000000, 100000000) array"),
    # the node count wraps to 0 in int64
    "resolution-2**64": ("diagnose-semigroup", {"domain": {"dimension": 2, "extent": [1.0, 1.0],
                                                           "resolution": [2**32, 2**32]},
                                                "boundaries": SIDES_2D},
                         "error: domain.resolution: needs a (4294967296, 4294967296) array"),
    # a mode number past float range
    "huge-mode": ("simulate", {"source": {"kind": "constant", "value": 1.0, "profile": {
                      "kind": "sine", "mode": 10**400}}},
                  "error: source.profile.mode: mode numbers must be less than 2**53\n"),
    # a phase omega * t past float range
    "sine-phase": ("simulate", {"source": {"kind": "sine", "amplitude": 2.0, "omega": 1e300},
                                "solver": {"dt": 1e10, "t_final": 2e10}},
                   "error: source.omega: omega * t_final must be finite\n"),
    # array entries that are not numbers
    "string-lambdas": ("fd-check", {"lambdas": ["0.1", "0.01"],
                                    "direction": {"kind": "constant", "value": 0.1}},
                       "error: lambdas: expected an array of numbers\n"),
    "integer-past-float": ("fd-check", {"lambdas": [10**400],
                                        "direction": {"kind": "constant", "value": 0.1}},
                           "error: lambdas: expected an array of numbers\n"),
    "string-profile": ("simulate", {"source": {"kind": "constant", "value": 1.0, "profile": {
                           "kind": "values", "values": ["1"] * 9}}},
                       "error: source.profile.values: expected an array of numbers\n"),
    "boolean-diffusion": ("simulate", {"diffusion": [True]},
                          "error: diffusion: expected an array of numbers\n"),
    # a full scenario given to hysteresis-eval is validated whole
    "eval-seed": ("hysteresis-eval", {"seed": "not-a-seed"},
                  "error: seed: expected an integer\n"),
    "eval-unknown-field": ("hysteresis-eval", {"seed": "not-a-seed", "bogus": 1},
                           "error: bogus: unknown field\n"),
    # an integer past the float range where a number goes
    "integer-dt": ("simulate", {"solver": {"dt": 10**400, "t_final": 0.5}},
                   "error: solver.dt: must be finite\n"),
    "integer-a": ("simulate", {"hysteresis": {"a": -10**400, "b": 0.1, "z0": 0.0}},
                  "error: hysteresis.a: must be finite\n"),
    # a step count past 2**53, or infinite
    "dt-denormal": ("simulate", {"solver": {"dt": 5e-324, "t_final": 0.5}},
                    "error: solver: t_final=0.5 / dt=5e-324 is inf steps, over 2**53\n"),
    "dt-tiny": ("simulate", {"solver": {"dt": 1e-300, "t_final": 0.5}},
                "error: solver: t_final=0.5 / dt=1e-300 is 5e+299 steps, over 2**53\n"),
    # a field that only the other control mode reads
    "distributed-component": ("optimize", {"control": dict(UNIT_CONTROL, component="garbage")},
                              "error: control.component: unknown field\n"),
    "boundary-spatial-modes": ("optimize", {"control": {
                                   "mode": "boundary", "time_knots": 1, "kappa": 0.1,
                                   "target": {"kind": "zero"},
                                   "spatial_modes": {"kind": "nonsense"}}},
                               "error: control.spatial_modes: unknown field\n"),
    # no declared growth bound: every reaction kind grows at most linearly
    "growth-constant": ("simulate", {"reaction": {"kind": "linear", "constant": 0.0, "state": -0.5,
                                                  "hysteresis": 0.3, "growth_constant": 2.0}},
                        "error: reaction.growth_constant: unknown field\n"),
}


class TestValidationFailures:
    def test_inverted_band_names_the_field(self, tmp_path, capsys):
        cfg = small_config(hysteresis={"a": 0.5, "b": -0.5, "z0": 0.0})
        path = write_config(tmp_path, cfg)
        rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "hysteresis.a" in err

    def test_there_is_no_seed_flag(self, tmp_path, capsys):
        # the manifest records the scenario's own seed; no flag overrides it
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--config", "bundled:zero", "--seed", "7",
                  "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_bundled_scenario(self, tmp_path, capsys):
        rc = main(["simulate", "--config", "bundled:nope",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown bundled scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../scenarios/zero", "./zero", "zero.json", ""])
    def test_only_shipped_scenarios_are_bundled(self, name, tmp_path, capsys):
        rc = main(["simulate", "--config", f"bundled:{name}", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown bundled scenario {name!r}\n"
        assert not (tmp_path / "manifest.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_must_be_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["simulate", "--config", str(path),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_cli_arguments_exit_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_blowup_exits_three(self, tmp_path, capsys):
        cfg = small_config(
            reaction={"kind": "linear", "constant": 0.0, "state": 50.0,
                      "hysteresis": 0.0},
            solver={"dt": 0.1, "t_final": 5.0},
            source={"kind": "constant", "value": 1.0},
        )
        path = write_config(tmp_path, cfg)
        rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e15, 1e300])
    def test_a_table_past_the_guard_blows_up(self, value, tmp_path, capsys):
        # a table entry this large is a valid reaction; the run's own guard stops it
        cfg = copy.deepcopy(TABLE_PICARD)
        cfg["reaction"]["values"][1][0] = value
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: state blew up at step 1"), err

    def test_lipschitz_constant_is_an_unknown_field(self, tmp_path, capsys):
        cfg = small_config()
        cfg["reaction"]["lipschitz_constant"] = 0.5
        path = write_config(tmp_path, cfg)
        rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "reaction.lipschitz_constant" in err

    def test_overflow_leaves_only_the_error_line(self, tmp_path):
        # numpy's overflow warnings must not reach stderr ahead of the
        # guard's own report
        cfg = small_config(
            reaction={"kind": "linear", "constant": 0.0, "state": 50.0,
                      "hysteresis": 0.0},
            source={"kind": "zero"},
            direction={"kind": "constant", "value": 1e308},
        )
        path = write_config(tmp_path, cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "stopsim", "sensitivity", "--config", path,
             "--out", str(tmp_path), "--quiet"],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 3
        assert proc.stderr == ("error: sensitivity overflowed at step 1 (t=0.05): "
                               "its squared norm is not finite\n")

    @pytest.mark.parametrize("solver", [None, PICARD], ids=["direct", "picard"])
    def test_direction_overflowing_only_in_its_norm_names_the_step(self, tmp_path, solver):
        # every product of the direction's factors is finite (the largest is
        # 1e308 itself), and so is every sensitivity, but the squared norm of
        # the first one is not: the run stops naming that step, with no
        # traceback and no numpy warning
        direction = {"kind": "constant", "value": 1e308,
                     "profile": {"kind": "values", "values": [1.0] * 9}}
        cfg = small_config(direction=direction, **({"solver": solver} if solver else {}))
        path = write_config(tmp_path, cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "stopsim", "sensitivity", "--config", path,
             "--out", str(tmp_path), "--quiet"],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 3
        assert proc.stderr == ("error: sensitivity overflowed at step 1 (t=0.05): "
                               "its squared norm is not finite\n")

    def test_oversized_scenario_names_the_field(self, tmp_path, capsys):
        # the source alone would take (12000001, 1, 100001) float64 values,
        # several TiB, so it is refused before anything is allocated
        text = resources.files("stopsim").joinpath(
            "scenarios", "saturating.json").read_text()
        cfg = json.loads(text)
        cfg["domain"]["resolution"] = [100001]
        cfg["solver"]["dt"] = 1e-7
        path = write_config(tmp_path, cfg)
        rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: source: needs a (12000001, 1, 100001) array")

    @pytest.mark.parametrize("case", list(REFUSED_INPUTS))
    def test_refused_input_leaves_one_error_line(self, case, tmp_path, capsys):
        sub, overrides, expected = REFUSED_INPUTS[case]
        path = write_config(tmp_path, small_config(**overrides))
        argv = [sub, "--config", path, "--out", str(tmp_path), "--quiet"]
        if sub == "hysteresis-eval":  # refused before the signal is read
            argv += ["--input", str(tmp_path / "absent.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(expected), err

    def test_direction_overflowing_in_its_products_exits_two(self, tmp_path, capsys):
        # each factor is finite, but 1e308 * 10.0 is not
        values = [1.0] * 9
        values[4] = 10.0
        direction = {"kind": "constant", "value": 1e308,
                     "profile": {"kind": "values", "values": values}}
        path = write_config(tmp_path, small_config(direction=direction))
        rc = main(["sensitivity", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: direction: entries must be finite\n"

    def test_source_overflowing_in_its_products_exits_two(self, tmp_path, capsys):
        # each factor is finite, but 1e308 * 10.0 is not
        values = [1.0] * 9
        values[4] = 10.0
        source = {"kind": "constant", "value": 1e308,
                  "profile": {"kind": "values", "values": values}}
        path = write_config(tmp_path, small_config(source=source))
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: source: entries must be finite\n"

    def test_a_non_finite_state_is_not_given_a_magnitude(self, tmp_path, capsys):
        # a valid scenario whose state overflows to inf and then nan at step 2
        cfg = json.loads(resources.files("stopsim").joinpath(
            "scenarios", "saturating.json").read_text())
        cfg["reaction"] = {"kind": "linear", "constant": 0.0, "state": 1e300,
                           "hysteresis": 0.0}
        cfg["source"] = BIG_SOURCE
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "error: state became non-finite at step 2 (t=0.04)\n")

    def test_non_finite_adjoint_leaves_only_the_error_line(self, tmp_path):
        cfg = small_config(
            reaction={"kind": "linear", "constant": 0.0, "state": 1e200,
                      "hysteresis": 0.0},
            source={"kind": "zero"},
            control={"mode": "distributed", "time_knots": 1,
                     "spatial_modes": {"kind": "sine", "count": 1},
                     "kappa": 0.1, "target": {"kind": "constant", "value": 1.0}},
        )
        path = write_config(tmp_path, cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "stopsim", "optimize", "--config", path,
             "--out", str(tmp_path), "--quiet"],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: adjoint overflowed at step")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("subcommand,overrides,message", [
        ("simulate", {"state": 3000.0}, OVERFLOW),
        ("simulate", {"state": 3000.0, "solver": PICARD}, OVERFLOW),
        ("simulate", {"state": 1e300, "source": BIG_SOURCE}, NAN),
        ("simulate", {"state": 1e300, "source": BIG_SOURCE, "solver": PICARD}, NAN),
        ("sensitivity", {"state": 50.0, "source": {"kind": "zero"},
                         "direction": {"kind": "constant", "value": 1e308},
                         "solver": PICARD},
         "error: sensitivity overflowed at step 1 (t=0.05): its squared norm is not finite\n"),
        ("optimize", {"state": 1e200, "source": {"kind": "zero"},
                      "control": UNIT_CONTROL},
         "error: adjoint overflowed at step 8 (t=0.4): its squared norm is not finite\n"),
    ], ids=["overflow", "overflow-picard", "nan", "nan-picard",
            "sensitivity-picard", "adjoint"])
    def test_numerical_failure_names_its_step(self, tmp_path, capsys,
                                              subcommand, overrides, message):
        overrides = dict(overrides)
        overrides["reaction"] = {"kind": "linear", "constant": 0.0,
                                 "state": overrides.pop("state"),
                                 "hysteresis": 0.0}
        path = write_config(tmp_path, small_config(**overrides))
        rc = main([subcommand, "--config", path, "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("solver", [
        {"dt": 0.05, "t_final": 0.5},
        {"dt": 0.05, "t_final": 0.5, "scheme": "picard-sliced",
         "slice_length": 0.2},
    ])
    def test_inexact_solve_exits_three(self, tmp_path, capsys, monkeypatch,
                                       solver):
        step = spatial._Stepper.step

        def perturbed(self, y, out):
            step(self, y, out)
            out *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(spatial._Stepper, "step", perturbed)
        path = write_config(tmp_path, small_config(solver=solver))
        rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: implicit step solve failed for component 0")

    def test_inexact_adjoint_solve_exits_three(self, tmp_path, capsys,
                                               monkeypatch):
        adjoint = spatial._Stepper.adjoint

        def perturbed(self, out):
            adjoint(self, out)
            out *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(spatial._Stepper, "adjoint", perturbed)
        cfg = small_config(
            control={"mode": "distributed", "time_knots": 1,
                     "spatial_modes": {"kind": "sine", "count": 1},
                     "kappa": 0.1, "target": {"kind": "constant", "value": 1.0}})
        path = write_config(tmp_path, cfg)
        rc = main(["optimize", "--config", path, "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: adjoint step solve failed for component 0")

    def test_non_contraction_exits_four(self, tmp_path, capsys):
        cfg = small_config(
            reaction={"kind": "linear", "constant": 0.0, "state": 50.0,
                      "hysteresis": 0.0},
            solver={"dt": 0.05, "t_final": 1.0, "scheme": "picard-sliced",
                    "picard_tol": 1e-12, "picard_max_iters": 3},
            source={"kind": "constant", "value": 1.0},
        )
        path = write_config(tmp_path, cfg)
        rc = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 4
        assert "error:" in capsys.readouterr().err


# whole runs of single-fault scenarios (``test_scenario.single_faults``) under
# every subcommand but hysteresis-eval, which also reads a signal; runtime
# caps, not part of the fault: at most 3 optimizer iterations, and no grid
# over 2e5 node-steps
FUZZ_SUBCOMMANDS = [sub for sub, spec in _SUBCOMMANDS.items() if spec.needs is not None]
CLI_FUZZ_STRIDE = 53  # tier-1 runs every 53rd case
MAX_NODE_STEPS = 2e5


def fuzz_runs(stride):
    """(case, subcommand, scenario) of every ``stride``-th single fault under
    each subcommand, the scenario capped to run briefly; runs whose grid is
    over the cap are left out."""
    for i, (case, build) in enumerate(single_faults()):
        if i % stride:
            continue
        cfg = build()
        control = cfg.get("control") if isinstance(cfg, dict) else None
        if isinstance(control, dict) and isinstance(control.get("optimizer", {}), dict):
            optimizer = control.setdefault("optimizer", {})
            if type(optimizer.get("max_iters", 100)) is int and optimizer.get("max_iters", 100) > 3:
                optimizer["max_iters"] = 3
        for sub in FUZZ_SUBCOMMANDS:
            try:
                scn = _load(sub, copy.deepcopy(cfg))
                too_big = scn.solver and scn.disc.n_nodes * scn.solver.n_steps > MAX_NODE_STEPS
            except ScenarioValidationError:
                too_big = False
            if not too_big:
                yield case, sub, cfg


class TestFuzzedRuns:
    def test_a_single_fault_run_exits_with_at_most_one_error_line(self, tmp_path, capsys):
        runs = 0
        for case, sub, cfg in fuzz_runs(CLI_FUZZ_STRIDE):
            out = tmp_path / str(runs)
            rc = main([sub, "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"])
            err = capsys.readouterr().err
            assert rc in (0, 2, 3, 4), (case, sub)
            assert rc == 0 or (err.count("\n") == 1 and err.startswith("error: ")), (case, sub, err)
            runs += 1
        assert runs > 500


def test_readme_lists_every_subcommand():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text[text.index("| Subcommand |"):]
    rows = table[:table.index("\n\n")].splitlines()[2:]
    assert [row.split("`")[1] for row in rows] == list(_SUBCOMMANDS)


class TestFileErrors:
    """An input that cannot be read, or an output that cannot be written,
    exits 2 with one error line naming the file as given and leaves no
    temporary file behind."""

    @pytest.mark.parametrize("case", ["config", "signal", "out under a file", "out is a file",
                                      "output in a missing directory", "output is a directory"])
    def test_exits_two_naming_the_file(self, case, tmp_path, capsys):
        config = write_config(tmp_path, {"a": -1.0, "b": 1.0, "z0": 0.0})
        signal = tmp_path / "signal.csv"
        signal.write_text("t,v\n0,0\n1,1\n")
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = {"--config": config, "--input": str(signal), "--out": str(tmp_path / "run")}
        flag, named = {
            "config": ("--config", config),
            "signal": ("--input", str(signal)),
            "out under a file": ("--out", str(blocker / "run")),
            "out is a file": ("--out", str(blocker)),
            "output in a missing directory": ("--output", str(tmp_path / "missing" / "x.csv")),
            "output is a directory": ("--output", str(tmp_path)),
        }[case]
        args[flag] = named
        if flag in ("--config", "--input"):  # a byte that starts no UTF-8 sequence
            with open(named, "ab") as fh:
                fh.write(b"\xff")
        argv = ["hysteresis-eval", "--quiet", *(x for item in args.items() for x in item)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cannot "), err
        assert repr(named) in err and ".tmp-" not in err
        assert no_temp_litter(tmp_path)


class TestHysteresisEval:
    def signal_file(self, tmp_path):
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = np.array([0.0, 2.0, -2.0, 1.0, 0.5])
        lines = ["t,v"] + [f"{t},{v}" for t, v in zip(times, values)]
        path = tmp_path / "signal.csv"
        path.write_text("\n".join(lines) + "\n")
        return path, PiecewiseLinearSignal(times, values)

    def test_round_trips_the_evaluator(self, tmp_path):
        sig_path, signal = self.signal_file(tmp_path)
        cfg_path = write_config(tmp_path, {"a": -1.0, "b": 1.0, "z0": 0.0},
                                name="hyst.json")
        rc = main(["hysteresis-eval", "--config", cfg_path,
                   "--input", str(sig_path), "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "hysteresis.csv")
        assert header == "t,stop,play"
        out = stop_evaluate(signal, HysteresisConfig(a=-1.0, b=1.0, z0=0.0))
        np.testing.assert_array_equal(rows[:, 0], signal.times)
        np.testing.assert_array_equal(rows[:, 1], out.stop.values)
        np.testing.assert_array_equal(rows[:, 2], out.play.values)

    def test_explicit_output_path(self, tmp_path):
        sig_path, _ = self.signal_file(tmp_path)
        cfg_path = write_config(tmp_path, {"a": -1.0, "b": 1.0, "z0": 0.0},
                                name="hyst.json")
        target = tmp_path / "custom" / "result.csv"
        target.parent.mkdir()
        rc = main(["hysteresis-eval", "--config", cfg_path,
                   "--input", str(sig_path), "--output", str(target),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert target.exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == [str(target)]

    def test_scenario_config_also_works(self, tmp_path):
        sig_path, _ = self.signal_file(tmp_path)
        rc = main(["hysteresis-eval", "--config", "bundled:zero",
                   "--input", str(sig_path), "--out", str(tmp_path),
                   "--quiet"])
        assert rc == 0

    def test_bad_signal_header_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1\n")
        cfg_path = write_config(tmp_path, {"a": -1.0, "b": 1.0, "z0": 0.0},
                                name="hyst.json")
        rc = main(["hysteresis-eval", "--config", cfg_path,
                   "--input", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "expected header 't,v'" in capsys.readouterr().err

    def test_a_play_overflow_names_the_play(self, tmp_path, capsys):
        # both entries are finite; the play overflows at t = 1
        path = tmp_path / "sig.csv"
        path.write_text("t,v\n0,1e308\n1,-1e308\n")
        cfg_path = write_config(tmp_path, {"a": -1.0, "b": 1.0, "z0": 0.0}, name="hyst.json")
        rc = main(["hysteresis-eval", "--config", cfg_path,
                   "--input", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: play v - stop + (z0 - v0) is not finite from t = 1.0\n")
        assert not (tmp_path / "hysteresis.csv").exists()

    def test_signal_parser_details(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("t, v\n\n0.0,1.0\n\n1.0,2.0\n")
        signal = read_signal_csv(path)
        np.testing.assert_array_equal(signal.times, [0.0, 1.0])
        np.testing.assert_array_equal(signal.values, [1.0, 2.0])
        path.write_text("t,v\n0.0,1.0,2.0\n")
        with pytest.raises(Exception) as err:
            read_signal_csv(path)
        assert "expected two columns" in str(err.value)
        path.write_text("t,v\n0.0,hello\n")
        with pytest.raises(Exception) as err:
            read_signal_csv(path)
        assert "expected two numbers" in str(err.value)


HEADERS = ("t,v", " t , v ", "t,v,w", "time,value", "T,V", "v,t", "t;v", "")
TOKENS = ("nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-400", "", " ", "x", "0x1",
          "1_0", "+.5", "1,5", "\u00e9")


@st.composite
def signal_bytes(draw):
    """The bytes of a signal file: a header variant, then rows of finite
    numbers, special tokens or junk in one to three columns, times
    increasing or not, blank and padded lines, and maybe bytes that are not
    UTF-8.  Each deviation from a well-formed file is drawn rarely, so that
    many files are read whole."""
    rarely = st.integers(0, 9).map(lambda n: n == 9)
    token = st.sampled_from(TOKENS)
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = [draw(st.sampled_from(HEADERS)) if draw(rarely) else "t,v"]
    for i in range(draw(st.integers(0, 8))):
        row = [draw(token) if draw(rarely) else repr(0.25 * i),
               draw(token) if draw(rarely) else draw(number)]
        if draw(rarely):
            row.pop()
        elif draw(rarely):
            row.append(draw(token))
        pad = draw(st.sampled_from(("", " ", "\t")))
        lines.append(pad + draw(st.sampled_from((",", " , ", ", "))).join(row) + pad)
        if draw(rarely):
            lines.append(draw(st.sampled_from(("", "  "))))
    text = draw(st.sampled_from(("\n", "\r\n"))).join(lines) + draw(st.sampled_from(("\n", "")))
    data = text.encode("utf-8")
    if draw(rarely):  # a byte that starts no UTF-8 sequence, or a cut-off one
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from((b"\xff", b"\xc3", b"\x80"))) + data[cut:]
    return data


class TestSignalFuzz:
    """Whatever a signal file holds, ``hysteresis-eval`` writes its table or
    refuses the file with one error line, and never ends in a traceback."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=signal_bytes())
    @example(data=b"t,v\n0,1e999\n1,0\n")
    @example(data=b"t,v\n0,1e308\n1,-1e308\n")
    @example(data=b"t,v\n1,0\n0,1\n")
    @example(data=b"t,v\n0,nan\n")
    def test_a_signal_file_is_evaluated_or_refused_in_one_line(self, tmp_path, capsys, data):
        signal, table = tmp_path / "signal.csv", tmp_path / "hysteresis.csv"
        signal.write_bytes(data)
        table.unlink(missing_ok=True)
        config = write_config(tmp_path, {"a": -1.0, "b": 1.0, "z0": 0.0}, name="hyst.json")
        rc = main(["hysteresis-eval", "--config", config, "--input", str(signal),
                   "--out", str(tmp_path), "--quiet"])
        err = capsys.readouterr().err
        if rc == 0:
            assert err == "" and table.is_file()
        else:
            assert rc == 2
            assert err.count("\n") == 1 and err.startswith("error: "), err


class TestSensitivityAndFdCheck:
    def test_sensitivity_on_bundled_saturating(self, tmp_path):
        rc = main(["sensitivity", "--config", "bundled:saturating",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "sensitivity.csv")
        assert header == "t,stop_derivative,S_zeta,norm_zeta"
        assert rows.shape[0] == 61
        assert np.all(np.isfinite(rows))

    def test_fd_check_table_decreases(self, tmp_path):
        rc = main(["fd-check", "--config", "bundled:saturating",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fd_check.csv")
        assert header == "lambda,error"
        assert rows.shape == (5, 2)
        assert np.all(np.diff(rows[:, 0]) < 0)
        assert np.all(np.diff(rows[:, 1]) < 0)

    def test_fd_check_reruns_identically(self, tmp_path):
        for sub in ("a", "b"):
            main(["fd-check", "--config", "bundled:saturating",
                  "--out", str(tmp_path / sub), "--quiet"])
        assert (tmp_path / "a" / "fd_check.csv").read_bytes() \
            == (tmp_path / "b" / "fd_check.csv").read_bytes()


class TestOptimize:
    def test_bundled_linear_quadratic(self, tmp_path):
        rc = main(["optimize", "--config", "bundled:linear_quadratic",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "history.csv")
        assert header == "iter,J,grad_inf,step"
        costs = rows[:, 1]
        assert np.all(np.diff(costs) <= 1e-15)
        payload = json.loads((tmp_path / "coefficients.json").read_text())
        assert payload["mode"] == "distributed"
        assert payload["time_knots"] == 3
        assert payload["status"] == "converged"
        assert payload["iterations"] == rows.shape[0]
        assert len(payload["coefficients"]) == 6
        assert payload["cost"] == pytest.approx(costs[-1], rel=1e-12)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == ["history.csv", "coefficients.json"]
        assert no_temp_litter(tmp_path)


class TestDiagnoseSemigroup:
    def test_report_contents(self, tmp_path):
        cfg = small_config()
        del cfg["source"]
        cfg["diagnostic"] = {"theta": 0.25, "t_count": 50}
        path = write_config(tmp_path, cfg)
        rc = main(["diagnose-semigroup", "--config", path,
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "semigroup_report.json").read_text())
        assert report["theta"] == 0.25
        assert report["component"] == 0
        assert len(report["t_grid"]) == 50
        assert len(report["norms"]) == 50
        assert report["sup_value"] > 0
        assert isinstance(report["attained_interior"], bool)
        assert report["t_at_sup"] >= report["t_grid"][0]

    def test_works_on_bundled_scenarios(self, tmp_path):
        rc = main(["diagnose-semigroup", "--config", "bundled:zero",
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0

    def test_out_of_range_component_names_the_field(self, tmp_path, capsys):
        text = resources.files("stopsim").joinpath(
            "scenarios", "saturating.json").read_text()
        cfg = json.loads(text)
        cfg["diagnostic"] = {"component": 3}
        path = write_config(tmp_path, cfg)
        rc = main(["diagnose-semigroup", "--config", path,
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: diagnostic.component: must be less than 1\n")


class TestModuleEntryPoint:
    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stopsim", "--version"],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("0.1.0")


SCIPY_FREE_RUNS = """
import json, sys
from stopsim.cli import main

out, configs = sys.argv[1], json.loads(sys.argv[2])
codes = []
for config in configs:
    for sub in ("simulate", "sensitivity", "fd-check", "optimize",
                "diagnose-semigroup"):
        codes.append(main([sub, "--config", config, "--out", out, "--quiet"]))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))

import numpy as np
from stopsim import BoundarySides, DomainSpec, assemble
from conftest import semigroup_step

# a 2D axis over the dense limit and a 1D box over the eigenbasis limit
for resolution in ((503, 3), (301,)):
    dim = len(resolution)
    disc = assemble(DomainSpec(dimension=dim, extent=(1.0,) * dim, resolution=resolution),
                    [BoundarySides(*("neumann",) * 2 * dim)], [1.0])
    y = np.cos(np.arange(disc.n_nodes))[None, :]
    stepped = semigroup_step(disc, y, 0.1)
    assert abs(stepped @ disc.quadrature - y @ disc.quadrature).max() <= 1e-12
print(json.dumps({"codes": codes, "before": loaded,
                  "after": "scipy.sparse.linalg" in sys.modules
                           and "scipy.linalg" in sys.modules}))
"""


class TestScipyFreeRuns:
    def test_bundled_and_2d_runs_never_import_scipy(self, tmp_path):
        box = small_config(
            domain={"dimension": 2, "extent": [1.0, 0.7], "resolution": [13, 9]},
            boundaries=[{"left": "dirichlet", "right": "neumann",
                         "bottom": "neumann", "top": "dirichlet"},
                        {"left": "neumann", "right": "neumann",
                         "bottom": "dirichlet", "top": "neumann"}],
            diffusion=[0.8, 2.5],
            direction={"kind": "constant", "value": 0.1,
                       "profile": {"kind": "sine", "mode": 1}},
            lambdas=[0.1, 0.01],
            control=UNIT_CONTROL,
            diagnostic={"theta": 0.25, "t_count": 20},
        )
        grid = small_config(
            domain={"dimension": 2, "extent": [1.0, 1.0], "resolution": [121, 121]},
            boundaries=[{"left": "neumann", "right": "neumann",
                         "bottom": "neumann", "top": "neumann"}],
            solver={"dt": 0.01, "t_final": 0.05},
        )
        configs = ["bundled:" + name for name in
                   ("saturating", "linear_quadratic", "neumann_conservation", "zero")]
        configs += [write_config(tmp_path, box, "box.json"),
                    write_config(tmp_path, grid, "grid.json")]
        env = package_env()  # with the tests' own helpers importable
        env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.abspath(__file__))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_RUNS, str(tmp_path / "out"),
             json.dumps(configs)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        # each bundled scenario and the 2D box run at least simulate and
        # sensitivity; the others exit 2 where a block is missing
        codes = np.reshape(result["codes"], (len(configs), 5))
        assert set(codes.ravel()) <= {0, 2}
        assert np.all(codes[:, 0] == 0) and np.all(codes[4, :] == 0)
        assert codes[1, 3] == 0  # optimize on linear_quadratic
        assert codes[5, 4] == 0  # diagnose-semigroup on the 121x121 grid
        assert result["before"] == []
        assert result["after"]  # the long axes solved with scipy, imported then
