"""Seeded inputs and output checks for the four benchmark workloads.

Each workload is one ``stopsim`` subcommand on generated inputs.  The
generator writes a scenario JSON (and, for ``hyst-csv``, a signal CSV) into
a work directory; the program under test receives only those files.  Sizes
are fixed; the seed only moves values, so job cost stays comparable across
seeds while the outputs differ.

The checks here read the artifacts a job wrote and return a list of
problems (empty when the job is correct).  They run outside the timed
region.  They import ``stopsim`` lazily, so this module can be imported
before the package path is set up.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

_SATURATING = {
    "kind": "saturating",
    "state_amplitude": -0.7,
    "state_rate": 1.1,
    "hysteresis_amplitude": 0.8,
    "hysteresis_rate": 0.9,
}


def _round(x, digits=6):
    return float(round(float(x), digits))


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    needs: tuple  # what the subcommand asks load_scenario for; () = hysteresis only
    generate: object  # (rng, seed, work_dir) -> extra argv (config written to work_dir)
    check: object  # (work_dir, out_dir) -> list of problems
    summary: object  # (out_dir) -> dict of float lists compared with the reference


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _config_path(work_dir):
    return os.path.join(work_dir, "scenario.json")


def _load_config(work_dir):
    with open(_config_path(work_dir), "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- control-1d: optimize --------------------------------------------------

CONTROL_MAX_ITERS = 5


def _gen_control(rng, seed, work_dir):
    cfg = {
        "domain": {"dimension": 1, "extent": [1.0], "resolution": [41]},
        "boundaries": [{"left": "dirichlet", "right": "neumann"}],
        "diffusion": [0.8],
        "s_weight": {"kind": "constant", "value": 0.6},
        "hysteresis": {"a": -0.05, "b": 0.05, "z0": 0.0},
        "reaction": dict(_SATURATING),
        "solver": {"dt": 0.01, "t_final": 1.0},
        "source": {"kind": "zero"},
        "control": {
            "mode": "distributed",
            "time_knots": 4,
            "spatial_modes": {"kind": "sine", "count": 3},
            "kappa": 1e-3,
            "target": {
                "kind": "from-control",
                "coefficients": [_round(c) for c in rng.uniform(-1.5, 1.5, 12)],
            },
            "optimizer": {"max_iters": CONTROL_MAX_ITERS, "tol": 1e-14,
                          "initial_step": 1.0},
        },
        "seed": seed,
    }
    _write_json(_config_path(work_dir), cfg)
    return []


def _check_control(work_dir, out_dir):
    from stopsim.control import reduced_cost
    from stopsim.scenario import build_control_problem, load_scenario

    problems = []
    _, hist = _read_csv(os.path.join(out_dir, "history.csv"))
    J = hist[:, 1]
    if not np.all(np.isfinite(J)):
        problems.append("history J is not finite")
    if np.any(np.diff(J) > 0.0):
        problems.append("history J increases")
    with open(os.path.join(out_dir, "coefficients.json"), encoding="utf-8") as fh:
        coeffs = json.load(fh)
    scn = load_scenario(_load_config(work_dir), needs=("state", "control"))
    problem, spec, _ = build_control_problem(scn)
    again = reduced_cost(problem, spec.with_coefficients(coeffs["coefficients"]))
    if not math.isclose(again, coeffs["cost"], rel_tol=1e-10, abs_tol=1e-14):
        problems.append(f"reduced_cost {again!r} != reported cost {coeffs['cost']!r}")
    if coeffs["cost"] > J[0]:
        problems.append("returned cost exceeds the initial cost")
    return problems


def _summary_control(out_dir):
    _, hist = _read_csv(os.path.join(out_dir, "history.csv"))
    with open(os.path.join(out_dir, "coefficients.json"), encoding="utf-8") as fh:
        coeffs = json.load(fh)
    return {"J": hist[:, 1].tolist(), "coefficients": coeffs["coefficients"],
            "cost": [coeffs["cost"]]}


# --- grid-2d: simulate -----------------------------------------------------


def _gen_grid(rng, seed, work_dir):
    cfg = {
        "domain": {"dimension": 2, "extent": [1.0, 1.0], "resolution": [121, 121]},
        "boundaries": [{"left": "dirichlet", "right": "neumann",
                        "bottom": "dirichlet", "top": "neumann"}],
        "diffusion": [0.5],
        "s_weight": {"kind": "constant", "value": 0.6},
        "hysteresis": {"a": -0.05, "b": 0.05, "z0": 0.0},
        "reaction": dict(_SATURATING),
        "solver": {"dt": 0.005, "t_final": 1.0},
        "source": {
            "kind": "sine",
            "amplitude": _round(rng.uniform(2.0, 4.0)),
            "omega": _round(rng.uniform(4.0, 10.0)),
            "profile": {"kind": "sine", "mode": 1},
        },
        "seed": seed,
    }
    _write_json(_config_path(work_dir), cfg)
    return []


def _check_grid(work_dir, out_dir):
    problems = []
    cfg = _load_config(work_dir)
    a, b = cfg["hysteresis"]["a"], cfg["hysteresis"]["b"]
    header, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    if header != "t,z,S_y,norm_y" or rows.shape != (201, 4):
        problems.append(f"trajectory.csv has header {header!r}, shape {rows.shape}")
        return problems
    z = rows[:, 1]
    if np.any(z < a) or np.any(z > b):
        problems.append("z leaves [a, b]")
    if not np.all(np.isfinite(rows)):
        problems.append("trajectory has non-finite entries")
    return problems


def _summary_grid(out_dir):
    _, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    return {"z": rows[::10, 1].tolist(), "S_y": rows[::10, 2].tolist(),
            "norm_y": rows[::10, 3].tolist()}


# --- picard-fd-1d: fd-check with the Picard-sliced scheme -------------------

PICARD_LAMBDAS = [10.0 ** -k for k in range(1, 9)]


def _gen_picard(rng, seed, work_dir):
    cfg = {
        "domain": {"dimension": 1, "extent": [1.0], "resolution": [61]},
        "boundaries": [{"left": "dirichlet", "right": "neumann"}],
        "diffusion": [0.8],
        "s_weight": {"kind": "constant", "value": 0.6},
        "hysteresis": {"a": -0.05, "b": 0.05, "z0": 0.0},
        "reaction": dict(_SATURATING),
        "solver": {"dt": 0.005, "t_final": 2.0, "scheme": "picard-sliced",
                   "slice_length": 0.05, "picard_tol": 1e-10},
        "source": {
            "kind": "sine",
            "amplitude": _round(rng.uniform(1.5, 2.5)),
            "omega": _round(rng.uniform(3.0, 6.0)),
            "profile": {"kind": "sine", "mode": 1},
        },
        "direction": {
            "kind": "pulse",
            "value": _round(rng.uniform(0.01, 0.03)),
            "start": _round(rng.uniform(0.1, 0.4)),
            "stop": _round(rng.uniform(1.2, 1.8)),
            "profile": {"kind": "sine", "mode": int(rng.integers(1, 3))},
        },
        "lambdas": PICARD_LAMBDAS,
        "seed": seed,
    }
    _write_json(_config_path(work_dir), cfg)
    return []


def observed_orders(lambdas, errors):
    lam = np.asarray(lambdas, dtype=float)
    err = np.asarray(errors, dtype=float)
    return np.log(err[:-1] / err[1:]) / np.log(lam[:-1] / lam[1:])


def _check_picard(work_dir, out_dir):
    from stopsim.evolution import solve_state
    from stopsim.scenario import load_scenario

    problems = []
    header, rows = _read_csv(os.path.join(out_dir, "fd_check.csv"))
    if header != "lambda,error" or rows.shape != (len(PICARD_LAMBDAS), 2):
        return [f"fd_check.csv has header {header!r}, shape {rows.shape}"]
    lam, err = rows[:, 0], rows[:, 1]
    if not np.all(np.isfinite(err)) or np.any(err <= 0.0):
        return ["fd errors are not finite and positive"]
    # Order ~1 while truncation dominates, until the error meets round-off,
    # which grows like eps*|y|/lambda from there on.
    orders = observed_orders(lam, err)
    n_linear = 0
    while n_linear < orders.size and 0.8 <= orders[n_linear] <= 1.2:
        n_linear += 1
    if n_linear < 3:
        problems.append(f"observed orders {np.round(orders, 3).tolist()} are not ~1 "
                        "over the first three lambda pairs")
    cfg = _load_config(work_dir)
    scn = load_scenario(cfg, needs=("state",))
    imex_cfg = dict(cfg, solver={"dt": cfg["solver"]["dt"],
                                 "t_final": cfg["solver"]["t_final"]})
    ref = load_scenario(imex_cfg, needs=("state",))
    pic = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg, scn.source,
                      scn.solver)
    imex = solve_state(ref.disc, ref.sfun, ref.reaction, ref.hyst_cfg, ref.source,
                       ref.solver)
    gap = float(np.max(np.abs(pic.states - imex.states)))
    scale = float(np.max(np.abs(imex.states)))
    if not gap <= 1e-8 * (1.0 + scale):
        problems.append(f"Picard and IMEX trajectories differ by {gap:.3e}")
    roundoff = 1e3 * np.finfo(float).eps * (1.0 + scale) / lam
    if np.any(err[n_linear:] > roundoff[n_linear:]):
        problems.append(f"errors {err[n_linear:].tolist()} past the linear range "
                        "exceed the round-off level")
    return problems


def _summary_picard(out_dir):
    _, rows = _read_csv(os.path.join(out_dir, "fd_check.csv"))
    # the last lambdas sit at the round-off floor; compare the truncation part
    return {"error": rows[:3, 1].tolist()}


# --- hyst-csv: hysteresis-eval on a large signal ---------------------------

SIGNAL_POINTS = 300_000


def _signal_path(work_dir):
    return os.path.join(work_dir, "signal.csv")


def _gen_hyst(rng, seed, work_dir):
    half_width = _round(rng.uniform(0.3, 0.6))
    _write_json(_config_path(work_dir), {
        "hysteresis": {"a": -half_width, "b": half_width,
                       "z0": _round(rng.uniform(-0.5, 0.5) * half_width)},
        "seed": seed,
    })
    t = 1e-3 * np.arange(SIGNAL_POINTS)
    v = np.cumsum(rng.normal(0.0, 0.02, SIGNAL_POINTS))
    with open(_signal_path(work_dir), "w", encoding="utf-8") as fh:
        fh.write("t,v\n")
        fh.writelines("%.17g,%.17g\n" % pair for pair in zip(t.tolist(), v.tolist()))
    return ["--input", _signal_path(work_dir)]


def reference_stop(values, a, b, z0):
    """Stop recursion z_k = clamp(z_{k-1} + v_k - v_{k-1}, a, b), kept
    independent of ``stopsim.hysteresis``."""
    out = [z0]
    z = z0
    prev = values[0]
    for v in values[1:]:
        z = min(b, max(a, z + (v - prev)))
        prev = v
        out.append(z)
    return np.asarray(out)


def _check_hyst(work_dir, out_dir):
    problems = []
    hyst = _load_config(work_dir)["hysteresis"]
    a, b, z0 = hyst["a"], hyst["b"], hyst["z0"]
    _, signal = _read_csv(_signal_path(work_dir))
    header, rows = _read_csv(os.path.join(out_dir, "hysteresis.csv"))
    if header != "t,stop,play" or rows.shape != (SIGNAL_POINTS, 3):
        return [f"hysteresis.csv has header {header!r}, shape {rows.shape}"]
    if not np.array_equal(rows[:, 0], signal[:, 0]):
        problems.append("output times differ from the input times")
    v, stop, play = signal[:, 1], rows[:, 1], rows[:, 2]
    if np.any(stop < a) or np.any(stop > b):
        problems.append("stop leaves [a, b]")
    ours = reference_stop(v.tolist(), a, b, z0)
    gap = float(np.max(np.abs(ours - stop)))
    if gap > 1e-9:
        problems.append(f"stop differs from the reference clamp by {gap:.3e}")
    split = float(np.max(np.abs((stop + play) - (v + (z0 - v[0])))))
    if split > 1e-12 * (1.0 + float(np.max(np.abs(v)))):
        problems.append(f"stop + play differs from v + (z0 - v0) by {split:.3e}")
    return problems


def _summary_hyst(out_dir):
    _, rows = _read_csv(os.path.join(out_dir, "hysteresis.csv"))
    return {"stop": rows[::1000, 1].tolist(), "play": rows[::1000, 2].tolist()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "control-1d", "optimize",
            "12+1 sensitivity solves per optimizer iteration, one LU factorization "
            "per solve; sensitivity work dominates",
            ("state", "control"), _gen_control, _check_control, _summary_control),
        Workload(
            "grid-2d", "simulate",
            "121x121 2-D state solve where SuperLU.solve dominates; bypass case "
            "for per-step overhead trimming and batching",
            ("state",), _gen_grid, _check_grid, _summary_grid),
        Workload(
            "picard-fd-1d", "fd-check",
            "Picard-sliced fd-check: repeated sweeps and a stop replay per slice, "
            "quad_norm and evaluate_S heavy",
            ("state", "direction", "lambdas"), _gen_picard, _check_picard,
            _summary_picard),
        Workload(
            "hyst-csv", "hysteresis-eval",
            "300k-point signal read from CSV and written back: CLI I/O and the "
            "scalar stop loop",
            (), _gen_hyst, _check_hyst, _summary_hyst),
    )
}


def generate(workload, seed, work_dir):
    """Write the workload's inputs for ``seed``; return the CLI argv sans --out."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    extra = workload.generate(rng, seed, work_dir)
    return [workload.subcommand, "--config", _config_path(work_dir), "--quiet",
            *extra]
