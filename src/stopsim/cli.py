"""Command line entry point.

Subcommands: ``simulate``, ``hysteresis-eval``, ``sensitivity``, ``fd-check``,
``optimize``, ``diagnose-semigroup``.  Every run writes its artifacts plus a
``manifest.json`` (config hash, seed, artifact list) into the output
directory.  Files are written atomically (temp file, then rename) and floats
are serialized with 17 significant digits, so identical config and seed give
byte-identical artifacts.  Exit codes: 0 success, 2 validation, 3 numerical
failure, 4 non-contraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from functools import lru_cache
from importlib import resources

import numpy as np

from . import __version__
from .control import optimize as run_optimize
from .errors import InvalidSignalError, ScenarioValidationError, StopsimError
from .evolution import solve_state
from .hysteresis import PiecewiseLinearSignal, stop_evaluate
from .scenario import (
    build_control_problem,
    load_hysteresis_config,
    load_scenario,
)
from .sensitivity import (
    LinearizedProblem,
    fd_convergence_study,
    solve_sensitivity,
)
from .spatial import fractional_power_diagnostic

__all__ = ["main"]

_BUNDLED_PREFIX = "bundled:"


def _write_atomic(path, *chunks):
    """Write the buffers ``chunks`` in turn to a temporary file renamed onto ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path, header, columns):
    """Write equal-length ``columns`` under ``header``, one row format for all
    rows: integer columns as ``str(int)``, the others with 17 significant digits."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns)
    lines = [header, *(row % tuple(r) for r in np.column_stack(columns).tolist())]
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _json_default(value):
    """An array or numpy scalar as the Python list or scalar it holds; a
    float64 is a float already, so only other numpy types get here."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    _write_atomic(path, (text + "\n").encode("utf-8"))


def _read_config(config_arg):
    """Config JSON text and parsed dict, resolving ``bundled:`` names."""
    if config_arg.startswith(_BUNDLED_PREFIX):
        name = config_arg[len(_BUNDLED_PREFIX):]
        res = resources.files("stopsim").joinpath("scenarios", name + ".json")
        try:
            text = res.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            raise ScenarioValidationError(
                "", f"unknown bundled scenario {name!r}") from None
    else:
        try:
            with open(config_arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioValidationError(
                "", f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError("", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioValidationError("", "config must be a JSON object")
    return cfg, text


class _Run:
    """Output directory, manifest bookkeeping, and quiet-aware logging."""

    def __init__(self, args):
        self.args = args
        self.out_dir = args.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.cfg, text = _read_config(args.config)
        self.config_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.artifacts = []
        self.seed = args.seed

    def resolve_seed(self, scenario_seed):
        if self.seed is None:
            self.seed = scenario_seed

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def say(self, message):
        if not self.args.quiet:
            print(message)

    def emit_csv(self, name, header, *columns):
        path = self.path(name)
        _write_csv(path, header, columns)
        self.artifacts.append(name)
        self.say(f"wrote {path}")

    def emit_json(self, name, obj):
        path = self.path(name)
        _write_json(path, obj)
        self.artifacts.append(name)
        self.say(f"wrote {path}")

    def emit_bytes(self, name, *chunks):
        path = self.path(name)
        _write_atomic(path, *chunks)
        self.artifacts.append(name)
        self.say(f"wrote {path}")

    def finish(self, subcommand):
        manifest = {
            "subcommand": subcommand,
            "config": self.args.config,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "artifacts": list(self.artifacts),
            "package_version": __version__,
        }
        path = self.path("manifest.json")
        _write_json(path, manifest)
        self.say(f"wrote {path}")
        return 0


def read_signal_csv(path) -> PiecewiseLinearSignal:
    """Signal file: header ``t,v`` then one ``time,value`` row per point."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise InvalidSignalError(f"cannot read signal file: {exc}") from exc
    lines = [line for line in lines if line]
    if not lines or lines[0].replace(" ", "") != "t,v":
        raise InvalidSignalError(f"{path}: expected header 't,v'")
    times, values = [], []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise InvalidSignalError(f"{path}:{i}: expected two columns")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError:
            raise InvalidSignalError(f"{path}:{i}: expected two numbers") from None
    return PiecewiseLinearSignal(times=np.asarray(times), values=np.asarray(values))


def _cmd_simulate(args):
    run = _Run(args)
    scn = load_scenario(run.cfg, needs=("state",))
    run.resolve_seed(scn.seed)
    traj = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                       scn.source, scn.solver, keep_states=args.snapshot)
    run.emit_csv("trajectory.csv", "t,z,S_y,norm_y",
                 traj.times, traj.stop.values, traj.s_values, traj.norms)
    if args.snapshot:  # int64 header (dims, components, steps), then the path's own buffer
        domain = scn.disc.domain
        header = [domain.dimension, *domain.resolution, scn.disc.n_components, scn.solver.n_steps]
        run.emit_bytes("state.bin", np.array(header, dtype=np.int64).tobytes(), traj.states)
    return run.finish("simulate")


def _cmd_hysteresis_eval(args):
    run = _Run(args)
    cfg = load_hysteresis_config(run.cfg)
    run.resolve_seed(run.cfg.get("seed"))
    signal = read_signal_csv(args.input)
    out = stop_evaluate(signal, cfg)
    columns = (signal.times, out.stop.values, out.play.values)
    if args.output:
        _write_csv(args.output, "t,stop,play", columns)
        run.artifacts.append(os.path.abspath(args.output))
        run.say(f"wrote {args.output}")
    else:
        run.emit_csv("hysteresis.csv", "t,stop,play", *columns)
    return run.finish("hysteresis-eval")


def _cmd_sensitivity(args):
    run = _Run(args)
    scn = load_scenario(run.cfg, needs=("state", "direction"))
    run.resolve_seed(scn.seed)
    base = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                       scn.source, scn.solver)
    problem = LinearizedProblem(base=base, direction=scn.direction,
                                reaction=scn.reaction, hyst_cfg=scn.hyst_cfg)
    record = solve_sensitivity(problem, scn.disc, scn.sfun, scn.solver, keep_states=False)
    run.emit_csv("sensitivity.csv", "t,stop_derivative,S_zeta,norm_zeta",
                 record.times, record.stop_derivative, record.s_values, record.norms)
    if not record.derivative_is_exact:
        run.say("note: reaction derivative is a finite-difference approximation")
    return run.finish("sensitivity")


def _cmd_fd_check(args):
    run = _Run(args)
    scn = load_scenario(run.cfg, needs=("state", "direction", "lambdas"))
    run.resolve_seed(scn.seed)
    study = fd_convergence_study(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                                 scn.source, scn.direction, scn.lambdas,
                                 scn.solver)
    run.emit_csv("fd_check.csv", "lambda,error", study.lambdas, study.errors)
    return run.finish("fd-check")


def _cmd_optimize(args):
    run = _Run(args)
    scn = load_scenario(run.cfg, needs=("state", "control"))
    run.resolve_seed(scn.seed)
    problem, spec, opts = build_control_problem(scn)
    result = run_optimize(problem, spec, **opts)
    run.emit_csv("history.csv", "iter,J,grad_inf,step",
                 *(np.array(c) for c in zip(*result.history)))
    run.emit_json("coefficients.json", {
        "mode": result.spec.mode,
        "time_knots": result.spec.time_knots,
        "coefficients": result.spec.coefficients,
        "cost": result.cost,
        "status": result.status,
        "iterations": len(result.history),
    })
    run.say(f"optimize: status {result.status}, cost {result.cost:.6e}")
    return run.finish("optimize")


def _cmd_diagnose_semigroup(args):
    run = _Run(args)
    scn = load_scenario(run.cfg, needs=("spatial", "diagnostic"))
    run.resolve_seed(scn.seed)
    opts = scn.diagnostic
    t_grid = np.logspace(np.log10(opts["t_min"]), np.log10(opts["t_max"]),
                         opts["t_count"])
    report = fractional_power_diagnostic(
        scn.disc, opts["theta"], t_grid=t_grid,
        component=opts["component"], gamma=opts["gamma"])
    run.emit_json("semigroup_report.json", {
        "theta": report.theta,
        "gamma": report.gamma,
        "component": opts["component"],
        "sup_value": report.sup_value,
        "t_at_sup": report.t_at_sup,
        "attained_interior": report.attained_interior,
        "t_grid": report.t_grid,
        "weighted": report.weighted,
        "norms": report.norms,
    })
    return run.finish("diagnose-semigroup")


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="stopsim",
        description="Hysteresis-coupled reaction-diffusion simulation toolkit.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="scenario JSON path, or bundled:NAME")
    common.add_argument("--out", default=".",
                        help="output directory (default: current directory)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed recorded in the manifest")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational output")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="solve the state equation, write trajectory.csv")
    p.add_argument("--snapshot", action="store_true",
                   help="also write the full state history to state.bin")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("hysteresis-eval", parents=[common],
                       help="evaluate stop and play on a signal CSV")
    p.add_argument("--input", required=True, help="input CSV with header t,v")
    p.add_argument("--output", default=None,
                   help="output CSV path (default: <out>/hysteresis.csv)")
    p.set_defaults(handler=_cmd_hysteresis_eval)

    p = sub.add_parser("sensitivity", parents=[common],
                       help="solve the linearized equation, write sensitivity.csv")
    p.set_defaults(handler=_cmd_sensitivity)

    p = sub.add_parser("fd-check", parents=[common],
                       help="difference-quotient convergence table, fd_check.csv")
    p.set_defaults(handler=_cmd_fd_check)

    p = sub.add_parser("optimize", parents=[common],
                       help="descent on the tracking cost, history.csv + "
                            "coefficients.json")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("diagnose-semigroup", parents=[common],
                       help="fractional-power diagnostic, semigroup_report.json")
    p.set_defaults(handler=_cmd_diagnose_semigroup)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # the solvers' guards report overflow and non-finite values themselves
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(args)
    except StopsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
