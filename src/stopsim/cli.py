"""Command line entry point.

Each subcommand is declared once, in ``_SUBCOMMANDS``; one driver runs it and
writes a ``manifest.json`` (config hash, seed, artifact list) into the output
directory.  Files are written atomically (temp file, then rename) and floats
are serialized with 17 significant digits, so identical config and seed give
byte-identical artifacts.  Exit codes: 0 success, 2 validation, an unreadable
input or an unwritable output, 3 numerical failure, 4 non-contraction.
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
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .control import optimize as run_optimize
from .errors import InvalidConfigError, InvalidSignalError, ScenarioValidationError, StopsimError
from .evolution import solve_state
from .hysteresis import PiecewiseLinearSignal, stop_evaluate
from .scenario import (
    _SCENARIO,
    _integer,
    build_control_problem,
    load_hysteresis_config,
    load_scenario,
)
from .sensitivity import (
    fd_convergence_study,
    solve_sensitivity,
)
from .spatial import fractional_power_diagnostic

__all__ = ["main"]

_BUNDLED_PREFIX = "bundled:"


def _io(verb, path, action, *args, **kwargs):
    """``action(*args, **kwargs)``.  A failure to read or write is bad input
    (exit 2), reported under ``path``, the name the user gave (never the
    name of a temporary file behind it)."""
    try:
        return action(*args, **kwargs)
    except OSError as exc:
        reason = OSError(exc.errno, exc.strerror, path)
    except UnicodeDecodeError as exc:
        reason = f"{path!r} is not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise InvalidConfigError(f"cannot {verb}: {reason}")


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
        except OSError:
            raise ScenarioValidationError(
                "", f"unknown bundled scenario {name!r}") from None
    else:
        text = _io("read config file", config_arg, Path(config_arg).read_text, encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError("", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioValidationError("", "config must be a JSON object")
    return cfg, text


def read_signal_csv(path) -> PiecewiseLinearSignal:
    """Signal file: header ``t,v`` then one ``time,value`` row per point."""
    text = _io("read signal file", path, Path(path).read_text, encoding="utf-8")
    lines = [line for line in (line.strip() for line in text.split("\n")) if line]
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


class _Run:
    """One run's parsed arguments and the artifacts it has written."""

    def __init__(self, args):
        self.args = args
        self.artifacts = []

    def emit(self, name, write, *args, path=None):
        """``write(target, *args)``: the artifact ``name`` in the output
        directory, or at ``path`` (listed by its absolute path) when given."""
        target = path or os.path.join(self.args.out, name)
        _io("write", target, write, target, *args)
        self.artifacts.append(os.path.abspath(path) if path else name)
        if not self.args.quiet:
            print(f"wrote {target}")


# Each handler runs its solve on what its subcommand loaded, writes its
# artifacts and returns a line to print after them, or None.

def _simulate(run, scn):
    snapshot = run.args.snapshot
    traj = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                       scn.source, scn.solver, keep_states=snapshot)
    run.emit("trajectory.csv", _write_csv, "t,z,S_y,norm_y",
             (traj.times, traj.stop.values, traj.s_values, traj.norms))
    if snapshot:  # int64 header (dims, components, steps), then the path's own buffer
        domain = scn.disc.domain
        header = [domain.dimension, *domain.resolution, scn.disc.n_components, scn.solver.n_steps]
        run.emit("state.bin", _write_atomic, np.array(header, dtype=np.int64).tobytes(),
                 traj.states)


def _hysteresis_eval(run, hyst_cfg):
    signal = read_signal_csv(run.args.input)
    out = stop_evaluate(signal, hyst_cfg)
    run.emit("hysteresis.csv", _write_csv, "t,stop,play",
             (signal.times, out.stop.values, out.play.values), path=run.args.output)


def _sensitivity(run, scn):
    base = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                       scn.source, scn.solver)
    record = solve_sensitivity(base, scn.direction, keep_states=False)
    run.emit("sensitivity.csv", _write_csv, "t,stop_derivative,S_zeta,norm_zeta",
             (record.times, record.stop_derivative, record.s_values, record.norms))
    if not record.derivative_is_exact:
        return "note: reaction derivative is a finite-difference approximation"


def _fd_check(run, scn):
    base = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                       scn.source, scn.solver)
    study = fd_convergence_study(base, scn.direction, scn.lambdas)
    run.emit("fd_check.csv", _write_csv, "lambda,error", (study.lambdas, study.errors))


def _optimize(run, scn):
    problem, spec, opts = build_control_problem(scn)
    result = run_optimize(problem, spec, **opts)
    run.emit("history.csv", _write_csv, "iter,J,grad_inf,step", zip(*result.history))
    run.emit("coefficients.json", _write_json, {
        "mode": result.spec.mode,
        "time_knots": result.spec.time_knots,
        "coefficients": result.spec.coefficients,
        "cost": result.cost,
        "status": result.status,
        "iterations": len(result.history),
    })
    return f"optimize: status {result.status}, cost {result.cost:.6e}"


def _diagnose_semigroup(run, scn):
    opts = scn.diagnostic
    t_grid = np.logspace(np.log10(opts["t_min"]), np.log10(opts["t_max"]),
                         opts["t_count"])
    report = fractional_power_diagnostic(
        scn.disc, opts["theta"], t_grid=t_grid,
        component=opts["component"], gamma=opts["gamma"])
    run.emit("semigroup_report.json", _write_json, {
        **vars(report), "component": opts["component"],
        "attained_interior": report.attained_interior})


class _Subcommand(NamedTuple):
    needs: tuple  # ``load_scenario``'s tokens; None loads the hysteresis config only
    handler: object
    help: str
    flags: dict = {}  # flag -> ``add_argument`` keywords


_SUBCOMMANDS = {
    "simulate": _Subcommand(
        ("state",), _simulate, "solve the state equation, write trajectory.csv",
        {"--snapshot": dict(action="store_true",
                            help="also write the full state history to state.bin")}),
    "hysteresis-eval": _Subcommand(
        None, _hysteresis_eval, "evaluate stop and play on a signal CSV",
        {"--input": dict(required=True, help="input CSV with header t,v"),
         "--output": dict(help="output CSV path (default: <out>/hysteresis.csv)")}),
    "sensitivity": _Subcommand(
        ("state", "direction"), _sensitivity,
        "solve the linearized equation, write sensitivity.csv"),
    "fd-check": _Subcommand(
        ("state", "direction", "lambdas"), _fd_check,
        "difference-quotient convergence table, fd_check.csv"),
    "optimize": _Subcommand(
        ("state", "control"), _optimize,
        "descent on the tracking cost, history.csv + coefficients.json"),
    "diagnose-semigroup": _Subcommand(
        ("spatial", "diagnostic"), _diagnose_semigroup,
        "fractional-power diagnostic, semigroup_report.json"),
}


def _load(subcommand, cfg):
    """What ``subcommand`` reads from the parsed config ``cfg``, validated."""
    needs = _SUBCOMMANDS[subcommand].needs
    return load_hysteresis_config(cfg) if needs is None else load_scenario(cfg, needs)


def _drive(args):
    """One run of ``args.subcommand``: the steps every subcommand shares, around its handler."""
    _io("create output directory", args.out, os.makedirs, args.out, exist_ok=True)
    cfg, text = _read_config(args.config)
    loaded = _load(args.subcommand, cfg)
    # the load step validated any seed the config holds; --seed meets the same rule
    seed = (cfg.get("seed") if args.seed is None
            else _integer(args.seed, "--seed", _SCENARIO["seed"]))
    run = _Run(args)
    note = _SUBCOMMANDS[args.subcommand].handler(run, loaded)
    if note and not args.quiet:
        print(note)
    run.emit("manifest.json", _write_json, {
        "subcommand": args.subcommand,
        "config": args.config,
        "config_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "seed": seed,
        "artifacts": list(run.artifacts),
        "package_version": __version__,
    })
    return 0


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
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=spec.help)
        for flag, options in spec.flags.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the solvers' guards report overflow and non-finite values themselves
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _drive(args)
    except StopsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
