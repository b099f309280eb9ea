"""Scenario JSON: schema, validation, and builders for the other modules.

A scenario file is one JSON object describing the grid, boundary labels,
diffusion, the S functional weight, the hysteresis bounds, the reaction
term, the solver, and optionally a source, a perturbation direction, a
control problem block, and diagnostic options.  Validation reports every
problem with the dotted path of the offending field (for example
``hysteresis.a``) and never partially constructs a scenario.  A source or
direction block becomes an ``evolution.Source``: its time amplitude and its
spatial profile, never the dense (N+1, components, nodes) path.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .control import ControlProblem, ControlSpec, apply_B
from .errors import ScenarioValidationError
from .evolution import (
    _REACTION_PARAMS,
    REACTION_KINDS,
    SCHEMES,
    ReactionFunction,
    SolverConfig,
    Source,
    solve_state,
)
from .hysteresis import HysteresisConfig
from .spatial import (
    _LABELS,
    _SIDES_1D,
    _SIDES_2D,
    BoundarySides,
    DomainSpec,
    SFunctional,
    SpatialDiscretization,
    assemble,
)

__all__ = [
    "Scenario",
    "ControlSetup",
    "load_scenario",
    "load_hysteresis_config",
    "build_control_problem",
    "loads",
    "DEFAULT_LAMBDAS",
]

DEFAULT_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)

_TIME_KINDS = ("zero", "constant", "pulse", "sine")
_PROFILE_KINDS = ("constant", "sine", "values")
_WEIGHT_KINDS = ("constant", "values")
_MODE_KINDS = ("constant", "sine", "values")
_TARGET_KINDS = ("zero", "constant", "from-control")


def _fail(path, message):
    raise ScenarioValidationError(path, message)


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _object(value, path):
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    return value


def _require(obj, key, path):
    if key not in obj:
        _fail(_join(path, key), "required field is missing")
    return obj[key]


def _reject_unknown(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            _fail(_join(path, key), "unknown field")


def _number(value, path, *, minimum=None, exclusive_minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    value = float(value)
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}")
    if exclusive_minimum is not None and value <= exclusive_minimum:
        _fail(path, f"must be greater than {exclusive_minimum}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be at most {maximum}")
    return value


def _integer(value, path, *, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}")
    return value


def _string(value, path, choices=None):
    if not isinstance(value, str):
        _fail(path, "expected a string")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {', '.join(choices)}")
    return value


def _array(value, path):
    if not isinstance(value, list):
        _fail(path, "expected an array")
    stack = [value]
    while stack:  # every leaf a JSON number: no strings, booleans or nulls
        for x in stack.pop():
            if isinstance(x, list):
                stack.append(x)
            elif isinstance(x, bool) or not isinstance(x, (int, float)):
                _fail(path, "expected an array of numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged, too deep, or an int beyond float
        _fail(path, "expected an array of numbers")
    if not np.all(np.isfinite(arr)):
        _fail(path, "entries must be finite")
    return arr


@dataclass
class ControlSetup:
    """Parsed control block; target is resolved by build_control_problem."""

    spec: ControlSpec
    kappa: float
    target_kind: str
    target_value: float = 0.0
    target_coefficients: np.ndarray = None
    optimizer: dict = field(default_factory=dict)


@dataclass
class Scenario:
    """Validated scenario with constructed module objects."""

    seed: int = None
    metadata: dict = field(default_factory=dict)
    disc: SpatialDiscretization = None
    sfun: SFunctional = None
    reaction: ReactionFunction = None
    hyst_cfg: HysteresisConfig = None
    solver: SolverConfig = None
    source: Source = None
    direction: Source = None
    lambdas: tuple = DEFAULT_LAMBDAS
    control: ControlSetup = None
    diagnostic: dict = field(default_factory=dict)


def _parse_domain(cfg, path):
    cfg = _object(cfg, path)
    _reject_unknown(cfg, ("dimension", "extent", "resolution"), path)
    dim = _integer(_require(cfg, "dimension", path), _join(path, "dimension"))
    if dim not in (1, 2):
        _fail(_join(path, "dimension"), "must be 1 or 2")
    extent = _require(cfg, "extent", path)
    if not isinstance(extent, list) or len(extent) != dim:
        _fail(_join(path, "extent"), f"expected {dim} positive numbers")
    extent = tuple(
        _number(e, f"{path}.extent[{i}]", exclusive_minimum=0.0)
        for i, e in enumerate(extent)
    )
    res = _require(cfg, "resolution", path)
    if not isinstance(res, list) or len(res) != dim:
        _fail(_join(path, "resolution"), f"expected {dim} integers")
    res = tuple(
        _integer(r, f"{path}.resolution[{i}]", minimum=3) for i, r in enumerate(res)
    )
    return DomainSpec(dimension=dim, extent=extent, resolution=res)


def _parse_boundaries(cfg, dim, path):
    if not isinstance(cfg, list) or not cfg:
        _fail(path, "expected a nonempty array of per-component side labels")
    sides = _SIDES_1D if dim == 1 else _SIDES_2D
    out = []
    for j, entry in enumerate(cfg):
        epath = f"{path}[{j}]"
        entry = _object(entry, epath)
        _reject_unknown(entry, sides, epath)
        labels = {
            s: _string(_require(entry, s, epath), _join(epath, s), _LABELS)
            for s in sides
        }
        out.append(BoundarySides(**labels))
    return out


def _parse_hysteresis(cfg, path):
    cfg = _object(cfg, path)
    _reject_unknown(cfg, ("a", "b", "z0"), path)
    a = _number(_require(cfg, "a", path), _join(path, "a"))
    b = _number(_require(cfg, "b", path), _join(path, "b"))
    z0 = _number(_require(cfg, "z0", path), _join(path, "z0"))
    if not a < b:
        _fail(_join(path, "a"), f"must be strictly less than {_join(path, 'b')}")
    if not (a <= z0 <= b):
        _fail(_join(path, "z0"), f"must lie in [{a}, {b}]")
    return HysteresisConfig(a=a, b=b, z0=z0)


def _parse_reaction(cfg, path):
    cfg = _object(cfg, path)
    kind = _string(_require(cfg, "kind", path), _join(path, "kind"), REACTION_KINDS)
    table = kind == "user-table"
    names = ("y_grid", "z_grid", "values") if table else _REACTION_PARAMS[kind]
    _reject_unknown(cfg, ("kind",) + names + ("growth_constant",), path)
    parse = _array if table else _number
    values = [parse(_require(cfg, name, path), _join(path, name)) for name in names]
    growth = None
    if "growth_constant" in cfg:
        growth = _number(cfg["growth_constant"], _join(path, "growth_constant"),
                         exclusive_minimum=0.0)
    try:
        if table:
            return ReactionFunction.from_table(*values, growth)
        return ReactionFunction(kind, tuple(values), growth)
    except Exception as exc:
        _fail(path, str(exc))


def _parse_solver(cfg, path):
    cfg = _object(cfg, path)
    allowed = ("dt", "t_final", "scheme", "slice_length", "picard_tol",
               "picard_max_iters")
    _reject_unknown(cfg, allowed, path)
    kwargs = {
        "dt": _number(_require(cfg, "dt", path), _join(path, "dt"),
                      exclusive_minimum=0.0),
        "t_final": _number(_require(cfg, "t_final", path), _join(path, "t_final"),
                           exclusive_minimum=0.0),
    }
    if "scheme" in cfg:
        kwargs["scheme"] = _string(cfg["scheme"], _join(path, "scheme"), SCHEMES)
    if "slice_length" in cfg:
        kwargs["slice_length"] = _number(cfg["slice_length"],
                                         _join(path, "slice_length"),
                                         exclusive_minimum=0.0)
    if "picard_tol" in cfg:
        kwargs["picard_tol"] = _number(cfg["picard_tol"], _join(path, "picard_tol"),
                                       exclusive_minimum=0.0)
    if "picard_max_iters" in cfg:
        kwargs["picard_max_iters"] = _integer(cfg["picard_max_iters"],
                                              _join(path, "picard_max_iters"),
                                              minimum=1)
    try:
        return SolverConfig(**kwargs)
    except Exception as exc:
        _fail(path, str(exc))


def _parse_s_weight(cfg, disc, path):
    cfg = _object(cfg, path)
    kind = _string(_require(cfg, "kind", path), _join(path, "kind"), _WEIGHT_KINDS)
    if kind == "constant":
        _reject_unknown(cfg, ("kind", "value"), path)
        value = _number(_require(cfg, "value", path), _join(path, "value"))
        if value == 0.0:
            _fail(_join(path, "value"), "must be nonzero")
        weight = np.full((disc.n_components, disc.n_nodes), value)
    else:
        _reject_unknown(cfg, ("kind", "values"), path)
        weight = _array(_require(cfg, "values", path), _join(path, "values"))
        if weight.shape != (disc.n_components, disc.n_nodes):
            _fail(_join(path, "values"),
                  f"expected shape ({disc.n_components}, {disc.n_nodes}), "
                  f"got {weight.shape}")
    try:
        return SFunctional(weight=weight)
    except Exception as exc:
        _fail(path, str(exc))


def _spatial_profile(cfg, disc, path):
    """Per-node profile values from a profile sub-object."""
    if cfg is None:
        return np.ones(disc.n_nodes)
    cfg = _object(cfg, path)
    kind = _string(_require(cfg, "kind", path), _join(path, "kind"), _PROFILE_KINDS)
    if kind == "constant":
        _reject_unknown(cfg, ("kind",), path)
        return np.ones(disc.n_nodes)
    if kind == "values":
        _reject_unknown(cfg, ("kind", "values"), path)
        values = _array(_require(cfg, "values", path), _join(path, "values"))
        if values.shape != (disc.n_nodes,):
            _fail(_join(path, "values"),
                  f"expected {disc.n_nodes} entries, got shape {values.shape}")
        return values
    _reject_unknown(cfg, ("kind", "mode"), path)
    mode = _require(cfg, "mode", path)
    dim = disc.domain.dimension
    if isinstance(mode, int) and not isinstance(mode, bool):
        modes = (mode,) * dim
    elif isinstance(mode, list) and len(mode) == dim:
        modes = tuple(
            _integer(m, f"{path}.mode[{i}]", minimum=1) for i, m in enumerate(mode)
        )
    else:
        _fail(_join(path, "mode"),
              f"expected an integer or an array of {dim} integers")
    for m in modes:
        if m < 1:
            _fail(_join(path, "mode"), "mode numbers must be at least 1")
        if m >= 2**53:  # past the integers that floats hold exactly
            _fail(_join(path, "mode"), "mode numbers must be less than 2**53")
    return _sine_profile(disc, modes)


def _sine_profile(disc, modes):
    """Product over axes of sin(modes[axis] pi x_axis / extent_axis) at the nodes."""
    profile = np.ones(disc.n_nodes)
    for axis, extent in enumerate(disc.domain.extent):
        profile = profile * np.sin(modes[axis] * np.pi * disc.coords[:, axis] / extent)
    return profile


def _physical_memory():
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):  # no sysconf on this platform
        return math.inf


def _check_field_size(shape, path, axes="time points, components, nodes", doubles=1):
    """A validation error naming ``path`` if ``doubles`` float arrays of ``shape`` cannot fit.

    ``axes`` names the dimensions of ``shape`` in the message.  Nothing is
    allocated: the run's own arrays have this shape, so a size above
    physical memory is refused before a lazily committed allocation could
    run the machine out of memory later.
    """
    nbytes = 8 * doubles * math.prod(shape)
    if nbytes > _physical_memory():
        size = f"{nbytes:.3g}" if nbytes < 1e300 else "over 1e300"  # floats end at 1.8e308
        _fail(path, f"needs a {shape} array ({axes}) of {size} bytes, "
                    f"more than this machine can allocate")


def _parse_field_source(cfg, disc, solver, path):
    """Source path from a source block: a time amplitude times a spatial profile."""
    cfg = _object(cfg, path)
    kind = _string(_require(cfg, "kind", path), _join(path, "kind"), _TIME_KINDS)
    shape = (solver.n_steps + 1, disc.n_components, disc.n_nodes)
    _check_field_size(shape, path)
    times = solver.times()
    if kind == "zero":
        _reject_unknown(cfg, ("kind",), path)
        return Source(np.zeros(times.size), np.zeros(shape[1:]))

    common = ("kind", "profile", "component")
    if kind == "constant":
        _reject_unknown(cfg, common + ("value",), path)
        amp = np.full(times.size,
                      _number(_require(cfg, "value", path), _join(path, "value")))
    elif kind == "pulse":
        _reject_unknown(cfg, common + ("value", "start", "stop"), path)
        value = _number(_require(cfg, "value", path), _join(path, "value"))
        start = _number(_require(cfg, "start", path), _join(path, "start"), minimum=0.0)
        stop = _number(_require(cfg, "stop", path), _join(path, "stop"))
        if stop <= start:
            _fail(_join(path, "stop"), "must be greater than start")
        amp = np.where((times >= start) & (times < stop), value, 0.0)
    else:
        _reject_unknown(cfg, common + ("amplitude", "omega"), path)
        amplitude = _number(_require(cfg, "amplitude", path), _join(path, "amplitude"))
        omega = _number(_require(cfg, "omega", path), _join(path, "omega"))
        amp = amplitude * np.sin(omega * times)

    profile = _spatial_profile(cfg.get("profile"), disc, _join(path, "profile"))
    component = cfg.get("component", "all")
    if component == "all":
        return Source(amp, np.tile(profile, (disc.n_components, 1)))
    component = _integer(component, _join(path, "component"), minimum=0)
    if component >= disc.n_components:
        _fail(_join(path, "component"), f"must be less than {disc.n_components}")
    profiles = np.zeros(shape[1:])
    profiles[component] = profile
    return Source(amp, profiles, component)


def _parse_spatial_modes(cfg, disc, path):
    cfg = _object(cfg, path)
    kind = _string(_require(cfg, "kind", path), _join(path, "kind"), _MODE_KINDS)
    if kind == "values":
        _reject_unknown(cfg, ("kind", "values"), path)
        modes = _array(_require(cfg, "values", path), _join(path, "values"))
        if modes.ndim != 3 or modes.shape[1:] != (disc.n_components, disc.n_nodes):
            _fail(_join(path, "values"),
                  f"expected shape (n_modes, {disc.n_components}, {disc.n_nodes})")
        return modes
    component = cfg.get("component", 0)
    component = _integer(component, _join(path, "component"), minimum=0)
    if component >= disc.n_components:
        _fail(_join(path, "component"), f"must be less than {disc.n_components}")
    if kind == "constant":
        _reject_unknown(cfg, ("kind", "component"), path)
        modes = np.zeros((1, disc.n_components, disc.n_nodes))
        modes[0, component, :] = 1.0
        return modes
    _reject_unknown(cfg, ("kind", "count", "component"), path)
    count = _integer(_require(cfg, "count", path), _join(path, "count"), minimum=1)
    _check_field_size((count, disc.n_components, disc.n_nodes), _join(path, "count"),
                      "modes, components, nodes")
    modes = np.zeros((count, disc.n_components, disc.n_nodes))
    for s in range(1, count + 1):
        modes[s - 1, component, :] = _sine_profile(disc, (s,) * disc.domain.dimension)
    return modes


def _parse_control(cfg, disc, path):
    cfg = _object(cfg, path)
    allowed = ("mode", "time_knots", "spatial_modes", "component",
               "coefficients", "kappa", "target", "optimizer")
    _reject_unknown(cfg, allowed, path)
    mode = _string(_require(cfg, "mode", path), _join(path, "mode"),
                   ("distributed", "boundary"))
    time_knots = _integer(_require(cfg, "time_knots", path),
                          _join(path, "time_knots"), minimum=1)
    kappa = _number(_require(cfg, "kappa", path), _join(path, "kappa"),
                    exclusive_minimum=0.0)

    if mode == "distributed":
        if "spatial_modes" not in cfg:
            _fail(_join(path, "spatial_modes"), "required field is missing")
        modes = _parse_spatial_modes(cfg["spatial_modes"], disc,
                                     _join(path, "spatial_modes"))
        component = 0
        n_spatial = modes.shape[0]
    else:
        modes = None
        component = _integer(cfg.get("component", 0), _join(path, "component"),
                             minimum=0)
        if component >= disc.n_components:
            _fail(_join(path, "component"), f"must be less than {disc.n_components}")
        n_neumann = disc.components[component].neumann_nodes.size
        if n_neumann == 0:
            _fail(_join(path, "component"),
                  "component has no Neumann boundary nodes to control")
        n_spatial = n_neumann

    n_coeff = time_knots * n_spatial
    _check_field_size((n_coeff,), _join(path, "time_knots"), "coefficients")
    if "coefficients" in cfg:
        coeffs = _array(cfg["coefficients"], _join(path, "coefficients"))
        if coeffs.shape != (n_coeff,):
            _fail(_join(path, "coefficients"),
                  f"expected {n_coeff} entries, got shape {coeffs.shape}")
    else:
        coeffs = np.zeros(n_coeff)
    try:
        spec = ControlSpec(mode=mode, time_knots=time_knots, coefficients=coeffs,
                           spatial_modes=modes, component=component)
    except Exception as exc:
        _fail(path, str(exc))

    target = _object(_require(cfg, "target", path), _join(path, "target"))
    tkind = _string(_require(target, "kind", _join(path, "target")),
                    _join(path, "target.kind"), _TARGET_KINDS)
    tvalue, tcoeffs = 0.0, None
    if tkind == "constant":
        _reject_unknown(target, ("kind", "value"), _join(path, "target"))
        tvalue = _number(_require(target, "value", _join(path, "target")),
                         _join(path, "target.value"))
    elif tkind == "from-control":
        _reject_unknown(target, ("kind", "coefficients"), _join(path, "target"))
        tcoeffs = _array(_require(target, "coefficients", _join(path, "target")),
                         _join(path, "target.coefficients"))
        if tcoeffs.shape != (n_coeff,):
            _fail(_join(path, "target.coefficients"),
                  f"expected {n_coeff} entries, got shape {tcoeffs.shape}")
    else:
        _reject_unknown(target, ("kind",), _join(path, "target"))

    opt_defaults = {"max_iters": 100, "tol": 1e-8, "initial_step": 1.0,
                    "armijo_c1": 1e-4, "max_halvings": 40}
    optimizer = dict(opt_defaults)
    if "optimizer" in cfg:
        opt = _object(cfg["optimizer"], _join(path, "optimizer"))
        _reject_unknown(opt, tuple(opt_defaults), _join(path, "optimizer"))
        opath = _join(path, "optimizer")
        if "max_iters" in opt:
            optimizer["max_iters"] = _integer(opt["max_iters"],
                                              _join(opath, "max_iters"), minimum=1)
        if "max_halvings" in opt:
            optimizer["max_halvings"] = _integer(opt["max_halvings"],
                                                 _join(opath, "max_halvings"),
                                                 minimum=1)
        for name in ("tol", "initial_step", "armijo_c1"):
            if name in opt:
                optimizer[name] = _number(opt[name], _join(opath, name),
                                          exclusive_minimum=0.0)
    return ControlSetup(spec=spec, kappa=kappa, target_kind=tkind,
                        target_value=tvalue, target_coefficients=tcoeffs,
                        optimizer=optimizer)


def _parse_diagnostic(cfg, disc, path):
    defaults = {"theta": 0.5, "gamma": 0.5, "component": 0,
                "t_min": 1e-3, "t_max": 20.0, "t_count": 400}
    if cfg is None:
        return defaults
    cfg = _object(cfg, path)
    _reject_unknown(cfg, tuple(defaults), path)
    out = dict(defaults)
    if "theta" in cfg:
        out["theta"] = _number(cfg["theta"], _join(path, "theta"), minimum=0.0)
        if out["theta"] >= 1.0:
            _fail(_join(path, "theta"), "must be less than 1")
    if "gamma" in cfg:
        out["gamma"] = _number(cfg["gamma"], _join(path, "gamma"),
                               exclusive_minimum=0.0)
        if out["gamma"] >= 1.0:
            _fail(_join(path, "gamma"), "must be less than 1")
    if "component" in cfg:
        out["component"] = _integer(cfg["component"], _join(path, "component"),
                                    minimum=0)
        if disc is not None and out["component"] >= disc.n_components:
            _fail(_join(path, "component"), f"must be less than {disc.n_components}")
    if "t_min" in cfg:
        out["t_min"] = _number(cfg["t_min"], _join(path, "t_min"),
                               exclusive_minimum=0.0)
    if "t_max" in cfg:
        out["t_max"] = _number(cfg["t_max"], _join(path, "t_max"),
                               exclusive_minimum=0.0)
    if out["t_max"] <= out["t_min"]:
        _fail(_join(path, "t_max"), "must be greater than t_min")
    if "t_count" in cfg:
        out["t_count"] = _integer(cfg["t_count"], _join(path, "t_count"), minimum=2)
        _check_field_size((out["t_count"],), _join(path, "t_count"), "times")
    return out


_TOP_LEVEL = ("domain", "boundaries", "diffusion", "s_weight", "hysteresis",
              "reaction", "solver", "source", "direction", "lambdas", "control",
              "diagnostic", "seed", "alpha", "p")


def load_hysteresis_config(cfg) -> HysteresisConfig:
    """Hysteresis config from a bare {a, b, z0} object or a full scenario, validated whole."""
    cfg = _object(cfg, "")
    if "hysteresis" in cfg:
        return load_scenario(cfg, needs=()).hyst_cfg
    return _parse_hysteresis(cfg, "hysteresis")


def load_scenario(cfg, needs=("state",)) -> Scenario:
    """Validate a scenario dict and construct the requested module objects.

    ``needs`` lists capability tokens: 'spatial' (grid only), 'state' (full
    state equation and source), 'direction', 'lambdas', 'control',
    'diagnostic'.  Everything present in the file is validated; ``needs``
    only controls which blocks are required to be present.
    """
    cfg = _object(cfg, "")
    needs = frozenset(needs)
    _reject_unknown(cfg, _TOP_LEVEL, "")
    scn = Scenario()

    if "seed" in cfg:
        scn.seed = _integer(cfg["seed"], "seed", minimum=0)
    if "p" in cfg:
        scn.metadata["p"] = _number(cfg["p"], "p", minimum=1.0)
    if "alpha" in cfg:
        alpha = _number(cfg["alpha"], "alpha", exclusive_minimum=0.0)
        if "control" in cfg and alpha >= 0.5:
            _fail("alpha", "must be less than 1/2 when a control block is present")
        scn.metadata["alpha"] = alpha

    spatial_needed = bool(needs & {"spatial", "state", "control", "direction"})
    if spatial_needed or "domain" in cfg:
        domain = _parse_domain(_require(cfg, "domain", ""), "domain")
        boundaries = _parse_boundaries(_require(cfg, "boundaries", ""),
                                       domain.dimension, "boundaries")
        # assemble's peak in doubles per node (tracemalloc): 6 + 4 m in 1D, 9 + m in 2D
        doubles = 7 + 4 * len(boundaries)
        _check_field_size(domain.resolution, "domain.resolution",
                          f"nodes per axis, {doubles} doubles per node", doubles)
        diffusion = _array(_require(cfg, "diffusion", ""), "diffusion")
        if diffusion.ndim != 1 or diffusion.size != len(boundaries):
            _fail("diffusion",
                  f"expected {len(boundaries)} coefficients (one per component)")
        if np.any(diffusion <= 0.0):
            _fail("diffusion", "coefficients must be positive")
        try:
            scn.disc = assemble(domain, boundaries, diffusion)
        except Exception as exc:
            _fail("domain", str(exc))

    state_needed = "state" in needs or "control" in needs
    if state_needed or "hysteresis" in cfg:
        scn.hyst_cfg = _parse_hysteresis(_require(cfg, "hysteresis", ""),
                                         "hysteresis")
    if state_needed or "solver" in cfg:
        scn.solver = _parse_solver(_require(cfg, "solver", ""), "solver")
    if state_needed or "reaction" in cfg:
        scn.reaction = _parse_reaction(_require(cfg, "reaction", ""), "reaction")
    if (state_needed or "s_weight" in cfg) and scn.disc is not None:
        scn.sfun = _parse_s_weight(_require(cfg, "s_weight", ""), scn.disc,
                                   "s_weight")

    if scn.disc is not None and scn.solver is not None:
        if state_needed or "source" in cfg:
            scn.source = _parse_field_source(
                _require(cfg, "source", ""), scn.disc, scn.solver, "source")
        if "direction" in needs or "direction" in cfg:
            scn.direction = _parse_field_source(
                _require(cfg, "direction", ""), scn.disc, scn.solver, "direction")

    if "lambdas" in cfg:
        lam = _array(cfg["lambdas"], "lambdas")
        if lam.ndim != 1 or lam.size == 0:
            _fail("lambdas", "expected a nonempty array of step sizes")
        if np.any(lam <= 0.0) or np.any(np.diff(lam) >= 0.0):
            _fail("lambdas", "must be positive and strictly decreasing")
        scn.lambdas = tuple(float(x) for x in lam)

    if "control" in needs or "control" in cfg:
        if scn.disc is None:
            _fail("control", "requires domain, boundaries, and diffusion")
        scn.control = _parse_control(_require(cfg, "control", ""), scn.disc,
                                     "control")

    if "diagnostic" in needs or "diagnostic" in cfg:
        scn.diagnostic = _parse_diagnostic(cfg.get("diagnostic"), scn.disc, "diagnostic")

    return scn


def build_control_problem(scn: Scenario):
    """Resolve the target field and assemble the optimizer inputs.

    Returns (problem, initial spec, optimizer options).  A 'from-control'
    target runs one state solve at the given coefficients.
    """
    setup = scn.control
    shape = (scn.solver.n_steps + 1, scn.disc.n_components, scn.disc.n_nodes)
    _check_field_size(shape, "control.target")
    # the optimizer's Gram matrix and the time profiles of the control basis
    n, knots = setup.spec.n_coefficients, setup.spec.time_knots
    _check_field_size((n, n), "control.time_knots", "coefficients, coefficients")
    _check_field_size((knots, shape[0]), "control.time_knots", "knots, time points")
    if setup.target_kind == "zero":
        target = np.zeros(shape)
    elif setup.target_kind == "constant":
        target = np.full(shape, setup.target_value)
    else:
        u_d = apply_B(scn.disc, setup.spec.with_coefficients(
            setup.target_coefficients), scn.solver.times())
        traj = solve_state(scn.disc, scn.sfun, scn.reaction, scn.hyst_cfg,
                           u_d, scn.solver)
        target = traj.states
    problem = ControlProblem(disc=scn.disc, sfun=scn.sfun, reaction=scn.reaction,
                             hyst_cfg=scn.hyst_cfg, solver=scn.solver,
                             target=target, kappa=setup.kappa)
    return problem, setup.spec, dict(setup.optimizer)


def loads(text: str, needs=("state",)) -> Scenario:
    """Parse scenario JSON text and validate per ``needs``."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError("", f"invalid JSON: {exc}") from exc
    return load_scenario(cfg, needs)
