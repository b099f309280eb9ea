"""Scenario JSON: schema, validation, and builders for the other modules.

A scenario file is one JSON object describing the grid, boundary labels,
diffusion, the S functional weight, the hysteresis bounds, the reaction
term, the solver, and optionally a source, a perturbation direction, a
control problem block, and diagnostic options.  Each block is declared
once, as a table of ``_Field``s; a block with a ``kind`` (the control: a
``mode``) has one table per kind.  A table of scalars that a constructor
takes lives next to that constructor (``_SOLVER`` in ``evolution``,
``_HYSTERESIS`` in ``hysteresis``, ...), which checks its arguments with the
same ``_Field``s and ``_array`` and holds the rules that span its values
(``a`` below ``b``, one diffusion coefficient per component), so the library
refuses what a scenario file refuses.  The builders below the tables make
the module objects through those constructors and report the library's grid
rules (see ``errors``) through ``_build`` at the field's path.  The rules a
file alone has are a pulse's start below its stop, the ``omega`` range,
``t_min`` below ``t_max``, ``alpha`` below 1/2 with a control block, the
sine-mode range, a constant S weight's nonzero value, and the size guards.
Validation reports every problem with the dotted path of the offending field
(for example ``hysteresis.a``) and never partially constructs a scenario.  A
source or direction block becomes an ``evolution.Source``: its time amplitude
and its spatial profile, never the dense (N+1, components, nodes) path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .control import (_KAPPA, _OPTIMIZER, _SPEC, ControlProblem, ControlSpec, _boundary_data,
                      _grid_modes, apply_B)
from .errors import (_ANY, _INDEX, _NUMBER, _REQUIRED, ScenarioValidationError, _array, _axes,
                     _check_entries, _fail, _Field, _integer, _number, _string)
from .evolution import _REACTION_PARAMS, _SOLVER, ReactionFunction, SolverConfig, Source, solve_state
from .hysteresis import _HYSTERESIS, HysteresisConfig
from .sensitivity import _check_lambdas
from .spatial import (_DOMAIN, _SIDES, _SIDES_1D, _SIDES_2D, _SPECTRUM, BoundarySides,
                      DomainSpec, SFunctional, SpatialDiscretization, _component, _s_field,
                      assemble)

__all__ = [
    "Scenario",
    "ControlSetup",
    "load_scenario",
    "load_hysteresis_config",
    "build_control_problem",
    "DEFAULT_LAMBDAS",
]

DEFAULT_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


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


class _Variants(NamedTuple):
    """A block whose ``key`` field names which of ``tables`` it follows."""

    key: str
    tables: dict


def _fields(cfg, path, spec):
    """The fields of ``cfg`` that the table ``spec`` declares: undeclared names
    are refused first, then each field is checked in table order."""
    cfg = _object(cfg, path)
    for key in cfg:
        if key not in spec:
            _fail(_join(path, key), "unknown field")
    out = {}
    for name, f in spec.items():
        if name in cfg:
            out[name] = f.type(cfg[name], _join(path, name), f) if callable(f.type) else cfg[name]
        elif f.default is _REQUIRED:
            _fail(_join(path, name), "required field is missing")
        elif f.default is not None:
            out[name] = f.default
    return out


def _variant(cfg, path, variants):
    """The fields of the table that ``cfg``'s kind (or mode) names, that name included."""
    key = variants.key
    kind = _string(_require(_object(cfg, path), key, path), _join(path, key),
                   _Field(_string, choices=tuple(variants.tables)))
    return _fields(cfg, path, {key: _ANY, **variants.tables[kind]})


_ARRAY = _Field(_array)
_REACTIONS = _Variants("kind", {
    **_REACTION_PARAMS, "user-table": {"y_grid": _ARRAY, "z_grid": _ARRAY, "values": _ARRAY}})
_WEIGHTS = _Variants("kind", {"constant": {"value": _NUMBER}, "values": {"values": _ARRAY}})
# a sine profile's ``mode`` is one integer for every axis, or a list of one per axis
_PROFILES = _Variants("kind", {"constant": {}, "sine": {"mode": _ANY},
                               "values": {"values": _ARRAY}})
_PLACEMENT = {"profile": _Field(_PROFILES, {"kind": "constant"}), "component": _Field("any", "all")}
_SOURCES = _Variants("kind", {
    "zero": {},
    "constant": {"value": _NUMBER, **_PLACEMENT},
    "pulse": {"value": _NUMBER, "start": _Field(_number, minimum=0.0), "stop": _NUMBER,
              **_PLACEMENT},
    "sine": {"amplitude": _NUMBER, "omega": _NUMBER, **_PLACEMENT},
})
_MODES = _Variants("kind", {
    "constant": {"component": _INDEX},
    "sine": {"component": _INDEX, "count": _Field(_integer, minimum=1)},
    "values": {"values": _ARRAY},
})
_TARGETS = _Variants("kind", {"zero": {}, "constant": {"value": _NUMBER},
                              "from-control": {"coefficients": _ARRAY}})
_CONTROL = {"time_knots": _SPEC["time_knots"], "kappa": _KAPPA,
            "coefficients": _Field(_array, None), "target": _Field(_TARGETS),
            "optimizer": _Field(_OPTIMIZER, {})}
_CONTROLS = _Variants("mode", {"distributed": {**_CONTROL, "spatial_modes": _Field(_MODES)},
                               "boundary": {**_CONTROL, "component": _SPEC["component"]}})
_DIAGNOSTIC = {
    **_SPECTRUM,  # theta, gamma, component
    "t_min": _Field(_number, 1e-3, exclusive_minimum=0.0),
    "t_max": _Field(_number, 20.0, exclusive_minimum=0.0),
    "t_count": _Field(_integer, 400, minimum=2),
}
# ``needs`` says which blocks are required; ``assemble`` and the fd study's
# ``_check_lambdas`` check the two arrays, after the grid
_SCENARIO = {
    "seed": _Field(_integer, None, minimum=0),
    "p": _Field(_number, None, minimum=1.0),
    "alpha": _Field(_number, None, exclusive_minimum=0.0),
    "domain": _Field(_DOMAIN, None),
    "boundaries": _Field("any", None),  # a nonempty list of _SIDES tables
    "diffusion": _Field("any", None),
    "hysteresis": _Field(_HYSTERESIS, None),
    "solver": _Field(_SOLVER, None),
    "reaction": _Field(_REACTIONS, None),
    "s_weight": _Field(_WEIGHTS, None),
    "source": _Field(_SOURCES, None),
    "direction": _Field(_SOURCES, None),
    "lambdas": _Field("any", None),
    "control": _Field(_CONTROLS, None),
    "diagnostic": _Field(_DIAGNOSTIC, None),
}


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


def _build(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, any error it raises reported at ``path``: a
    field's own (a ``ScenarioValidationError``) at that field of ``path``."""
    try:
        return make(*args, **kwargs)
    except ScenarioValidationError as exc:
        _fail(_join(path, exc.field_path), exc.reason)
    except Exception as exc:
        _fail(path, str(exc))


def _boundaries(cfg, dim, path):
    if not isinstance(cfg, list) or not cfg:
        _fail(path, "expected a nonempty array of per-component side labels")
    sides = {s: _SIDES[s] for s in (_SIDES_1D if dim == 1 else _SIDES_2D)}
    return [BoundarySides(**_fields(entry, f"{path}[{j}]", sides))
            for j, entry in enumerate(cfg)]


def _reaction(cfg, path):
    cfg = _variant(cfg, path, _REACTIONS)
    kind = cfg.pop("kind")
    # the remaining values are the kind's parameters (a table's arrays), in table order
    if kind == "user-table":
        return _build(path, ReactionFunction, kind, table=tuple(cfg.values()))
    return _build(path, ReactionFunction, kind, tuple(cfg.values()))


def _s_weight(cfg, disc, path):
    cfg = _variant(cfg, path, _WEIGHTS)
    if cfg["kind"] == "constant":
        if cfg["value"] == 0.0:
            _fail(_join(path, "value"), "must be nonzero")
        weight = np.full((disc.n_components, disc.n_nodes), cfg["value"])
    else:
        weight = cfg["values"]
        _build(_join(path, "values"), _s_field, disc, weight)
    return _build(path, SFunctional, weight=weight)


def _spatial_profile(cfg, disc, path):
    """Per-node profile values from a profile sub-object."""
    cfg = _variant(cfg, path, _PROFILES)
    if cfg["kind"] == "constant":
        return np.ones(disc.n_nodes)
    if cfg["kind"] == "values":
        _check_entries(cfg["values"], disc.n_nodes, _join(path, "values"))
        return cfg["values"]
    mode, dim = cfg["mode"], disc.domain.dimension
    if isinstance(mode, int) and not isinstance(mode, bool):
        modes = (mode,) * dim
    else:
        modes = _axes(mode, _join(path, "mode"), dim, _Field(_integer, minimum=1),
                      f"an integer or an array of {dim} integers")
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


def _field_source(cfg, disc, solver, path):
    """Source path from a source block: a time amplitude times a spatial profile."""
    cfg = _variant(cfg, path, _SOURCES)
    shape = (solver.n_steps + 1, disc.n_components, disc.n_nodes)
    _check_field_size(shape, path)
    times = solver.times()
    kind = cfg["kind"]
    if kind == "zero":
        return Source(np.zeros(times.size), np.zeros(shape[1:]))
    if kind == "constant":
        amp = np.full(times.size, cfg["value"])
    elif kind == "pulse":
        if cfg["stop"] <= cfg["start"]:
            _fail(_join(path, "stop"), "must be greater than start")
        amp = np.where((times >= cfg["start"]) & (times < cfg["stop"]), cfg["value"], 0.0)
    else:
        phase = cfg["omega"] * times
        if not np.all(np.isfinite(phase)):
            _fail(_join(path, "omega"), "omega * t_final must be finite")
        amp = cfg["amplitude"] * np.sin(phase)

    profile = _spatial_profile(cfg["profile"], disc, _join(path, "profile"))
    component = cfg["component"]
    if component == "all":
        return _build(path, Source, amp, np.tile(profile, (disc.n_components, 1)))
    _build(path, _component, disc, component)
    profiles = np.zeros(shape[1:])
    profiles[component] = profile
    return _build(path, Source, amp, profiles, component)


def _spatial_modes(cfg, disc, path):
    cfg = _variant(cfg, path, _MODES)
    if cfg["kind"] == "values":
        return _build(_join(path, "values"), _grid_modes, disc, cfg["values"])
    shape = (disc.n_components, disc.n_nodes)
    component = cfg["component"]
    _build(path, _component, disc, component)
    if cfg["kind"] == "constant":
        modes = np.zeros((1, *shape))
        modes[0, component, :] = 1.0
        return modes
    count = cfg["count"]
    _check_field_size((count, *shape), _join(path, "count"), "modes, components, nodes")
    modes = np.zeros((count, *shape))
    for s in range(1, count + 1):
        modes[s - 1, component, :] = _sine_profile(disc, (s,) * disc.domain.dimension)
    return modes


def _control(cfg, disc, path):
    cfg = _variant(cfg, path, _CONTROLS)
    if cfg["mode"] == "distributed":
        modes = _spatial_modes(cfg["spatial_modes"], disc, _join(path, "spatial_modes"))
        component, n_spatial = 0, modes.shape[0]
    else:
        modes, component = None, cfg["component"]
        n_spatial = _build(path, _boundary_data, disc, component)[0].size

    n_coeff = cfg["time_knots"] * n_spatial
    _check_field_size((n_coeff,), _join(path, "time_knots"), "coefficients")
    coeffs = cfg.get("coefficients", np.zeros(n_coeff))
    _check_entries(coeffs, n_coeff, _join(path, "coefficients"))
    spec = _build(path, ControlSpec, mode=cfg["mode"], time_knots=cfg["time_knots"],
                  coefficients=coeffs, spatial_modes=modes, component=component)

    target = _variant(cfg["target"], _join(path, "target"), _TARGETS)
    if target["kind"] == "from-control":
        _check_entries(target["coefficients"], n_coeff, _join(path, "target.coefficients"))
    return ControlSetup(spec=spec, kappa=cfg["kappa"], target_kind=target["kind"],
                        target_value=target.get("value", 0.0),
                        target_coefficients=target.get("coefficients"),
                        optimizer=_fields(cfg["optimizer"], _join(path, "optimizer"),
                                          _OPTIMIZER))


def _diagnostic(cfg, disc, path):
    out = _fields(cfg, path, _DIAGNOSTIC)
    if disc is not None:
        _build(path, _component, disc, out["component"])
    if out["t_max"] <= out["t_min"]:
        _fail(_join(path, "t_max"), "must be greater than t_min")
    _check_field_size((out["t_count"],), _join(path, "t_count"), "times")
    return out


def load_hysteresis_config(cfg) -> HysteresisConfig:
    """Hysteresis config from a bare {a, b, z0} object or a full scenario,
    validated whole: an object with any scenario field is a full scenario,
    and its ``hysteresis`` block is required."""
    cfg = _object(cfg, "")
    if cfg.keys() & _SCENARIO.keys():
        _require(cfg, "hysteresis", "")
        return load_scenario(cfg, needs=()).hyst_cfg
    return _build("hysteresis", HysteresisConfig, **_fields(cfg, "hysteresis", _HYSTERESIS))


def load_scenario(cfg, needs=("state",)) -> Scenario:
    """Validate a scenario dict and construct the requested module objects.

    ``needs`` lists capability tokens: 'spatial' (grid only), 'state' (full
    state equation and source), 'direction', 'lambdas', 'control',
    'diagnostic'.  Everything present in the file is validated; ``needs``
    only controls which blocks are required to be present.
    """
    cfg = _fields(cfg, "", _SCENARIO)
    needs = frozenset(needs)
    if "control" in cfg and cfg.get("alpha", 0.0) >= 0.5:
        _fail("alpha", "must be less than 1/2 when a control block is present")
    scn = Scenario(seed=cfg.get("seed"),
                   metadata={key: cfg[key] for key in ("p", "alpha") if key in cfg})

    spatial_needed = bool(needs & {"spatial", "state", "control", "direction"})
    if spatial_needed or "domain" in cfg:
        domain = _build("domain", DomainSpec, **_fields(_require(cfg, "domain", ""), "domain",
                                                        _DOMAIN))
        boundaries = _boundaries(_require(cfg, "boundaries", ""),
                                 domain.dimension, "boundaries")
        # assemble's peak in doubles per node (tracemalloc): 6 + 4 m in 1D, 9 + m in 2D
        doubles = 7 + 4 * len(boundaries)
        _check_field_size(domain.resolution, "domain.resolution",
                          f"nodes per axis, {doubles} doubles per node", doubles)
        # assemble's field errors name top-level fields (``diffusion``)
        scn.disc = _build("", assemble, domain, boundaries, _require(cfg, "diffusion", ""))

    state_needed = "state" in needs or "control" in needs
    if state_needed or "hysteresis" in cfg:
        hysteresis = _fields(_require(cfg, "hysteresis", ""), "hysteresis", _HYSTERESIS)
        scn.hyst_cfg = _build("hysteresis", HysteresisConfig, **hysteresis)
    if state_needed or "solver" in cfg:
        scn.solver = _build("solver", SolverConfig,
                            **_fields(_require(cfg, "solver", ""), "solver", _SOLVER))
    if state_needed or "reaction" in cfg:
        scn.reaction = _reaction(_require(cfg, "reaction", ""), "reaction")
    if (state_needed or "s_weight" in cfg) and scn.disc is not None:
        scn.sfun = _s_weight(_require(cfg, "s_weight", ""), scn.disc, "s_weight")

    if scn.disc is not None and scn.solver is not None:
        if state_needed or "source" in cfg:
            scn.source = _field_source(
                _require(cfg, "source", ""), scn.disc, scn.solver, "source")
        if "direction" in needs or "direction" in cfg:
            scn.direction = _field_source(
                _require(cfg, "direction", ""), scn.disc, scn.solver, "direction")

    if "lambdas" in cfg:
        scn.lambdas = tuple(_build("", _check_lambdas, cfg["lambdas"]).tolist())

    if "control" in needs or "control" in cfg:
        if scn.disc is None:
            _fail("control", "requires domain, boundaries, and diffusion")
        scn.control = _control(_require(cfg, "control", ""), scn.disc, "control")

    if "diagnostic" in needs or "diagnostic" in cfg:
        scn.diagnostic = _diagnostic(cfg.get("diagnostic", {}), scn.disc, "diagnostic")

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

