"""The library refuses exactly what the scenario schema refuses.

Each scalar parameter whose rule is a ``_Field`` is fed the values the golden
fuzzer uses, a numeric string, and its bounds and choices.  The schema's verdict is a scenario
load with the value in the parameter's place; the library's is a direct call
of the constructor or entry point that takes it.  A refusal is an
``InvalidConfigError`` (exit code 2) whose message is the schema's, less the
path of the block: ``dt: must be greater than 0.0`` for ``solver.dt``.
Each array parameter is fed faulty arrays, and each rule that spans values
its edge cases, in the same way.
"""

import copy
import dataclasses
import inspect
import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from stopsim import (
    BoundarySides,
    ControlSpec,
    DomainSpec,
    EmptyBoundaryError,
    GridMismatchError,
    HysteresisConfig,
    InvalidConfigError,
    ReactionFunction,
    ScenarioValidationError,
    SFunctional,
    SolverConfig,
    Source,
    StopsimError,
    apply_B,
    assemble,
    build_control_problem,
    control_gram,
    evaluate_S,
    fd_convergence_study,
    fractional_power_diagnostic,
    hadamard_perturbed_quotient,
    load_scenario,
    optimize,
    solve_sensitivity,
    solve_state,
)
from stopsim.control import _OPTIMIZER
from stopsim.evolution import _SOLVER
from stopsim.spatial import _component

# every block valid; a pair's block replaces the one at its path
BASE = {
    "domain": {"dimension": 1, "extent": [1.0], "resolution": [5]},
    "boundaries": [{"left": "dirichlet", "right": "neumann"}],
    "diffusion": [1.0],
    "s_weight": {"kind": "constant", "value": 1.0},
    "hysteresis": {"a": -1.0, "b": 1.0, "z0": 0.0},
    "reaction": {"kind": "linear", "constant": 0.0, "state": -1.0, "hysteresis": 0.5},
    "solver": {"dt": 0.5, "t_final": 5.0},
    "source": {"kind": "constant", "value": 1.0, "component": 0},
    "control": {"mode": "boundary", "component": 0, "time_knots": 1, "kappa": 0.1,
                "target": {"kind": "zero"}, "optimizer": {"max_iters": 1}},
    "diagnostic": {},
}
SCN = load_scenario(copy.deepcopy(BASE))
PROBLEM, SPEC, _ = build_control_problem(SCN)


def reaction(block):
    return ReactionFunction(block["kind"], tuple(v for k, v in block.items() if k != "kind"))


def control(block):
    ControlSpec(mode="boundary", time_knots=block["time_knots"], coefficients=np.zeros(1),
                component=block["component"])
    dataclasses.replace(PROBLEM, kappa=block["kappa"])


CALLS = {  # the library's call on a block
    "hysteresis": lambda b: HysteresisConfig(**b),
    "solver": lambda b: SolverConfig(**b),
    "reaction": reaction,
    "domain": lambda b: DomainSpec(**b),
    "control": control,
    "control.optimizer": lambda b: optimize(PROBLEM, SPEC, **b),
    "diagnostic": lambda b: fractional_power_diagnostic(
        SCN.disc, b.get("theta", 0.5), gamma=b.get("gamma", 0.5), component=b.get("component", 0)),
    "source": lambda b: _component(SCN.disc, b.get("component", 0)),
}


class Pair(NamedTuple):
    path: str     # the block's path in a scenario, a key of ``CALLS``
    block: dict   # valid, with the parameter at a valid value
    key: tuple    # the parameter's place in the block
    edges: tuple = ()      # its bounds, or its choices
    optional: bool = False  # None is the library's "absent"

    @property
    def name(self):
        return "".join(f"[{k}]" if isinstance(k, int) else k for k in self.key)

    @property
    def id(self):
        kind = f"[{self.block['kind']}]" if self.path == "reaction" else ""
        return f"{self.path}{kind}.{self.name}"


LINEAR = BASE["reaction"]
SATURATING = {"kind": "saturating", "state_amplitude": -0.7, "state_rate": 1.1,
              "hysteresis_amplitude": 0.8, "hysteresis_rate": 0.9}
LOGISTIC = {"kind": "logistic-capped", "rate": 0.5, "capacity": 2.0, "cap": 3.0,
            "hysteresis": 0.2}
CONTROL = BASE["control"]
PAIRS = [
    Pair("hysteresis", {"a": 0.0, "b": 10.0, "z0": 5.0}, ("a",)),
    Pair("hysteresis", {"a": -10.0, "b": 0.0, "z0": -5.0}, ("b",)),
    Pair("hysteresis", {"a": -10.0, "b": 10.0, "z0": 0.0}, ("z0",)),
    Pair("solver", {"dt": 0.5, "t_final": 5.0}, ("dt",), (0.0,)),
    Pair("solver", {"dt": 0.5, "t_final": 5.0}, ("t_final",), (0.0,)),
    Pair("solver", {"dt": 0.5, "t_final": 5.0, "scheme": "imex-euler"}, ("scheme",),
         ("imex-euler", "picard-sliced")),
    Pair("solver", {"dt": 0.5, "t_final": 5.0, "slice_length": 1.0}, ("slice_length",), (0.0,),
         optional=True),
    Pair("solver", {"dt": 0.5, "t_final": 5.0, "picard_tol": 1e-9}, ("picard_tol",), (0.0,)),
    Pair("solver", {"dt": 0.5, "t_final": 5.0, "picard_max_iters": 5}, ("picard_max_iters",),
         (1,)),
    *[Pair("reaction", block, (name,)) for block in (LINEAR, SATURATING, LOGISTIC)
      for name in block if name != "kind"],
    Pair("domain", BASE["domain"], ("dimension",), (1, 2)),
    Pair("domain", BASE["domain"], ("extent", 0), (0.0,)),
    Pair("domain", BASE["domain"], ("resolution", 0), (3,)),
    Pair("control", CONTROL, ("time_knots",), (1,)),
    Pair("control", CONTROL, ("component",), (0,)),
    Pair("control", CONTROL, ("kappa",), (0.0,)),
    *[Pair("control.optimizer", {"max_iters": 1, name: f.default}, (name,),
           (f.minimum, f.exclusive_minimum, f.below)) for name, f in _OPTIMIZER.items()],
    Pair("diagnostic", {"theta": 0.5}, ("theta",), (0.0, 1)),
    Pair("diagnostic", {"gamma": 0.5}, ("gamma",), (0.0, 1)),
    Pair("diagnostic", {"component": 0}, ("component",), (0,)),
    Pair("source", BASE["source"], ("component",), (0,), optional=True),
]
MENU = (None, True, "x", "0.5", math.nan, math.inf, -1, 0, 0.5, 2.5)


def with_value(pair, value):
    """A copy of the pair's block with ``value`` at its key (deleted, where
    None is absent)."""
    block = copy.deepcopy(pair.block)
    parent = block
    for k in pair.key[:-1]:
        parent = parent[k]
    if value is None and pair.optional:
        del parent[pair.key[-1]]
    else:
        parent[pair.key[-1]] = value
    return block


def schema_verdict(pair, block):
    """None, or the message of the scenario load with ``block`` at the pair's path."""
    cfg = copy.deepcopy(BASE)
    *parents, last = pair.path.split(".")
    node = cfg
    for k in parents:
        node = node[k]
    node[last] = block
    try:
        load_scenario(cfg)
    except ScenarioValidationError as exc:
        return str(exc)
    return None


def library_verdict(pair, block):
    try:
        CALLS[pair.path](copy.deepcopy(block))
    except InvalidConfigError as exc:
        assert exc.exit_code == 2
        return str(exc)
    return None


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.id)
def test_the_library_refuses_what_the_schema_refuses(pair):
    values = [*MENU, *(e for e in pair.edges if e is not None)]
    for value in values:
        block = with_value(pair, value)
        schema, library = schema_verdict(pair, block), library_verdict(pair, block)
        if schema is None:
            assert library is None, (value, library)
        else:
            # the schema's message less the block's path: a field's own rule
            # starts with the parameter's name, a rule over the block (a
            # kind's parameters) with the rule
            assert schema in (f"{pair.path}.{library}", f"{pair.path}: {library}"), (
                value, schema, library)


@pytest.mark.parametrize("pair", [p for p in PAIRS if p.key != ("scheme",)],
                         ids=lambda p: p.id)
def test_numpy_scalars_are_accepted(pair):
    valid = pair.block
    for k in pair.key:
        valid = valid[k]
    numpy_value = np.int64(valid) if isinstance(valid, int) else np.float64(valid)
    assert library_verdict(pair, with_value(pair, numpy_value)) is None


def test_the_tables_hold_the_library_defaults():
    fields = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    assert {name: f.default for name, f in _SOLVER.items() if name not in ("dt", "t_final")} == {
        name: fields[name] for name in ("scheme", "slice_length", "picard_tol",
                                        "picard_max_iters")}
    params = inspect.signature(optimize).parameters
    assert {name: f.default for name, f in _OPTIMIZER.items()} == {
        name: params[name].default for name in _OPTIMIZER}


@pytest.mark.parametrize("call, message", [
    (lambda: DomainSpec(1, (1.0,), (5.7,)), "resolution[0]: expected an integer"),
    (lambda: DomainSpec(True, (1.0,), (5,)), "dimension: expected an integer"),
    (lambda: ControlSpec("boundary", 1, np.zeros(1), component=1.7),
     "component: expected an integer"),
    (lambda: ControlSpec("boundary", 1, np.zeros(1), component=-1),
     "component: must be at least 0"),
    (lambda: ControlSpec("boundary", 1, np.zeros(1), component="0"),
     "component: expected an integer"),
    (lambda: fractional_power_diagnostic(SCN.disc, 0.5, component=0.0),
     "component: expected an integer"),
], ids=["DomainSpec-resolution-5.7", "DomainSpec-dimension-True", "ControlSpec-component-1.7",
        "ControlSpec-component--1", "ControlSpec-component-str",
        "fractional_power_diagnostic-component-0.0"])
def test_integer_parameters_are_never_truncated_or_coerced(call, message):
    with pytest.raises(InvalidConfigError) as info:
        call()
    assert str(info.value) == message


def test_an_integer_past_the_float_range_is_not_finite():
    with pytest.raises(InvalidConfigError) as info:
        SolverConfig(dt=10**400, t_final=1.0)
    assert str(info.value) == "dt: must be finite"
    with pytest.raises(InvalidConfigError) as info:
        HysteresisConfig(a=-(10**400), b=1.0, z0=0.0)
    assert str(info.value) == "a: must be finite"


# arrays: every array parameter beside the scenario array that the schema
# checks in its place, in a scenario that holds one of each
TABLE = {"kind": "user-table", "y_grid": [-10.0, 0.0, 10.0], "z_grid": [-1.0, 1.0],
         "values": [[0.5, -0.5], [0.0, 0.2], [-0.5, 0.5]]}
MODES = [[[0.0, 1.0, 1.0, 1.0, 0.0]]]
ARRAYS = {
    **BASE,
    "s_weight": {"kind": "values", "values": [[1.0] * 5]},
    "reaction": TABLE,
    "source": {"kind": "constant", "value": 1.0,
               "profile": {"kind": "values", "values": [1.0] * 5}},
    "control": {"mode": "distributed", "time_knots": 1, "kappa": 0.1,
                "spatial_modes": {"kind": "values", "values": MODES}, "coefficients": [0.1],
                "target": {"kind": "from-control", "coefficients": [0.1]}},
    "lambdas": [0.1, 0.01],
}
TRAJ = solve_state(SCN.disc, SCN.sfun, SCN.reaction, SCN.hyst_cfg, SCN.source, SCN.solver)


def diffusion(value):
    return assemble(SCN.disc.domain, [BoundarySides("dirichlet", "neumann")], value)


def fd_study(lambdas):
    return fd_convergence_study(TRAJ, np.zeros_like(TRAJ.states), lambdas)


def table(name, value):
    grids = {key: TABLE[key] for key in ("y_grid", "z_grid", "values")}
    return ReactionFunction("user-table", table=tuple({**grids, name: value}.values()))


class ArrayPair(NamedTuple):
    name: str     # the library's parameter
    call: object  # the library's call on a value for it
    valid: list
    path: tuple   # the array that the schema checks in its place, in ``ARRAYS``
    shapes: str   # who refuses a wrong shape, below


# a wrong shape is refused in the "same" words where the constructor holds the
# shape rule, by "both" where the schema's rule needs the grid, and not tested
# ("") where the length is the grid's and only a solve holds it
ARRAY_PAIRS = [
    ArrayPair("diffusion", diffusion, [1.0], ("diffusion",), "same"),
    ArrayPair("weight", lambda v: SFunctional(weight=v), [[1.0] * 5],
              ("s_weight", "values"), "both"),
    ArrayPair("amplitude", lambda v: Source(v, np.ones((1, 5))), [1.0] * 11,
              ("source", "profile", "values"), ""),
    ArrayPair("profile", lambda v: Source(np.ones(11), v), [[1.0] * 5],
              ("source", "profile", "values"), "both"),
    *[ArrayPair(name, lambda v, name=name: table(name, v), TABLE[name], ("reaction", name),
                "same") for name in ("y_grid", "z_grid", "values")],
    ArrayPair("coefficients", lambda v: ControlSpec("distributed", 1, v, spatial_modes=MODES),
              [0.1], ("control", "coefficients"), "both"),
    ArrayPair("spatial_modes", lambda v: ControlSpec("distributed", 1, [0.1], spatial_modes=v),
              MODES, ("control", "spatial_modes", "values"), "both"),
    ArrayPair("target", lambda v: dataclasses.replace(PROBLEM, target=v),
              PROBLEM.target.tolist(), ("control", "target", "coefficients"), "both"),
    ArrayPair("lambdas", fd_study, [0.1, 0.01], ("lambdas",), "same"),
    ArrayPair("t_grid", lambda v: fractional_power_diagnostic(SCN.disc, 0.5, t_grid=v),
              [0.1, 1.0], ("lambdas",), ""),
]


def first_entry(value, entry):
    """A copy of the nested list ``value`` with ``entry(x)`` for its first entry x."""
    if isinstance(value, list):
        return [first_entry(value[0], entry), *copy.deepcopy(value[1:])]
    return entry(value)


ENTRY_FAULTS = {
    "nan": lambda v: first_entry(v, lambda x: math.nan),
    "inf": lambda v: first_entry(v, lambda x: -math.inf),
    "string": lambda v: first_entry(v, lambda x: "1"),
    "True": lambda v: first_entry(v, lambda x: True),
    "ragged": lambda v: [*copy.deepcopy(v), [copy.deepcopy(v[-1])]],  # an entry one level deeper
    "number": lambda v: 1.0,
}
SHAPE_FAULTS = {"extra-dimension": lambda v: [v], "empty": lambda v: []}


def json_at(node, path):
    for key in path:
        node = node[key]
    return node


def scenario_with(path, value):
    cfg = copy.deepcopy(ARRAYS)
    json_at(cfg, path[:-1])[path[-1]] = value
    return cfg


def verdicts(schema_cfg, call, value):
    """The schema's and the library's refusal (or None); the library's must exit 2."""
    try:
        load_scenario(schema_cfg)
        schema = None
    except ScenarioValidationError as exc:
        schema = exc
    try:
        call(copy.deepcopy(value))
        library = None
    except StopsimError as exc:
        assert exc.exit_code == 2, exc
        library = exc
    return schema, library


@pytest.mark.parametrize("pair", ARRAY_PAIRS, ids=lambda p: p.name)
def test_both_accept_a_valid_array(pair):
    assert verdicts(copy.deepcopy(ARRAYS), pair.call, pair.valid) == (None, None)


@pytest.mark.parametrize("pair, fault", [
    (pair, fault) for pair in ARRAY_PAIRS for fault in (*ENTRY_FAULTS, *SHAPE_FAULTS)
    if pair.shapes or fault in ENTRY_FAULTS], ids=lambda x: getattr(x, "name", x))
def test_the_library_refuses_the_arrays_the_schema_refuses(pair, fault):
    scenario_value = json_at(ARRAYS, pair.path)
    make = {**ENTRY_FAULTS, **SHAPE_FAULTS}[fault]
    schema, library = verdicts(scenario_with(pair.path, make(scenario_value)), pair.call,
                               make(pair.valid))
    assert schema is not None and library is not None, (schema, library)
    if fault in ENTRY_FAULTS:
        # the array rule's words, under the library's name for the array
        assert isinstance(library, ScenarioValidationError)
        assert (library.field_path, library.reason) == (pair.name, schema.reason)
    elif pair.shapes == "same":
        block = ".".join(pair.path[:-1])
        assert str(schema) in (str(library), f"{block}.{library}", f"{block}: {library}")


# rules that span values: a block (or a top-level array), and the schema's verdict
CROSS_FIELD = [
    ("hysteresis", {"a": 1.0, "b": 1.0, "z0": 1.0}, "hysteresis.a: must be strictly less than b"),
    ("hysteresis", {"a": 1.0, "b": -1.0, "z0": 0.0}, "hysteresis.a: must be strictly less than b"),
    ("hysteresis", {"a": -1.0, "b": 1.0, "z0": 1.5}, "hysteresis.z0: must lie in [-1.0, 1.0]"),
    ("hysteresis", {"a": -1.0, "b": 1.0, "z0": -1.5}, "hysteresis.z0: must lie in [-1.0, 1.0]"),
    ("hysteresis", {"a": -1.0, "b": 1.0, "z0": 1.0}, None),  # z0 may sit on a bound
    ("diffusion", [1.0, 1.0], "diffusion: expected 1 coefficients (one per component)"),
    ("diffusion", [], "diffusion: expected 1 coefficients (one per component)"),
    ("diffusion", [0.0], "diffusion: coefficients must be positive"),
    ("diffusion", [-1.0], "diffusion: coefficients must be positive"),
    ("lambdas", [0.1, 0.1], "lambdas: must be positive and strictly decreasing"),
    ("lambdas", [0.01, 0.1], "lambdas: must be positive and strictly decreasing"),
    ("lambdas", [0.1, 0.0], "lambdas: must be positive and strictly decreasing"),
    ("lambdas", [0.1], None),
]
CROSS_CALLS = {"hysteresis": lambda b: HysteresisConfig(**b), "diffusion": diffusion,
               "lambdas": fd_study}


@pytest.mark.parametrize("path, value, expected", CROSS_FIELD,
                         ids=[f"{p}-{json.dumps(v)}" for p, v, _ in CROSS_FIELD])
def test_a_rule_over_values_is_the_constructors(path, value, expected):
    schema, library = verdicts(scenario_with((path,), value), CROSS_CALLS[path], value)
    assert (schema and str(schema)) == expected
    if expected is None:
        assert library is None, library
    else:
        assert isinstance(library, ScenarioValidationError)
        assert expected in (str(library), f"{path}.{library}"), library



# rules that need the grid: a scenario's faulty value, the field the load
# names and its reason, and the library entries that take the value
DIRICHLET = assemble(SCN.disc.domain, [BoundarySides("dirichlet", "dirichlet")], [1.0])


def boundary(component=0, coefficients=(0.1,)):
    return ControlSpec("boundary", 1, list(coefficients), component=component)


def controls(disc, spec):
    """The control entries that take a grid and a spec."""
    return [lambda: apply_B(disc, spec, SCN.solver), lambda: control_gram(disc, spec, SCN.solver)]


def s_entries(weight):
    sfun = SFunctional(weight=weight)
    return [lambda: solve_state(SCN.disc, sfun, SCN.reaction, SCN.hyst_cfg, SCN.source,
                                SCN.solver),
            lambda: evaluate_S(SCN.disc, sfun, SCN.disc.zero_field())]


class GridRule(NamedTuple):
    base: dict      # ``BASE`` or ``ARRAYS``
    edits: dict     # path (a tuple) -> value, the faulty one and what it needs
    field: str      # the path the load names
    reason: str
    error: type     # the library's class
    entries: list   # the library's calls on the faulty value


GRID_RULES = {
    "component": GridRule(
        BASE, {("diagnostic", "component"): 1}, "diagnostic.component", "must be less than 1",
        ScenarioValidationError,
        [lambda: fractional_power_diagnostic(SCN.disc, 0.5, component=1),
         *controls(SCN.disc, boundary(component=1))]),
    "neumann-nodes": GridRule(
        BASE, {("boundaries",): [{"left": "dirichlet", "right": "dirichlet"}]},
        "control.component", "component has no Neumann boundary nodes to control",
        EmptyBoundaryError, controls(DIRICHLET, boundary())),
    "modes-shape": GridRule(
        ARRAYS, {("control", "spatial_modes", "values"): [[[0.0, 1.0, 1.0, 0.0]]]},
        "control.spatial_modes.values", "expected shape (n_modes, 1, 5)", GridMismatchError,
        controls(SCN.disc, ControlSpec("distributed", 1, [0.1], spatial_modes=np.ones((1, 1, 4))))),
    "boundary-count": GridRule(
        BASE, {("control", "coefficients"): [0.1, 0.2]}, "control.coefficients",
        "expected 1 entries, got shape (2,)", ScenarioValidationError,
        controls(SCN.disc, boundary(coefficients=(0.1, 0.2)))),
    "distributed-count": GridRule(
        ARRAYS, {("control", "coefficients"): [0.1, 0.2]}, "control.coefficients",
        "expected 1 entries, got shape (2,)", ScenarioValidationError,
        [lambda: ControlSpec("distributed", 1, [0.1, 0.2], spatial_modes=MODES)]),
    "s-weight-shape": GridRule(
        BASE, {("s_weight",): {"kind": "values", "values": [[1.0] * 4]}}, "s_weight.values",
        "expected shape (1, 5), got (1, 4)", GridMismatchError, s_entries(np.ones((1, 4)))),
}


@pytest.mark.parametrize("rule", GRID_RULES.values(), ids=GRID_RULES)
def test_a_grid_rule_is_the_librarys(rule):
    cfg = copy.deepcopy(rule.base)
    for path, value in rule.edits.items():
        json_at(cfg, path[:-1])[path[-1]] = copy.deepcopy(value)
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(cfg)
    assert str(info.value) == f"{rule.field}: {rule.reason}"
    for entry in rule.entries:
        with pytest.raises(rule.error) as info:
            entry()
        # a field's rule names the library's parameter, a shape rule only its reason
        assert info.value.exit_code == 2
        assert getattr(info.value, "reason", str(info.value)) == rule.reason


# the one rule for a time path on the solver's grid: each entry that takes one,
# by the path's name there, and the faults it refuses
PATH_SHAPE = (SCN.solver.n_steps + 1, 1, SCN.disc.n_nodes)
PATH_ENTRIES = {
    "source": [lambda u: solve_state(SCN.disc, SCN.sfun, SCN.reaction, SCN.hyst_cfg, u,
                                     SCN.solver)],
    "direction": [lambda u: solve_sensitivity(TRAJ, u),
                  lambda u: fd_convergence_study(TRAJ, u, [0.1])],
    "remainder": [lambda u: hadamard_perturbed_quotient(
        TRAJ, np.zeros(PATH_SHAPE), lambda s: u, [0.1])],
    "target": [lambda u: dataclasses.replace(PROBLEM, target=u)],
}


def nan_path():
    u = np.zeros(PATH_SHAPE)
    u[3, 0, 2] = math.nan
    return u


def overflowing_source():
    """Finite factors whose product overflows: 1e308 * 10."""
    amplitude = np.ones(PATH_SHAPE[0])
    amplitude[3] = 1e308
    return Source(amplitude, np.full(PATH_SHAPE[1:], 10.0))


PATH_FAULTS = {  # the faulty path, the library's class and its message after the name
    "shape": (lambda: np.zeros((PATH_SHAPE[0] - 1, *PATH_SHAPE[1:])), GridMismatchError,
              f" must have shape {PATH_SHAPE}, got {(PATH_SHAPE[0] - 1, *PATH_SHAPE[1:])}"),
    "nan": (nan_path, ScenarioValidationError, ": entries must be finite"),
    "overflowing-source": (overflowing_source, ScenarioValidationError,
                           ": entries must be finite"),
}


@pytest.mark.parametrize("fault", PATH_FAULTS)
@pytest.mark.parametrize("name", PATH_ENTRIES)
def test_a_time_path_is_refused_under_its_name(name, fault):
    make, error, message = PATH_FAULTS[fault]
    for entry in PATH_ENTRIES[name]:
        with pytest.raises(error) as info:
            entry(make())
        assert info.value.exit_code == 2
        assert str(info.value) == name + message


@pytest.mark.parametrize("name", PATH_ENTRIES)
def test_a_time_path_is_taken_dense_or_as_factors(name):
    amplitude = np.linspace(0.0, 1e-3, PATH_SHAPE[0])
    profile = np.full(PATH_SHAPE[1:], 0.5)
    for u in (Source(amplitude, profile), amplitude[:, None, None] * profile):
        for entry in PATH_ENTRIES[name]:
            entry(u)
