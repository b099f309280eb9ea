"""The library refuses exactly what the scenario schema refuses.

Each scalar parameter whose rule is a ``_Field`` is fed the values the golden
fuzzer uses, a numeric string, and its bounds and choices.  The schema's verdict is a scenario
load with the value in the parameter's place; the library's is a direct call
of the constructor or entry point that takes it.  A refusal is an
``InvalidConfigError`` (exit code 2) whose message is the schema's, less the
path of the block: ``dt: must be greater than 0.0`` for ``solver.dt``.
"""

import copy
import dataclasses
import inspect
import math
from typing import NamedTuple

import numpy as np
import pytest

from stopsim import (
    ControlSpec,
    DomainSpec,
    HysteresisConfig,
    InvalidConfigError,
    ReactionFunction,
    ScenarioValidationError,
    SolverConfig,
    Source,
    build_control_problem,
    fractional_power_diagnostic,
    load_scenario,
    optimize,
)
from stopsim.control import _OPTIMIZER
from stopsim.evolution import _SOLVER

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
    params = tuple(v for k, v in block.items() if k not in ("kind", "growth_constant"))
    return ReactionFunction(block["kind"], params, block.get("growth_constant"))


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
    "source": lambda b: Source(np.ones(11), np.ones((1, 5)), component=b.get("component")),
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
    Pair("reaction", {**LINEAR, "growth_constant": 2.0}, ("growth_constant",), (0.0,),
         optional=True),
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
            # kind's parameters, the growth probe) with the rule
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
    (lambda: Source(np.ones(3), np.ones((2, 4)), component=1.5),
     "component: expected an integer"),
    (lambda: Source(np.ones(3), np.ones((2, 4)), component=True),
     "component: expected an integer"),
    (lambda: fractional_power_diagnostic(SCN.disc, 0.5, component=0.0),
     "component: expected an integer"),
], ids=["DomainSpec-resolution-5.7", "DomainSpec-dimension-True", "ControlSpec-component-1.7",
        "ControlSpec-component--1", "ControlSpec-component-str", "Source-component-1.5",
        "Source-component-True", "fractional_power_diagnostic-component-0.0"])
def test_integer_parameters_are_never_truncated_or_coerced(call, message):
    with pytest.raises(InvalidConfigError) as info:
        call()
    assert str(info.value) == message


def test_a_given_growth_constant_must_be_positive():
    with pytest.raises(InvalidConfigError) as info:
        ReactionFunction.linear(0.0, 0.0, 0.0, growth_constant=0)
    assert str(info.value) == "growth_constant: must be greater than 0.0"
    # the derived constant of the zero reaction is 0, which no caller gave
    assert ReactionFunction.linear(0.0, 0.0, 0.0).growth_constant == 0.0
    # a derived constant past the largest float is refused
    with pytest.raises(InvalidConfigError, match="growth constant must be finite"):
        ReactionFunction.saturating(1e308, 1.0, 1e308, 1.0)
