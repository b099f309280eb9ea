import copy
import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from stopsim import (
    BoundarySides,
    DomainSpec,
    HysteresisConfig,
    PiecewiseLinearSignal,
    ReactionFunction,
    SFunctional,
    SolverConfig,
    assemble,
)
from stopsim.spatial import _Stepper


def random_signal(rng, n_points=40, t_max=4.0, amplitude=2.0):
    """Random piecewise-linear signal with a strictly increasing time grid."""
    gaps = rng.uniform(0.2, 1.0, n_points - 1)
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    times *= t_max / times[-1]
    values = rng.uniform(-amplitude, amplitude, n_points)
    return PiecewiseLinearSignal(times=times, values=values)


def constant_sfun(disc, value=0.5):
    return SFunctional(weight=np.full((disc.n_components, disc.n_nodes), value))


def semigroup_step(disc, y, dt):
    """One backward-Euler semigroup step, (D + dt L) y+ = D y per component:
    the solves' implicit step with a zero right-hand side, backward-error
    checked.  Dirichlet nodes of the result are zero."""
    stepper = _Stepper(disc, dt, constant_sfun(disc))
    out = step_with(stepper, y, np.zeros_like(y), np.zeros_like(y))
    stepper.check(out)
    return out


def step_with(stepper, y, f, out):
    """``stepper``'s implicit step from y with right-hand side f, into ``out``,
    as a solve's rule and step take it: f written into the stepper's buffer."""
    np.copyto(stepper.buf, f)
    return stepper.step(y, out)


def adjoint_of(stepper, x, out):
    """``stepper``'s transposed step of x, into ``out``."""
    np.copyto(stepper.buf, x)
    return stepper.adjoint(out)


def active_mask(disc, j=0):
    """Full-grid boolean mask of component ``j``'s active (non-Dirichlet)
    nodes, read off its box; ``~active_mask`` is its Dirichlet mask."""
    mask = np.zeros(disc.domain.resolution, dtype=bool)
    mask[disc.components[j].box] = True
    return mask.ravel()


def box_41():
    """A 41x41 unit box with a Dirichlet side on each axis, for memory bounds."""
    return assemble(
        DomainSpec(dimension=2, extent=(1.0, 1.0), resolution=(41, 41)),
        [BoundarySides(left="dirichlet", right="neumann",
                       bottom="dirichlet", top="neumann")],
        [0.8],
    )


def bundled_config(name):
    """A bundled scenario's config dict."""
    root = resources.files("stopsim") / "scenarios"
    return json.loads((root / f"{name}.json").read_text())


def _saturating(resolution, t_final=None):
    """``saturating`` on a box of ``resolution`` nodes (2-D with two sizes),
    up to ``t_final`` if given."""
    cfg = bundled_config("saturating")
    if len(resolution) == 2:
        cfg["domain"] = {"dimension": 2, "extent": [1.0, 1.0]}
        cfg["boundaries"] = [{"left": "dirichlet", "right": "neumann",
                              "bottom": "dirichlet", "top": "neumann"}]
    cfg["domain"]["resolution"] = list(resolution)
    if t_final is not None:
        cfg["solver"]["t_final"] = t_final
    return cfg


def _streamed_scenarios():
    """Name -> config: the bundled scenarios, copies of ``saturating`` and a
    two-component box, each also on the Picard scheme in 5-step slices.

    A direct march that keeps no path steps in windows of 64 KiB of rows.
    The copies of ``saturating`` give it windows of 19 rows on a 25x17 box
    (60 steps: three full and a tail of 3), of 40 rows at 201 nodes (a full
    one and a tail of 20), a run of one step, and rows over 64 KiB (91x91
    nodes), which take one step per window.
    """
    plain = {name: bundled_config(name) for name in
             ("saturating", "linear_quadratic", "neumann_conservation", "zero")}
    plain["saturating-2d"] = _saturating((25, 17))
    plain["saturating-201-nodes"] = _saturating((201,))
    plain["saturating-one-step"] = _saturating((25,), t_final=0.02)
    plain["saturating-91x91"] = _saturating((91, 91), t_final=0.06)
    plain["two-component"] = {
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
    }
    scenarios = dict(plain)
    for name, cfg in plain.items():
        picard = copy.deepcopy(cfg)
        dt = picard["solver"]["dt"]
        picard["solver"].update(scheme="picard-sliced", slice_length=5 * dt)
        scenarios[name + "-picard"] = picard
    return scenarios


STREAMED_SCENARIOS = _streamed_scenarios()


def traced_peak(run):
    """``run()``'s result and its peak traced allocation, after a warm-up call
    (cached bases and imports)."""
    run()
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def hyst_cfg():
    return HysteresisConfig(a=-1.0, b=1.0, z0=0.0)


@pytest.fixture
def disc_dirichlet():
    return assemble(
        DomainSpec(dimension=1, extent=(1.0,), resolution=(21,)),
        [BoundarySides(left="dirichlet", right="dirichlet")],
        [1.0],
    )


@pytest.fixture
def disc_mixed():
    return assemble(
        DomainSpec(dimension=1, extent=(1.0,), resolution=(17,)),
        [BoundarySides(left="dirichlet", right="neumann")],
        [0.8],
    )


@pytest.fixture
def disc_neumann():
    return assemble(
        DomainSpec(dimension=1, extent=(2.0,), resolution=(25,)),
        [BoundarySides(left="neumann", right="neumann")],
        [0.5],
    )


@pytest.fixture
def disc_2d():
    return assemble(
        DomainSpec(dimension=2, extent=(1.0, 1.5), resolution=(7, 6)),
        [BoundarySides(left="dirichlet", right="neumann",
                       bottom="neumann", top="dirichlet")],
        [1.2],
    )


@pytest.fixture
def solver_short():
    return SolverConfig(dt=0.02, t_final=0.4)


@pytest.fixture
def linear_reaction():
    return ReactionFunction("linear", (0.0, -0.5, 0.3))


@pytest.fixture
def saturating_reaction():
    return ReactionFunction("saturating", (-0.7, 1.1, 0.8, 0.9))
