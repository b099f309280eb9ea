import tracemalloc

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
    out = stepper.step(y, np.zeros_like(y), np.zeros_like(y))
    stepper.check(out)
    return out


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
    return ReactionFunction.linear(constant=0.0, state=-0.5, hysteresis=0.3)


@pytest.fixture
def saturating_reaction():
    return ReactionFunction.saturating(
        state_amplitude=-0.7, state_rate=1.1,
        hysteresis_amplitude=0.8, hysteresis_rate=0.9,
    )
