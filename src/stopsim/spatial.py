"""Structured-grid discretization of the diffusion operator, quadrature, the
factorized implicit time step, and the semigroup/fractional-power diagnostic.

Grids are tensor products on an interval or a rectangle with second-order
central differences.  Per component the assembly stores the symmetric
half-cell-weighted form L (interior rows d*(-1, 2, -1)/h^2, Neumann boundary
rows d*(1, -1)/h^2) together with the relative trapezoid weights D
(1/2 at boundary nodes, 1 inside, tensorized in 2D).  The realized generator
is D^{-1} L: its boundary rows are exactly the ghost-node reflection stencil
2d*(1, -1)/h^2, and the implicit step solves (D + dt*L) y+ = D y, which is
the backward-Euler step for that generator.  Keeping L symmetric makes the
spectrum a real generalized symmetric eigenproblem and gives 1^T L = 0 for
pure-Neumann components, so the quadrature mass of an implicit step is
conserved to solver precision.

Dirichlet sides are eliminated: fields live on the full grid with Dirichlet
nodes pinned to zero, and each component's operator acts on its active
(non-Dirichlet) nodes.  A 2D corner between a Dirichlet and a Neumann side
is Dirichlet.

Each side is wholly Dirichlet or wholly Neumann, so a component's active
nodes are a box: one index range per axis (``ComponentOperator.box``).  The
time steppers read and write a field's active nodes through that box as
basic-slicing views of the grid-shaped field.

Every time stepper solves D + dt L through ``_factorize``, once per solve.
In 1D that is LAPACK's tridiagonal LU (``dgttrf`` once, ``dgttrs`` per
solve).  In 2D D + dt L on the box is a Kronecker sum of 1D operators: it is
diagonal in the product of two per-axis generalized eigenbases, and a solve
is four small dense products (fast diagonalization).  SuperLU serves 2D grids
with an active axis longer than ``DENSE_EIG_LIMIT`` and 1D systems of fewer
than 3 nodes, which ``dgttrf``'s wrapper refuses.  The time steppers check
the last step of each state and sensitivity solve, and the last step of the
adjoint sweep, with ``_check_step_residual`` and ``_check_adjoint_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    GridMismatchError,
    InvalidConfigError,
    NumericalFailureError,
    UnsupportedConfigurationError,
)

__all__ = [
    "DomainSpec",
    "BoundarySides",
    "SpatialDiscretization",
    "SFunctional",
    "assemble",
    "apply_semigroup_step",
    "fractional_power_diagnostic",
    "FractionalPowerReport",
    "evaluate_S",
    "s_operator_norm",
    "quad_norm",
]

_SIDES_1D = ("left", "right")
_SIDES_2D = ("left", "right", "bottom", "top")
_LABELS = ("dirichlet", "neumann")

SOLVER_RESIDUAL_TOL = 1e-10  # backward-error bound for implicit solves
DENSE_EIG_LIMIT = 500  # dense eigendecompositions refused above this size


@dataclass(frozen=True)
class DomainSpec:
    """Interval [0, L] or rectangle [0, L1] x [0, L2] with nodes per axis."""

    dimension: int
    extent: tuple
    resolution: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidConfigError(f"dimension must be 1 or 2, got {self.dimension}")
        extent = tuple(float(e) for e in np.atleast_1d(np.asarray(self.extent, dtype=float)))
        resolution = tuple(int(r) for r in np.atleast_1d(self.resolution))
        if len(extent) != self.dimension or len(resolution) != self.dimension:
            raise InvalidConfigError(
                "extent and resolution must have one entry per dimension"
            )
        if any(not np.isfinite(e) or e <= 0 for e in extent):
            raise InvalidConfigError("extents must be positive")
        if any(r < 3 for r in resolution):
            raise InvalidConfigError("resolution must be at least 3 nodes per axis")
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "resolution", resolution)

    @property
    def spacings(self):
        return tuple(L / (n - 1) for L, n in zip(self.extent, self.resolution))

    @property
    def n_nodes(self):
        return int(np.prod(self.resolution))


@dataclass(frozen=True)
class BoundarySides:
    """Dirichlet/Neumann label per side of the box, for one component."""

    left: str
    right: str
    bottom: str | None = None
    top: str | None = None

    def __post_init__(self):
        for side in ("left", "right", "bottom", "top"):
            label = getattr(self, side)
            if label is not None and label not in _LABELS:
                raise InvalidConfigError(
                    f"boundary label for {side!r} must be one of {_LABELS}, got {label!r}"
                )

    def labels(self, dimension):
        sides = _SIDES_1D if dimension == 1 else _SIDES_2D
        out = {}
        for side in sides:
            label = getattr(self, side)
            if label is None:
                raise InvalidConfigError(f"missing boundary label for side {side!r}")
            out[side] = label
        return out


@dataclass(frozen=True)
class ComponentOperator:
    """Assembled operator data for one component, restricted to active nodes."""

    active: np.ndarray          # full-grid indices of non-Dirichlet nodes
    box: tuple                  # per-axis slices whose product is ``active``
    operator: sp.csr_matrix     # symmetric PSD form L on active nodes
    rel_weights: np.ndarray     # relative trapezoid weights D on active nodes
    dirichlet_mask: np.ndarray  # full-grid boolean
    neumann_nodes: np.ndarray   # full-grid indices of Neumann boundary nodes
    surface_weights: np.ndarray  # boundary quadrature weight per Neumann node


def _axis_stiffness(n: int) -> sp.csr_matrix:
    """Unit-spacing 1D stiffness: rows (-1, 2, -1), ends (1, -1); symmetric."""
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    off = np.full(n - 1, -1.0)
    return sp.diags_array([off, main, off], offsets=[-1, 0, 1]).tocsr()


def _axis_rel_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _active_box(labels, resolution):
    """Per-axis slice of non-Dirichlet nodes; a mixed corner is Dirichlet."""
    axes = (("left", "right"), ("bottom", "top"))
    return tuple(slice(int(labels[lo] == "dirichlet"), n - (labels[hi] == "dirichlet"))
                 for n, (lo, hi) in zip(resolution, axes))


def _boundary_node_sets(domain: DomainSpec):
    """Full-grid node index array per side."""
    if domain.dimension == 1:
        (n,) = domain.resolution
        return {"left": np.array([0]), "right": np.array([n - 1])}
    nx, ny = domain.resolution
    ix, iy = np.arange(nx), np.arange(ny)
    return {
        "left": 0 * ny + iy,                # ix = 0
        "right": (nx - 1) * ny + iy,        # ix = nx-1
        "bottom": ix * ny + 0,              # iy = 0
        "top": ix * ny + (ny - 1),          # iy = ny-1
    }


def _surface_weight_arrays(domain: DomainSpec):
    """1D boundary quadrature weight per node, per side (1.0 for interval ends)."""
    if domain.dimension == 1:
        return {"left": np.array([1.0]), "right": np.array([1.0])}
    nx, ny = domain.resolution
    hx, hy = domain.spacings
    wx = _axis_rel_weights(nx) * hx
    wy = _axis_rel_weights(ny) * hy
    return {"left": wy, "right": wy, "bottom": wx, "top": wx}


@dataclass(frozen=True)
class SpatialDiscretization:
    domain: DomainSpec
    boundaries: tuple
    diffusion: tuple
    coords: np.ndarray       # (n_nodes, dimension) node coordinates
    quadrature: np.ndarray   # (n_nodes,) trapezoid weights
    cell_volume: float
    components: tuple

    @property
    def n_components(self):
        return len(self.components)

    @property
    def n_nodes(self):
        return self.quadrature.size

    def zero_field(self):
        return np.zeros((self.n_components, self.n_nodes))


def assemble(domain: DomainSpec, boundaries, diffusion) -> SpatialDiscretization:
    """Assemble per-component operators, quadrature, and boundary data.

    ``boundaries`` is one BoundarySides per component, ``diffusion`` the
    matching positive coefficients.
    """
    boundaries = tuple(boundaries)
    diffusion = tuple(float(d) for d in np.atleast_1d(np.asarray(diffusion, dtype=float)))
    if len(boundaries) != len(diffusion):
        raise InvalidConfigError(
            f"got {len(boundaries)} boundary specs but {len(diffusion)} diffusion coefficients"
        )
    if not boundaries:
        raise InvalidConfigError("need at least one component")
    if any(not np.isfinite(d) or d <= 0 for d in diffusion):
        raise InvalidConfigError("diffusion coefficients must be positive")

    if domain.dimension == 1:
        (n,) = domain.resolution
        (h,) = domain.spacings
        coords = (np.arange(n) * h).reshape(-1, 1)
        rel = _axis_rel_weights(n)
        quadrature = rel * h
        cell_volume = h
        base_L = _axis_stiffness(n) / (h * h)  # K/h divided by cell volume h
    else:
        nx, ny = domain.resolution
        hx, hy = domain.spacings
        x = np.arange(nx) * hx
        y = np.arange(ny) * hy
        xx, yy = np.meshgrid(x, y, indexing="ij")
        coords = np.column_stack([xx.ravel(), yy.ravel()])
        rx, ry = _axis_rel_weights(nx), _axis_rel_weights(ny)
        rel = np.outer(rx, ry).ravel()
        cell_volume = hx * hy
        quadrature = rel * cell_volume
        lx = _axis_stiffness(nx) / (hx * hx)
        ly = _axis_stiffness(ny) / (hy * hy)
        base_L = (
            sp.kron(lx, sp.diags_array(ry), format="csr")
            + sp.kron(sp.diags_array(rx), ly, format="csr")
        ).tocsr()

    side_nodes = _boundary_node_sets(domain)
    side_weights = _surface_weight_arrays(domain)

    components = []
    for j, (sides, d) in enumerate(zip(boundaries, diffusion)):
        labels = sides.labels(domain.dimension)
        dirichlet_mask = np.zeros(domain.n_nodes, dtype=bool)
        for side, label in labels.items():
            if label == "dirichlet":
                dirichlet_mask[side_nodes[side]] = True
        active = np.flatnonzero(~dirichlet_mask)

        # Neumann boundary nodes and their surface weights; a node on two
        # Neumann sides (2D corner) accumulates both edge weights
        surface = np.zeros(domain.n_nodes)
        on_neumann = np.zeros(domain.n_nodes, dtype=bool)
        for side, label in labels.items():
            if label == "neumann":
                idx = side_nodes[side]
                surface[idx] += side_weights[side]
                on_neumann[idx] = True
        on_neumann &= ~dirichlet_mask
        neumann_nodes = np.flatnonzero(on_neumann)

        L = (d * base_L)[active][:, active].tocsr()
        components.append(
            ComponentOperator(
                active=active,
                box=_active_box(labels, domain.resolution),
                operator=L,
                rel_weights=rel[active].copy(),
                dirichlet_mask=dirichlet_mask,
                neumann_nodes=neumann_nodes,
                surface_weights=surface[neumann_nodes].copy(),
            )
        )

    return SpatialDiscretization(
        domain=domain,
        boundaries=boundaries,
        diffusion=diffusion,
        coords=coords,
        quadrature=quadrature,
        cell_volume=cell_volume,
        components=tuple(components),
    )


def _check_field(disc: SpatialDiscretization, y, name="field"):
    y = np.asarray(y, dtype=float)
    if y.shape != (disc.n_components, disc.n_nodes):
        raise GridMismatchError(
            f"{name} must have shape ({disc.n_components}, {disc.n_nodes}), got {y.shape}"
        )
    return y


def quad_norm(disc: SpatialDiscretization, y) -> float:
    """Quadrature-weighted L2 norm of an (m, n_nodes) field."""
    y = _check_field(disc, y)
    return float(np.sqrt(np.einsum("ji,ji,i->", y, y, disc.quadrature)))


@dataclass(frozen=True)
class SFunctional:
    """Quadrature-weighted linear functional S y = sum_j sum_i q_i w_ji y_ji."""

    weight: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 2:
            raise InvalidConfigError("S weight must be a (components, nodes) array")
        if not np.all(np.isfinite(w)):
            raise InvalidConfigError("S weight must be finite")
        if not np.any(w != 0.0):
            raise InvalidConfigError("S weight must not be identically zero")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)


def evaluate_S(disc: SpatialDiscretization, sfun: SFunctional, y) -> float:
    y = _check_field(disc, y)
    if sfun.weight.shape != y.shape:
        raise GridMismatchError(
            f"S weight shape {sfun.weight.shape} does not match field shape {y.shape}"
        )
    return float(np.einsum("ji,ji,i->", sfun.weight, y, disc.quadrature))


def s_operator_norm(disc: SpatialDiscretization, sfun: SFunctional) -> float:
    """Operator norm of S against the quadrature norm (Cauchy-Schwarz is tight)."""
    w = _check_field(disc, sfun.weight, "S weight")
    return float(np.sqrt(np.einsum("ji,ji,i->", w, w, disc.quadrature)))


def _implicit_step_matrix(disc: SpatialDiscretization, j: int, dt: float) -> sp.csc_matrix:
    comp = disc.components[j]
    return (sp.diags_array(comp.rel_weights) + dt * comp.operator).tocsc()


def _axis_basis(n: int, h: float, keep: slice):
    """Generalized eigenpairs of one axis's (stiffness / h^2, weights) on ``keep``.

    ``keep`` is the axis's active node range.  The eigenvectors V satisfy
    V^T R V = I.
    """
    K = _axis_stiffness(n)[keep, keep].toarray() / (h * h)
    return eigh(K, np.diag(_axis_rel_weights(n)[keep]))


class _ProductSolve:
    """Solve of D + dt L for one component on a box, in a product eigenbasis.

    On active nodes D + dt L = Rx (x) Ry + dt d (Kx (x) Ry + Rx (x) Ky), so
    with Kx Vx = Rx Vx diag(lx) and Vx^T Rx Vx = I (likewise in y) its
    inverse is (Vx (x) Vy) diag(1 / (1 + dt d (lx_i + ly_j))) (Vx (x) Vy)^T.
    ``solve`` takes the active vector in x-major order, as SuperLU does.
    """

    def __init__(self, x_axis, y_axis, d, dt):
        (lx, self.vx), (ly, self.vy) = x_axis, y_axis
        self.scale = 1.0 / (1.0 + dt * d * (lx[:, None] + ly[None, :]))

    def solve(self, rhs):
        vx, vy = self.vx, self.vy
        b = rhs.reshape(vx.shape[0], vy.shape[0])
        return (vx @ ((vx.T @ b @ vy) * self.scale) @ vy.T).ravel()


class _TridiagonalSolve:
    """LAPACK tridiagonal LU of D + dt L for one 1D component of 3 or more nodes.

    ``dgttrf`` factors once (partial pivoting) and ``dgttrs`` solves, both in
    O(n); the bands come from the weights and L's diagonals.
    """

    def __init__(self, comp: ComponentOperator, dt: float):
        L = comp.operator
        off = dt * L.diagonal(1)
        *self.factors, info = dgttrf(off, comp.rel_weights + dt * L.diagonal(), off)
        if info != 0:
            raise NumericalFailureError(
                f"tridiagonal factorization failed (LAPACK info {info})")

    def solve(self, rhs):
        return dgttrs(*self.factors, rhs)[0]


def _factorize(disc: SpatialDiscretization, dt: float):
    """One solver of D + dt L per component, each with a SuperLU-style ``solve``.

    ``solve`` takes the D-weighted right-hand side on the active nodes as a
    flat (x-major) vector and returns the solution in the same layout.  In 1D
    the matrix is tridiagonal and LAPACK's tridiagonal LU serves; its wrapper
    refuses fewer than 3 nodes, which SuperLU takes.  In 2D the operator on
    the box is a Kronecker sum, and a ``_ProductSolve`` built from two
    per-axis eigenbases serves when both active ranges are at most
    ``DENSE_EIG_LIMIT`` long, and SuperLU otherwise.
    """
    res, spacings = disc.domain.resolution, disc.domain.spacings
    solvers = []
    for j, (comp, d) in enumerate(zip(disc.components, disc.diffusion)):
        sizes = [k.stop - k.start for k in comp.box]
        if len(sizes) == 1 and sizes[0] >= 3:
            solvers.append(_TridiagonalSolve(comp, dt))
        elif len(sizes) == 2 and max(sizes) <= DENSE_EIG_LIMIT:
            solvers.append(_ProductSolve(*map(_axis_basis, res, spacings, comp.box), d, dt))
        else:
            solvers.append(spla.splu(_implicit_step_matrix(disc, j, dt)))
    return solvers


def _grid_views(disc: SpatialDiscretization, *fields):
    """(m, n_nodes) fields as (m, *resolution), so ``(j, *box)`` indexes a view."""
    grid = (len(disc.components),) + disc.domain.resolution
    return [field.reshape(grid) for field in fields]


def _imex_step(disc: SpatialDiscretization, lus, dt: float, y, rhs_field, out):
    """One implicit solve per component of (D + dt L) y+ = D (y + dt rhs), into ``out``.

    Only the active nodes of ``out`` are written, so its Dirichlet nodes keep
    what the caller put there (zero).  ``out`` must be C-contiguous, as a row
    of the solves' path arrays is, so that its grid view writes through.
    Returns ``out``.
    """
    ys, fs, outs = _grid_views(disc, y, rhs_field, out)
    for j, comp in enumerate(disc.components):
        at = (j, *comp.box)
        v = ys[at] + dt * fs[at]
        outs[at] = lus[j].solve(comp.rel_weights * v.ravel()).reshape(v.shape)
    return out


def _imex_adjoint_step(disc: SpatialDiscretization, lus, x, out):
    """Transpose of the solve in ``_imex_step``: D (D + dt L)^{-1} x per component.

    D + dt L is symmetric, so the factors of the forward step serve.  Writes
    the active nodes of ``out`` (C-contiguous), whose Dirichlet nodes the
    forward step never reads.  Returns ``out``.
    """
    xs, outs = _grid_views(disc, x, out)
    for j, comp in enumerate(disc.components):
        at = (j, *comp.box)
        xb = xs[at]
        outs[at] = (comp.rel_weights * lus[j].solve(xb.ravel())).reshape(xb.shape)
    return out


def _check_solves(disc: SpatialDiscretization, dt: float, pairs, what: str):
    """Check per component that x solves (D + dt L) x = b, for (x, b) in ``pairs``.

    The measure is the normwise backward error |A x - b| / (|A| |x| + |b|)
    in the max norm, with A = D + dt L on the active nodes: a
    backward-stable solve keeps it near machine precision however stiff A
    is, where the plain relative residual grows with |A|.  L has no positive
    off-diagonal entry and no negative row sum, so max(D + 2 dt diag L)
    bounds |A|.  Raises a numerical-failure error when the measure exceeds
    the module tolerance or is not finite.
    """
    for j, (comp, (x, b)) in enumerate(zip(disc.components, pairs)):
        r = comp.rel_weights * x + dt * (comp.operator @ x) - b
        a_norm = np.max(comp.rel_weights + 2.0 * dt * comp.operator.diagonal())
        denom = a_norm * np.max(np.abs(x)) + np.max(np.abs(b))
        residual = float(np.max(np.abs(r)) / (denom if denom > 0 else 1.0))
        if not np.isfinite(residual) or residual > SOLVER_RESIDUAL_TOL:
            raise NumericalFailureError(
                f"{what} solve failed for component {j}", residual=residual
            )


def _check_step_residual(disc: SpatialDiscretization, dt: float, y, rhs_field, out):
    """Check that ``out`` solves ``_imex_step``'s systems for ``y`` and ``rhs_field``."""
    ys, fs, outs = _grid_views(disc, y, rhs_field, out)
    boxes = [(j, *comp.box) for j, comp in enumerate(disc.components)]
    _check_solves(disc, dt, [
        (outs[at].ravel(), comp.rel_weights * (ys[at] + dt * fs[at]).ravel())
        for comp, at in zip(disc.components, boxes)], "implicit step")


def _check_adjoint_residual(disc: SpatialDiscretization, dt: float, x, out):
    """Check that ``out`` is ``_imex_adjoint_step``'s result for ``x``.

    ``out`` holds D s for the solution s of (D + dt L) s = x; the weights
    are powers of two, so dividing by them recovers s exactly.
    """
    xs, outs = _grid_views(disc, x, out)
    boxes = [(j, *comp.box) for j, comp in enumerate(disc.components)]
    _check_solves(disc, dt, [
        (outs[at].ravel() / comp.rel_weights, xs[at].ravel())
        for comp, at in zip(disc.components, boxes)], "adjoint step")


def apply_semigroup_step(disc: SpatialDiscretization, y, dt: float):
    """One backward-Euler semigroup step: solve (D + dt L) y+ = D y per component.

    This is the time stepper's implicit solve with a zero reaction.
    Dirichlet nodes of each component are pinned to zero in the output.
    Raises a numerical-failure error if any solve's backward error
    exceeds the module tolerance.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidConfigError(f"dt must be positive, got {dt}")
    y = _check_field(disc, y)
    zero = np.zeros_like(y)
    out = _imex_step(disc, _factorize(disc, dt), dt, y, zero, np.zeros_like(y))
    _check_step_residual(disc, dt, y, zero, out)
    return out


def component_spectrum(disc: SpatialDiscretization, j: int = 0):
    """Generalized symmetric eigenvalues/vectors of (L, D) on active nodes.

    These are the eigenvalues of the realized generator D^{-1} L; real and
    nonnegative since L is symmetric PSD and D is positive diagonal.
    """
    comp = disc.components[j]
    n = comp.active.size
    if n > DENSE_EIG_LIMIT:
        raise UnsupportedConfigurationError(
            f"dense eigendecomposition limited to {DENSE_EIG_LIMIT} nodes, got {n}"
        )
    L = comp.operator
    asym = abs(L - L.T)
    if asym.nnz and asym.max() > 0:
        raise UnsupportedConfigurationError("component operator is not symmetric")
    lam, vec = eigh(L.toarray(), np.diag(comp.rel_weights))
    return np.maximum(lam, 0.0), vec


@dataclass(frozen=True)
class FractionalPowerReport:
    theta: float
    gamma: float
    t_grid: np.ndarray
    norms: np.ndarray      # ||(A+1)^theta exp(-A t)|| in the quadrature norm
    weighted: np.ndarray   # norms * t^theta * exp(-(1-gamma) t)
    sup_value: float
    t_at_sup: float

    @property
    def attained_interior(self):
        return self.t_grid[0] < self.t_at_sup < self.t_grid[-1]


def fractional_power_diagnostic(
    disc: SpatialDiscretization,
    theta: float,
    t_grid=None,
    component: int = 0,
    gamma: float = 0.5,
) -> FractionalPowerReport:
    """Spectral check of the smoothing bound for the analytic semigroup.

    Computes ||(A+1)^theta exp(-A t)|| over ``t_grid`` via the generalized
    eigendecomposition and reports the sup of norm * t^theta * exp(-(1-gamma) t).
    Finite and attained away from t -> 0 for a symmetric nonnegative operator.
    """
    theta = float(theta)
    if not 0.0 <= theta < 1.0:
        raise InvalidConfigError(f"theta must lie in [0, 1), got {theta}")
    if t_grid is None:
        t_grid = np.logspace(-3.0, 1.3, 400)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or not np.all(t_grid > 0):
        raise InvalidConfigError("t_grid must be a 1-D array of positive times")
    if not np.all(np.diff(t_grid) > 0):
        raise InvalidConfigError("t_grid must be strictly increasing")

    lam, _ = component_spectrum(disc, component)
    growth = np.power(lam + 1.0, theta)
    norms = np.array([float(np.max(growth * np.exp(-lam * t))) for t in t_grid])
    weighted = norms * t_grid**theta * np.exp(-(1.0 - gamma) * t_grid)
    k = int(np.argmax(weighted))
    return FractionalPowerReport(
        theta=theta,
        gamma=gamma,
        t_grid=t_grid,
        norms=norms,
        weighted=weighted,
        sup_value=float(weighted[k]),
        t_at_sup=float(t_grid[k]),
    )
