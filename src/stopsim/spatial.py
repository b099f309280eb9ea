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
nodes are a box: one index range per axis (``ComponentOperator.box``).

Every time stepper steps through one ``_Stepper`` per solve.  It forms each
right-hand side in one reused buffer, reads it through per-component box
views (basic slicing of the grid-shaped field) and solves in place in the box
view of the destination.  In 1D the solve is LAPACK's tridiagonal LU
(``dgttrf`` once, ``dgttrs`` per step).  In 2D D + dt L on the box is a
Kronecker sum of 1D operators, diagonal in the product of two per-axis
generalized eigenbases, and a solve is four small dense products (fast
diagonalization).  SuperLU serves only 2D grids with an active axis longer
than ``DENSE_EIG_LIMIT`` and 1D systems of 1 or 2 nodes, which ``dgttrf``'s
wrapper refuses.  ``_Stepper.check`` measures the last step of every state,
sensitivity and adjoint solve.
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


def _path_norms(disc: SpatialDiscretization, path) -> np.ndarray:
    """``quad_norm`` of each (m, n_nodes) field of a path array, in one pass."""
    path = np.asarray(path, dtype=float)
    _check_field(disc, path[0], "path field")
    return np.sqrt(np.einsum("kji,kji,i->k", path, path, disc.quadrature))


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
    return float((sfun.weight * disc.quadrature).ravel() @ y.ravel())


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


class _TridiagonalSolve:
    """LAPACK tridiagonal LU of D + dt L for one 1D component of 3 or more nodes.

    ``dgttrf`` factors once (partial pivoting) and ``dgttrs`` solves in place,
    both in O(n); the bands come from the weights and L's diagonals.
    """

    def __init__(self, comp: ComponentOperator, dt: float):
        L = comp.operator
        off = dt * L.diagonal(1)
        *self.factors, info = dgttrf(off, comp.rel_weights + dt * L.diagonal(), off)
        if info != 0:
            raise NumericalFailureError(
                f"tridiagonal factorization failed (LAPACK info {info})")

    def solve(self, b):
        x = dgttrs(*self.factors, b, overwrite_b=1)[0]
        if x is not b:  # dgttrs solved a copy of a non-contiguous b
            b[...] = x


class _ProductSolve:
    """Solve of D + dt L for one component on a box, in a product eigenbasis.

    On active nodes D + dt L = Rx (x) Ry + dt d (Kx (x) Ry + Rx (x) Ky), so
    with Kx Vx = Rx Vx diag(lx) and Vx^T Rx Vx = I (likewise in y) its
    inverse is (Vx (x) Vy) diag(1 / (1 + dt d (lx_i + ly_j))) (Vx (x) Vy)^T:
    four dense products on the box-shaped array, through reused buffers.
    """

    def __init__(self, x_axis, y_axis, d, dt):
        (lx, self.vx), (ly, self.vy) = x_axis, y_axis
        self.scale = 1.0 / (1.0 + dt * d * (lx[:, None] + ly[None, :]))
        self.t, self.c = np.empty(self.scale.shape), np.empty(self.scale.shape)

    def solve(self, b):
        vx, vy, t, c = self.vx, self.vy, self.t, self.c
        np.matmul(vx.T, b, out=t)
        np.matmul(t, vy, out=c)
        c *= self.scale
        np.matmul(vx, c, out=t)
        np.matmul(t, vy.T, out=b)


class _SuperLUSolve:
    """SuperLU of D + dt L for one component, on its x-major active vector."""

    def __init__(self, disc: SpatialDiscretization, j: int, dt: float):
        self.lu = spla.splu(_implicit_step_matrix(disc, j, dt))

    def solve(self, b):
        b[...] = self.lu.solve(b.ravel()).reshape(b.shape)


def _component_solver(disc: SpatialDiscretization, j: int, dt: float):
    """The solver of D + dt L for component ``j``.

    In 1D the matrix is tridiagonal and LAPACK's tridiagonal LU serves; its
    wrapper refuses fewer than 3 nodes, which SuperLU takes.  In 2D the
    operator on the box is a Kronecker sum, and a ``_ProductSolve`` built
    from two per-axis eigenbases serves when both active ranges are at most
    ``DENSE_EIG_LIMIT`` long, and SuperLU otherwise.
    """
    comp = disc.components[j]
    sizes = [k.stop - k.start for k in comp.box]
    if len(sizes) == 1 and sizes[0] >= 3:
        return _TridiagonalSolve(comp, dt)
    if len(sizes) == 2 and max(sizes) <= DENSE_EIG_LIMIT:
        axes = map(_axis_basis, disc.domain.resolution, disc.domain.spacings, comp.box)
        return _ProductSolve(*axes, disc.diffusion[j], dt)
    return _SuperLUSolve(disc, j, dt)


class _Stepper:
    """The implicit step of one solve, factored once for ``(disc, dt)``.

    ``step(y, f, out)`` solves (D + dt L) y+ = D (y + dt f) per component and
    ``adjoint(x, out)``, its transpose, gives D (D + dt L)^{-1} x (D + dt L
    is symmetric, so the same factors serve).  Both take (m, n_nodes) fields
    and write only the active nodes of ``out``, so its Dirichlet nodes keep
    what the caller put there (zero); ``out`` must be C-contiguous, as a row
    of a path array is.  Each call keeps its right-hand side in one buffer
    for ``check``; each solver solves in place in the box view of ``out``.
    With an ``sfun``, ``S(y)`` is one dot with the weight times quadrature.
    """

    def __init__(self, disc: SpatialDiscretization, dt: float, sfun=None):
        self.disc, self.dt = disc, dt
        self._grid = (disc.n_components,) + disc.domain.resolution
        self._boxes = [(j, *comp.box) for j, comp in enumerate(disc.components)]
        self.solvers = [_component_solver(disc, j, dt) for j in range(disc.n_components)]
        self._flat = disc.zero_field()
        buf = self._flat.reshape(self._grid)
        self._views = [buf[at] for at in self._boxes]
        self._weights = [comp.rel_weights.reshape(v.shape)
                         for comp, v in zip(disc.components, self._views)]
        if sfun is not None:
            self.s_field = _check_field(disc, sfun.weight, "S weight") * disc.quadrature
            self._s = self.s_field.ravel()

    def S(self, y):
        return self._s @ y.ravel()

    def step(self, y, f, out):
        np.multiply(f, self.dt, out=self._flat)
        self._flat += y
        self._adjoint = False
        grid = out.reshape(self._grid)
        for at, solver, v, w in zip(self._boxes, self.solvers, self._views, self._weights):
            solver.solve(np.multiply(w, v, out=grid[at]))
        return out

    def adjoint(self, x, out):
        np.copyto(self._flat, x)
        self._adjoint = True
        grid = out.reshape(self._grid)
        for at, solver, v, w in zip(self._boxes, self.solvers, self._views, self._weights):
            b = grid[at]
            np.copyto(b, v)
            solver.solve(b)
            b *= w
        return out

    def check(self, out):
        """Check that ``out`` holds the result of the last ``step`` or ``adjoint``.

        The measure, per component, is the max-norm backward error
        |A s - b| / (|A| |s| + |b|) of A s = b, A = D + dt L on the active
        nodes; it stays near machine precision for a backward-stable solve
        however stiff A is.  L has no positive off-diagonal entry and no
        negative row sum, so max(D + 2 dt diag L) bounds |A|.  After
        ``adjoint``, s is ``out`` divided by the weights (powers of two, so
        exactly).  Raises a numerical-failure error above the module tolerance.
        """
        what = "adjoint step" if self._adjoint else "implicit step"
        grid = out.reshape(self._grid)
        for j, (at, comp, v) in enumerate(zip(self._boxes, self.disc.components, self._views)):
            s, b, w = grid[at].ravel(), v.ravel(), comp.rel_weights
            s, b = (s / w, b) if self._adjoint else (s, w * b)
            r = w * s + self.dt * (comp.operator @ s) - b
            a_norm = np.max(w + 2.0 * self.dt * comp.operator.diagonal())
            denom = a_norm * np.max(np.abs(s)) + np.max(np.abs(b))
            residual = float(np.max(np.abs(r)) / (denom if denom > 0 else 1.0))
            if not np.isfinite(residual) or residual > SOLVER_RESIDUAL_TOL:
                raise NumericalFailureError(
                    f"{what} solve failed for component {j}", residual=residual
                )


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
    stepper = _Stepper(disc, dt)
    out = stepper.step(y, np.zeros_like(y), np.zeros_like(y))
    stepper.check(out)
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
