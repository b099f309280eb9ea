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
nodes are a box: one index range per axis (``ComponentOperator.box``), the
one statement of which nodes are active.  Every other node set of the
component is read off that box: its weights, and its Neumann boundary nodes
with their surface weights.  The assembly stores the operator per axis
(``AxisOperator``: the diagonals of the tridiagonal stiffness and the
weights on the box), with no sparse matrix.  L on a box is d K in 1D and
the Kronecker sum d (Kx (x) Ry + Rx (x) Ky) in 2D.

Every time stepper steps through one ``_Stepper`` per solve.  A solve's
rule writes each right-hand side into its one buffer, which the step reads
through per-component box views (basic slicing of the grid-shaped field);
each solve writes into the box view of the destination.  D + dt L on a box
is diagonal in the product of its per-axis generalized eigenbases (fast diagonalization), and
each axis's basis is the sampled sines or cosines of the uniform grid,
cached per axis.  So with NumPy alone a 1D solve is one product with the
matrix V diag(s) V^T R, formed once per solve, or with its transpose for the
adjoint (``_AxisSolve``), for every 1D box of at most ``AXIS_EIG_LIMIT`` nodes.
On every 2D box whose axes are at most ``DENSE_EIG_LIMIT`` long
(``_ProductSolve``), each axis transform folds the basis's mirror-paired
modes (``_folded_basis``), the first stage of a fast sine/cosine transform:
two half-size dense products and one add/sub butterfly.  A box with a
longer axis, in 1D or 2D, solves with SuperLU, factored once per solve, the
one solver that imports scipy and the one place that builds a sparse
D + dt L (when it is built).  ``_Stepper.check`` measures the last step of
every state, sensitivity and adjoint solve from the per-axis data.  The spectral diagnostic needs only
the eigenvalues, each axis's closed form (``_axis_eigenvalues``) summed in
2D, so it serves a box of any size.

The module's surface is ``__all__``.  The step and the spectrum have no
public wrappers: the solves step through ``_Stepper``, and
``fractional_power_diagnostic`` reads ``_component_eigenvalues``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter

import numpy as np

from .errors import (_ANY, _INDEX, GridMismatchError, InvalidConfigError,
                     NumericalFailureError, _array, _axes, _checked, _fail, _Field, _integer,
                     _number, _string)

__all__ = [
    "DomainSpec",
    "BoundarySides",
    "SpatialDiscretization",
    "SFunctional",
    "assemble",
    "fractional_power_diagnostic",
    "FractionalPowerReport",
    "evaluate_S",
    "quad_norm",
]

_SIDES_1D = ("left", "right")
_SIDES_2D = ("left", "right", "bottom", "top")
_LABELS = ("dirichlet", "neumann")
_SIDES = {side: _Field(_string, choices=_LABELS) for side in _SIDES_2D}

SOLVER_RESIDUAL_TOL = 1e-10  # backward-error bound for implicit solves
DENSE_EIG_LIMIT = 500  # longest 2D box axis solved in its eigenbasis; SuperLU beyond
# longest 1D box solved in its eigenbasis, SuperLU beyond.  One product beats
# SuperLU's solve up to about 256 nodes and loses from about 320 (2 us against
# 7.6 us at 128, one BLAS thread); no benchmark workload has a longer 1D box
# than 61 nodes to show a gain from moving the limit.
AXIS_EIG_LIMIT = 128


# extent and resolution hold one ``_AXIS`` field per axis
_DOMAIN = {"dimension": _Field(_integer), "extent": _ANY, "resolution": _ANY}
_AXIS = {"extent": _Field(_number, exclusive_minimum=0.0),
         "resolution": _Field(_integer, minimum=3)}


@dataclass(frozen=True)
class DomainSpec:
    """Interval [0, L] or rectangle [0, L1] x [0, L2] with nodes per axis."""

    dimension: int
    extent: tuple
    resolution: tuple

    def __post_init__(self):
        dim = _integer(self.dimension, "dimension", _DOMAIN["dimension"])
        if dim not in (1, 2):
            _fail("dimension", "must be 1 or 2")
        object.__setattr__(self, "dimension", dim)
        for name, expected in (("extent", "positive numbers"), ("resolution", "integers")):
            object.__setattr__(self, name, _axes(getattr(self, name), name, dim, _AXIS[name],
                                                 f"{dim} {expected}"))

    @property
    def spacings(self):
        return tuple(L / (n - 1) for L, n in zip(self.extent, self.resolution))

    @property
    def n_nodes(self):
        return math.prod(self.resolution)


@dataclass(frozen=True)
class BoundarySides:
    """Dirichlet/Neumann label per side of the box, for one component."""

    left: str
    right: str
    bottom: str | None = None
    top: str | None = None

    def __post_init__(self):
        for side, f in _SIDES.items():  # a 1D component has no bottom or top
            if getattr(self, side) is not None:
                _string(getattr(self, side), side, f)

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
class AxisOperator:
    """One axis of a component's operator on its active node range ``keep``.

    ``main`` and ``off`` are the diagonals of the axis stiffness / h^2 (rows
    (-1, 2, -1), ends (1, -1)) and ``weights`` the relative trapezoid
    weights, all restricted to ``keep``.
    """

    n: int
    h: float
    keep: slice
    main: np.ndarray
    off: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, n: int, h: float, keep: slice):
        main = np.full(n, 2.0)
        main[0] = main[-1] = 1.0
        size = keep.stop - keep.start
        return cls(n, h, keep, main[keep] / (h * h), np.full(size - 1, -1.0) / (h * h),
                   _axis_rel_weights(n)[keep])

    def basis(self):
        return _axis_basis(self.n, self.h, self.keep.start, self.keep.stop)

    def folded(self):
        return _folded_basis(self.n, self.h, self.keep.start, self.keep.stop)

    def apply(self, s):
        """(stiffness / h^2) s along the first axis of the box-shaped ``s``."""
        shape = (-1,) + (1,) * (s.ndim - 1)
        off = self.off.reshape(shape)
        r = self.main.reshape(shape) * s
        r[1:] += off * s[:-1]
        r[:-1] += off * s[1:]
        return r


@dataclass(frozen=True)
class ComponentOperator:
    """Assembled operator data for one component, restricted to active nodes.

    L = d K on a 1D box and d (Kx (x) Ry + Rx (x) Ky) on a 2D box, from the
    per-axis stiffness K and weights R of ``axes``.
    """

    box: tuple                  # per-axis slices of the active (non-Dirichlet) nodes
    axes: tuple                 # one AxisOperator per axis, on the box
    diffusion: float            # d
    rel_weights: np.ndarray     # relative trapezoid weights D on active nodes
    neumann_nodes: np.ndarray   # full-grid indices of Neumann boundary nodes
    surface_weights: np.ndarray  # boundary quadrature weight per Neumann node

    def apply(self, s):
        """L s for a box-shaped ``s``."""
        if len(self.axes) == 1:
            return self.diffusion * self.axes[0].apply(s)
        ax, ay = self.axes
        return self.diffusion * (ax.apply(s) * ay.weights
                                 + ax.weights[:, None] * ay.apply(s.T).T)

    def diagonal(self):
        """The diagonal of L, box-shaped."""
        if len(self.axes) == 1:
            return self.diffusion * self.axes[0].main
        ax, ay = self.axes
        return self.diffusion * (np.outer(ax.main, ay.weights) + np.outer(ax.weights, ay.main))


def _axis_rel_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _active_box(labels, resolution):
    """Per-axis slice of non-Dirichlet nodes; a mixed corner is Dirichlet."""
    pinned = [label == "dirichlet" for label in labels.values()]  # in side order
    return tuple(slice(int(lo), n - hi)
                 for n, lo, hi in zip(resolution, pinned[0::2], pinned[1::2]))


@dataclass(frozen=True)
class SpatialDiscretization:
    domain: DomainSpec
    coords: np.ndarray       # (n_nodes, dimension) node coordinates
    quadrature: np.ndarray   # (n_nodes,) trapezoid weights
    components: tuple

    @property
    def n_components(self):
        return len(self.components)

    @property
    def n_nodes(self):
        return self.quadrature.size

    def zero_field(self):
        return np.zeros((self.n_components, self.n_nodes))


def _component(disc: SpatialDiscretization, j):
    """Component ``j`` of ``disc``: the one rule for a component index, which
    is refused outside ``range(n_components)``, not wrapped."""
    j = _integer(j, "component", _INDEX)
    if j >= disc.n_components:
        _fail("component", f"must be less than {disc.n_components}")
    return disc.components[j]


def assemble(domain: DomainSpec, boundaries, diffusion) -> SpatialDiscretization:
    """Assemble per-component operators, quadrature, and boundary data.

    ``boundaries`` is one BoundarySides per component, ``diffusion`` the
    matching positive coefficients.
    """
    boundaries = tuple(boundaries)
    if not boundaries:
        raise InvalidConfigError("need at least one component")
    diffusion = _array(diffusion, "diffusion")
    if diffusion.ndim != 1 or diffusion.size != len(boundaries):
        _fail("diffusion", f"expected {len(boundaries)} coefficients (one per component)")
    if np.any(diffusion <= 0.0):
        _fail("diffusion", "coefficients must be positive")

    dim, res, spacings = domain.dimension, domain.resolution, domain.spacings
    grids = np.meshgrid(*(np.arange(n) * h for n, h in zip(res, spacings)), indexing="ij")
    coords = np.stack(grids, axis=-1).reshape(-1, dim)
    weights = [_axis_rel_weights(n) for n in res]
    rel = reduce(np.multiply.outer, weights)  # grid-shaped
    quadrature = rel.ravel() * math.prod(spacings)
    # boundary quadrature along the sides of each axis: the other axis's
    # trapezoid weights in 2D, 1.0 at an interval end
    edge_weights = [1.0] if dim == 1 else [weights[1] * spacings[1], weights[0] * spacings[0]]
    nodes = np.arange(domain.n_nodes).reshape(res)

    components = []
    for sides, d in zip(boundaries, diffusion.tolist()):
        labels = sides.labels(dim)
        box = _active_box(labels, res)
        # one edge per Neumann side, in side order: a node on two Neumann
        # sides (2D corner) accumulates both edge weights
        surface = np.zeros(res)
        for k, label in enumerate(labels.values()):
            if label == "neumann":
                axis, end = divmod(k, 2)
                edge = [slice(None)] * dim
                edge[axis] = -end  # the first or the last node line
                surface[tuple(edge)] += edge_weights[axis]
        on_neumann = surface[box] > 0
        components.append(
            ComponentOperator(
                box=box,
                axes=tuple(map(AxisOperator.build, res, spacings, box)),
                diffusion=d,
                rel_weights=rel[box].flatten(),
                neumann_nodes=nodes[box][on_neumann],
                surface_weights=surface[box][on_neumann],
            )
        )

    return SpatialDiscretization(domain=domain, coords=coords, quadrature=quadrature,
                                 components=tuple(components))


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
        w = _array(self.weight, "weight")
        if w.ndim != 2:
            raise InvalidConfigError("S weight must be a (components, nodes) array")
        if not np.any(w != 0.0):
            raise InvalidConfigError("S weight must not be identically zero")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)


def _s_field(disc: SpatialDiscretization, weight):
    """The S weight times the quadrature; the one rule for the weight's shape."""
    shape = (disc.n_components, disc.n_nodes)
    if weight.shape != shape:
        raise GridMismatchError(f"expected shape {shape}, got {weight.shape}")
    return weight * disc.quadrature


def evaluate_S(disc: SpatialDiscretization, sfun: SFunctional, y) -> float:
    y = _check_field(disc, y)
    return float(_s_field(disc, sfun.weight).ravel() @ y.ravel())


def _axis_eigenvalues(n: int, h: float, start: int, stop: int):
    """Generalized eigenvalues of one axis's (stiffness / h^2, weights R) on
    nodes ``start``..``stop - 1``, the axis's active range, in closed form.

    Each end of the axis is Dirichlet (dropped from the range) or Neumann
    (half weight).  With N = n - 1, theta_k = k pi / N where both ends are
    alike and (k + 1/2) pi / N where they differ, and lam_k =
    4 sin^2(theta_k / 2) / h^2.  Returns lam and theta_k = pi freq_k /
    period as the integers (freq, period).
    """
    if (start == 0) == (stop == n):  # Dirichlet-Dirichlet or Neumann-Neumann
        freq, period = np.arange(start, stop), n - 1
    else:
        freq, period = 2 * np.arange(stop - start) + 1, 2 * (n - 1)
    return (2.0 / h * np.sin(np.pi / (2 * period) * freq)) ** 2, freq, period


@lru_cache(maxsize=32)
def _axis_basis(n: int, h: float, start: int, stop: int):
    """Generalized eigenpairs of one axis on its active range (see
    ``_axis_eigenvalues``).

    The eigenvectors are the sampled modes of the continuous problem:
    v_k(i) = sin(theta_k i) where the low end is Dirichlet and
    cos(theta_k i) where it is Neumann (K v = lam R v holds row by row, ends
    included).  Arguments are reduced in integers, columns scaled so that
    V^T R V = I.  The arrays are read-only: every solve on an equal axis
    shares them.
    """
    lam, freq, period = _axis_eigenvalues(n, h, start, stop)
    wave = np.sin if start == 1 else np.cos
    v = wave(np.pi / period * (np.outer(np.arange(start, stop), freq) % (2 * period)))
    v /= np.sqrt(_axis_rel_weights(n)[start:stop] @ (v * v))
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


@lru_cache(maxsize=32)
def _folded_basis(n: int, h: float, start: int, stop: int):
    """``_axis_basis`` split by mirror pairs, for the 2D solve.

    On a box axis of m nodes, column m - 1 - k of V is column k times
    +-(-1)^r, r the local row index, one sign per pair.  So with
    half = ceil(m / 2) the low columns k < half carry all of V: a transform
    V^T a is e + o for mode k and +-(e - o) for mode m - 1 - k, where e and
    o are the products of the even and the odd rows of ``a`` with the low
    columns, and V c is the same butterfly run backwards.  The pair sign
    cancels between a forward and an inverse transform, so it is never
    formed.  Modes are in folded order: k < half, then m - 1 - k.  When m is
    odd the middle mode is its own pair and the last slot repeats it; its
    eigenvalue there is inf, so a scale 1 / (1 + dt d lam) drops that slot.

    Returns the folded eigenvalues and the (even rows, odd rows) blocks of
    the low columns of V and of R V, read-only and shared like the basis.
    """
    lam, v = _axis_basis(n, h, start, stop)
    m, half = stop - start, (stop - start + 1) // 2
    lam = np.concatenate([lam[:half], lam[::-1][:half]])
    lam[half + m // 2:] = np.inf
    p = v * _axis_rel_weights(n)[start:stop, None]
    blocks = [tuple(np.ascontiguousarray(a[r::2, :half]) for r in (0, 1)) for a in (v, p)]
    for a in (lam, *blocks[0], *blocks[1]):
        a.setflags(write=False)
    return lam, *blocks


def _butterfly(a, b, out):
    """out[0] = a + b and out[1] = a - b."""
    np.add(a, b, out=out[0])
    np.subtract(a, b, out=out[1])


class _SuperLUSolve:
    """SuperLU of D + dt L for one component, on its x-major active vector
    (imports scipy), for a box too long for a dense eigenbasis.

    ``step(v, b)`` writes (D + dt L)^{-1} D v and ``adjoint(v, b)`` writes
    D (D + dt L)^{-1} v into ``b``; both take box-shaped arrays.
    """

    def __init__(self, disc: SpatialDiscretization, j: int, dt: float):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        comp = disc.components[j]
        self.w = comp.rel_weights.reshape([k.stop - k.start for k in comp.box])
        # L = d K in 1D and d (Kx (x) Ry + Rx (x) Ky) in 2D, then D + dt L
        k = [sp.diags_array([a.off, a.main, a.off], offsets=[-1, 0, 1]) for a in comp.axes]
        if len(k) == 2:
            (kx, ky), (ax, ay) = k, comp.axes
            k = [sp.kron(kx, sp.diags_array(ay.weights), format="csr")
                 + sp.kron(sp.diags_array(ax.weights), ky, format="csr")]
        op = (comp.diffusion * k[0]).tocsr()
        self.lu = splu((sp.diags_array(comp.rel_weights) + dt * op).tocsc())

    def step(self, v, b):
        b[...] = self.lu.solve((self.w * v).ravel()).reshape(b.shape)

    def adjoint(self, v, b):
        np.multiply(self.w, self.lu.solve(v.ravel()).reshape(b.shape), out=b)


class _AxisSolve:
    """Solve of D + dt L = R + dt d K for one component on a 1D box: with
    K V = R V diag(lam) and V^T R V = I its inverse is V diag(s) V^T,
    s = 1 / (1 + dt d lam).  A step is one product with the matrix
    M = V diag(s) V^T R, formed once, and the adjoint R V diag(s) V^T is its
    transpose (D + dt L is symmetric).  The weights are powers of two, so
    folding them is exact.
    """

    def __init__(self, comp: ComponentOperator, dt: float):
        (axis,) = comp.axes
        lam, v = axis.basis()
        s = 1.0 / (1.0 + dt * comp.diffusion * lam)
        m = (v * s) @ (v.T * axis.weights)
        # step(v, b) and adjoint(v, b) write M v and M^T v into b (the
        # second argument of ndarray.dot is its output)
        self.step, self.adjoint = m.dot, m.T.dot


class _ProductSolve:
    """Solve of D + dt L for one component on a 2D box, in a product eigenbasis.

    D + dt L = Rx (x) Ry + dt d (Kx (x) Ry + Rx (x) Ky) is diagonal in
    Vx (x) Vy (see ``_AxisSolve``), with scale 1 / (1 + dt d (lx_i + ly_j)).
    A step transforms with the forward bases Rx Vx and Ry Vy, scales and
    transforms back with Vx and Vy; the adjoint swaps the two roles.  Each
    transform is folded by mirror pairs (``_folded_basis``): two half-size
    products and a butterfly, through two reused buffers, the scale in
    folded order.
    """

    def __init__(self, comp: ComponentOperator, dt: float):
        d = comp.diffusion
        (lx, *self.x), (ly, *self.y) = (axis.folded() for axis in comp.axes)
        (vx, px), (vy, py) = self.x, self.y
        self._bases = (px, py, vx, vy), (vx, vy, px, py)  # a step's, an adjoint's
        hx, hy = lx.size // 2, ly.size // 2
        # indexed (y half, x half, y mode, x mode) like the coefficients
        self.scale = 1.0 / (1.0 + dt * d * (lx.reshape(1, 2, 1, hx) + ly.reshape(2, 1, hy, 1)))
        t, c = np.empty(self.scale.size), np.empty(self.scale.size)
        # views of the two buffers: the coefficients and the y-transform
        # halves, and the x-transformed box (x half, y, x mode) and its halves
        self.coef, self.y_halves = c.reshape(self.scale.shape), t.reshape(self.scale.shape)
        my = comp.box[1].stop - comp.box[1].start
        self.xs = c[:2 * my * hx].reshape(2, my, hx)
        self.x_halves = t[:self.xs.size].reshape(self.xs.shape)

    def step(self, v, b):
        self._solve(v, b, *self._bases[0])

    def adjoint(self, v, b):
        self._solve(v, b, *self._bases[1])

    def _solve(self, v, b, x_in, y_in, x_out, y_out):
        # Each transform: two half-size products of the even and the odd
        # rows of its input into t, then one butterfly of the two halves
        # into c (the inverse transforms run this backwards).  c may hold
        # the input: the products have read it by then.  The x transforms
        # keep y on the rows, so every product splits rows, never columns,
        # and NumPy keeps it on BLAS.
        coef, xs, x_halves, y_halves = self.coef, self.xs, self.x_halves, self.y_halves
        np.matmul(v[0::2].T, x_in[0], out=x_halves[0])
        np.matmul(v[1::2].T, x_in[1], out=x_halves[1])
        _butterfly(x_halves[0], x_halves[1], xs)
        np.matmul(y_in[0].T, xs[:, 0::2], out=y_halves[0])
        np.matmul(y_in[1].T, xs[:, 1::2], out=y_halves[1])
        _butterfly(y_halves[0], y_halves[1], coef)
        coef *= self.scale
        _butterfly(coef[0], coef[1], y_halves)
        np.matmul(y_out[0], y_halves[0], out=xs[:, 0::2])
        np.matmul(y_out[1], y_halves[1], out=xs[:, 1::2])
        _butterfly(xs[0], xs[1], x_halves)
        np.matmul(x_out[0], x_halves[0].T, out=b[0::2])
        np.matmul(x_out[1], x_halves[1].T, out=b[1::2])


def _component_solver(disc: SpatialDiscretization, j: int, dt: float):
    """The solver of D + dt L for component ``j``.

    An eigenbasis (NumPy only) serves every box whose axes are at most
    ``AXIS_EIG_LIMIT`` long in 1D and ``DENSE_EIG_LIMIT`` long in 2D; a box
    with a longer axis takes SuperLU, which imports scipy.
    """
    comp = disc.components[j]
    limit = AXIS_EIG_LIMIT if len(comp.box) == 1 else DENSE_EIG_LIMIT
    if max(k.stop - k.start for k in comp.box) > limit:
        return _SuperLUSolve(disc, j, dt)
    return _AxisSolve(comp, dt) if len(comp.box) == 1 else _ProductSolve(comp, dt)


class _Stepper:
    """The implicit step of one solve, factored once for ``(disc, dt)``.

    A solve's rule writes f into ``buf``, the (m, n_nodes) right-hand side;
    ``step(y, out)`` scales it by dt, adds y and solves (D + dt L) y+ =
    D (y + dt f) per component.  ``adjoint(out)``, the transpose, gives
    D (D + dt L)^{-1} x for the x in ``buf`` (D + dt L is symmetric, so the
    same factors serve).  Both write only the active nodes of ``out``, so its
    Dirichlet nodes keep what the caller put there (zero); ``out`` must be
    C-contiguous, as a row of a path array is.  ``buf`` keeps the last
    right-hand side for ``check``.  ``S(yf)`` of a flattened field
    (``y.ravel()``) is one dot with ``sfun``'s weight times quadrature.
    ``_plan`` binds each component's solver, box and view of ``buf`` once.
    """

    def __init__(self, disc: SpatialDiscretization, dt: float, sfun):
        self.disc, self.dt = disc, dt
        self._adjoint = False
        shape = (disc.n_components,) + disc.domain.resolution
        self.solvers = [_component_solver(disc, j, dt) for j in range(disc.n_components)]
        self.buf = disc.zero_field()
        # the box of a field: basic slicing of it in 1D, of its grid shape in 2D
        boxes = [itemgetter(at) if len(at) == 2 else (lambda y, at=at: y.reshape(shape)[at])
                 for at in ((j, *comp.box) for j, comp in enumerate(disc.components))]
        self._plan = [(solver.step, solver.adjoint, box, box(self.buf))
                      for solver, box in zip(self.solvers, boxes)]
        self._weights = [comp.rel_weights.reshape(v.shape)
                         for comp, (*_, v) in zip(disc.components, self._plan)]
        # max(D + 2 dt diag L) bounds |D + dt L| in the max norm (see check)
        self._a_norms = [np.max(w + 2.0 * dt * comp.diagonal())
                         for comp, w in zip(disc.components, self._weights)]
        self.s_field = _s_field(disc, sfun.weight)
        self.S = self.s_field.ravel().dot

    def step(self, y, out):
        self.buf *= self.dt
        self.buf += y
        self._adjoint = False
        for solve, _, box, v in self._plan:
            solve(v, box(out))
        return out

    def adjoint(self, out):
        self._adjoint = True
        for _, solve, box, v in self._plan:
            solve(v, box(out))
        return out

    def check(self, out):
        """Check that ``out`` holds the result of the last ``step`` or ``adjoint``.

        The measure, per component, is the max-norm backward error
        |A s - b| / (|A| |s| + |b|) of A s = b, A = D + dt L on the active
        nodes; it stays near machine precision for a backward-stable solve
        however stiff A is.  L has no positive off-diagonal entry and no
        negative row sum, so max(D + 2 dt diag L) bounds |A|.  After
        ``adjoint``, s is ``out`` divided by the weights (powers of two, so
        exactly).  A s comes from the per-axis operator data.  The
        denominator is at least 2**-1022, so an absolute rounding of a
        subnormal, 2**-1074, counts as 2**-52.  Raises a numerical-failure
        error above the module tolerance.
        """
        what = "adjoint step" if self._adjoint else "implicit step"
        for j, ((*_, box, v), comp, w, a_norm) in enumerate(zip(
                self._plan, self.disc.components, self._weights, self._a_norms)):
            s, b = (box(out) / w, v) if self._adjoint else (box(out), w * v)
            r = w * s + self.dt * comp.apply(s) - b
            denom = a_norm * np.max(np.abs(s)) + np.max(np.abs(b))
            residual = float(np.max(np.abs(r)) / max(denom, np.finfo(float).tiny))
            if not np.isfinite(residual) or residual > SOLVER_RESIDUAL_TOL:
                raise NumericalFailureError(
                    f"{what} solve failed for component {j}", residual=residual
                )


def _component_eigenvalues(disc: SpatialDiscretization, j: int):
    """Eigenvalues of the realized generator D^{-1} L of component ``j``: d lam
    in 1D and the sums d (lx_i + ly_j) in 2D, unsorted, from the per-axis
    closed form, with no eigenvectors (``_component`` checks ``j``)."""
    comp = _component(disc, j)
    lams = [_axis_eigenvalues(a.n, a.h, a.keep.start, a.keep.stop)[0] for a in comp.axes]
    if len(lams) == 1:
        return comp.diffusion * lams[0]
    lx, ly = lams
    return comp.diffusion * (lx[:, None] + ly[None, :]).ravel()


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


_SPECTRUM = {
    "theta": _Field(_number, 0.5, minimum=0.0, below=1),
    "gamma": _Field(_number, 0.5, exclusive_minimum=0.0, below=1),
    "component": _INDEX,  # below the component count: ``_component``
}


def fractional_power_diagnostic(
    disc: SpatialDiscretization,
    theta: float,
    t_grid=None,
    component: int = 0,
    gamma: float = 0.5,
) -> FractionalPowerReport:
    """Spectral check of the smoothing bound for the analytic semigroup.

    Computes ||(A+1)^theta exp(-A t)|| over ``t_grid`` from the closed-form
    eigenvalues of the generator (the norm is a max over modes, so no
    eigenvectors and no size limit) and reports the sup
    of norm * t^theta * exp(-(1-gamma) t).  Finite and attained away from
    t -> 0 for a symmetric nonnegative operator.
    """
    theta, gamma, component = _checked(
        _SPECTRUM, {"theta": theta, "gamma": gamma, "component": component}).values()
    if t_grid is None:
        t_grid = np.logspace(-3.0, 1.3, 400)
    t_grid = _array(t_grid, "t_grid")
    if t_grid.ndim != 1 or t_grid.size < 2 or not np.all(t_grid > 0):
        raise InvalidConfigError("t_grid must be a 1-D array of positive times")
    if not np.all(np.diff(t_grid) > 0):
        raise InvalidConfigError("t_grid must be strictly increasing")

    lam = _component_eigenvalues(disc, component)
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
