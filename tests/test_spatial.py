import itertools
import math
import tracemalloc

import numpy as np
import pytest

from stopsim import (
    BoundarySides,
    DomainSpec,
    GridMismatchError,
    InvalidConfigError,
    NumericalFailureError,
    SFunctional,
    assemble,
    evaluate_S,
    fractional_power_diagnostic,
    quad_norm,
)
from stopsim.spatial import (
    AXIS_EIG_LIMIT,
    DENSE_EIG_LIMIT,
    SOLVER_RESIDUAL_TOL,
    _path_norms,
    _ProductSolve,
    _Stepper,
    _SuperLUSolve,
    _axis_basis,
    _component_eigenvalues,
)

from conftest import active_mask, adjoint_of, constant_sfun, semigroup_step, step_with
from oracles import (
    dirichlet_eigenvalues_1d,
    generator_dense_1d,
    generator_dense_2d,
    neumann_eigenvalues_1d,
    node_sets_2d,
    quad_weights_1d,
    s_operator_norm,
    semigroup_step_dense,
)


def operator_dense(comp):
    """L of a component as a dense matrix on its x-major box vector, column
    by column from the per-axis data (``comp.apply``)."""
    shape = [k.stop - k.start for k in comp.box]
    eye = np.eye(math.prod(shape))
    return np.stack([comp.apply(e.reshape(shape)).ravel() for e in eye], axis=1)


def realized_generator(disc, j=0):
    comp = disc.components[j]
    return operator_dense(comp) / comp.rel_weights[:, None]


def new_stepper(disc, dt):
    return _Stepper(disc, dt, constant_sfun(disc))


def spectrum(disc, j=0):
    """Eigenvalues of component ``j``'s generator, ascending, and the matching
    eigenvectors: the axis basis in 1D, the Kronecker product of both in 2D."""
    lam = _component_eigenvalues(disc, j)
    bases = [axis.basis()[1] for axis in disc.components[j].axes]
    order = np.argsort(lam, kind="stable")
    return lam[order], (bases[0] if len(bases) == 1 else np.kron(*bases))[:, order]


class TestAssembly1D:
    def test_dirichlet_interior_stencil(self, disc_dirichlet):
        comp = disc_dirichlet.components[0]
        h = disc_dirichlet.domain.spacings[0]
        n_act = comp.rel_weights.size
        expected = (np.diag(np.full(n_act, 2.0))
                    + np.diag(np.full(n_act - 1, -1.0), 1)
                    + np.diag(np.full(n_act - 1, -1.0), -1)) / h**2
        np.testing.assert_allclose(operator_dense(comp), expected, rtol=1e-14)
        np.testing.assert_array_equal(comp.rel_weights, np.ones(n_act))

    def test_neumann_end_rows_reflect(self, disc_neumann):
        A, _ = generator_dense_1d(25, 2.0, 0.5, "neumann", "neumann")
        np.testing.assert_allclose(realized_generator(disc_neumann), A, rtol=1e-13)

    def test_mixed_active_set_excludes_pinned_end(self, disc_mixed):
        comp = disc_mixed.components[0]
        np.testing.assert_array_equal(np.flatnonzero(active_mask(disc_mixed)), np.arange(1, 17))
        np.testing.assert_array_equal(comp.neumann_nodes, [16])
        np.testing.assert_array_equal(comp.surface_weights, [1.0])

    def test_operator_is_exactly_symmetric(self, disc_mixed, disc_neumann):
        for disc in (disc_mixed, disc_neumann):
            L = operator_dense(disc.components[0])
            np.testing.assert_array_equal(L, L.T)

    def test_pure_neumann_row_sums_vanish_exactly(self, disc_neumann):
        L = operator_dense(disc_neumann.components[0])
        np.testing.assert_array_equal(L.sum(axis=1), np.zeros(L.shape[0]))

    def test_operator_is_positive_semidefinite(self, disc_neumann, disc_mixed):
        for disc in (disc_neumann, disc_mixed):
            lam = _component_eigenvalues(disc, 0)
            assert lam.min() >= -1e-12


class TestSpectrum:
    def test_dirichlet_eigenvalues_closed_form(self, disc_dirichlet):
        lam = _component_eigenvalues(disc_dirichlet, 0)
        expected = np.sort(dirichlet_eigenvalues_1d(21, 1.0, 1.0))
        np.testing.assert_allclose(np.sort(lam), expected, rtol=1e-12)

    def test_neumann_eigenvalues_closed_form_with_zero_mode(self, disc_neumann):
        lam = _component_eigenvalues(disc_neumann, 0)
        expected = np.sort(neumann_eigenvalues_1d(25, 2.0, 0.5))
        np.testing.assert_allclose(np.sort(lam), expected, rtol=1e-11, atol=1e-12)
        assert lam.min() == 0.0

    def test_2d_dirichlet_spectrum_is_axis_sum(self):
        disc = assemble(
            DomainSpec(dimension=2, extent=(1.0, 2.0), resolution=(6, 5)),
            [BoundarySides(left="dirichlet", right="dirichlet",
                           bottom="dirichlet", top="dirichlet")],
            [1.5],
        )
        lam = _component_eigenvalues(disc, 0)
        lx = dirichlet_eigenvalues_1d(6, 1.0, 1.5)
        ly = dirichlet_eigenvalues_1d(5, 2.0, 1.5)
        expected = np.sort((lx[:, None] + ly[None, :]).ravel())
        np.testing.assert_allclose(np.sort(lam), expected, rtol=1e-11)

    def test_eigenvectors_are_weight_orthonormal(self, disc_mixed):
        comp = disc_mixed.components[0]
        _, vec = spectrum(disc_mixed)
        gram = vec.T @ np.diag(comp.rel_weights) @ vec
        np.testing.assert_allclose(gram, np.eye(comp.rel_weights.size), atol=1e-10)

    @pytest.mark.parametrize("j", [-1, 2])
    def test_component_index_outside_the_range_is_refused(self, j):
        disc = two_d_disc(("dirichlet", "neumann", "neumann", "neumann"))
        with pytest.raises(InvalidConfigError, match=rf"\[0, 2\), got {j}"):
            _component_eigenvalues(disc, j)
        with pytest.raises(InvalidConfigError, match=rf"\[0, 2\), got {j}"):
            fractional_power_diagnostic(disc, 0.5, component=j)


class TestQuadrature:
    def test_weights_are_trapezoid(self, disc_dirichlet):
        np.testing.assert_allclose(disc_dirichlet.quadrature,
                                   quad_weights_1d(21, 1.0), rtol=1e-15)

    def test_integrates_quadratic_with_known_defect(self, disc_dirichlet):
        x = disc_dirichlet.coords[:, 0]
        h = disc_dirichlet.domain.spacings[0]
        total = float(np.sum(disc_dirichlet.quadrature * x**2))
        np.testing.assert_allclose(total, 1.0 / 3.0 + h**2 / 6.0, rtol=1e-13)

    def test_2d_weights_are_tensor_products_and_sum_to_area(self, disc_2d):
        q = disc_2d.quadrature
        nx, ny = disc_2d.domain.resolution
        hx, hy = disc_2d.domain.spacings
        wx = np.full(nx, hx)
        wx[0] = wx[-1] = hx / 2
        wy = np.full(ny, hy)
        wy[0] = wy[-1] = hy / 2
        np.testing.assert_allclose(q, np.kron(wx, wy), rtol=1e-14)
        np.testing.assert_allclose(q.sum(), 1.0 * 1.5, rtol=1e-13)

    def test_norm_and_inner_product_consistency(self, disc_mixed):
        rng = np.random.default_rng(20)
        y = rng.standard_normal((1, disc_mixed.n_nodes))
        w = rng.standard_normal((1, disc_mixed.n_nodes))
        q = disc_mixed.quadrature
        assert quad_norm(disc_mixed, y) == pytest.approx(
            np.sqrt(np.einsum("ji,ji,i->", y, y, q)), rel=1e-14)
        polarized = 0.25 * (quad_norm(disc_mixed, y + w)**2
                            - quad_norm(disc_mixed, y - w)**2)
        assert np.einsum("ji,ji,i->", y, w, q) == pytest.approx(polarized, rel=1e-10)

    def test_field_shape_is_checked(self, disc_mixed):
        with pytest.raises(GridMismatchError):
            quad_norm(disc_mixed, np.zeros(disc_mixed.n_nodes))
        with pytest.raises(GridMismatchError):
            quad_norm(disc_mixed, np.zeros((2, disc_mixed.n_nodes)))


class TestSFunctional:
    def test_rejects_zero_and_nonfinite_weights(self):
        with pytest.raises(InvalidConfigError):
            SFunctional(weight=np.zeros((1, 5)))
        with pytest.raises(InvalidConfigError):
            SFunctional(weight=np.array([[1.0, np.inf]]))

    def test_linearity_and_cauchy_schwarz(self, disc_mixed):
        sfun = constant_sfun(disc_mixed, 0.7)
        rng = np.random.default_rng(21)
        y = rng.standard_normal((1, disc_mixed.n_nodes))
        w = rng.standard_normal((1, disc_mixed.n_nodes))
        assert evaluate_S(disc_mixed, sfun, 2.0 * y - 3.0 * w) == pytest.approx(
            2.0 * evaluate_S(disc_mixed, sfun, y)
            - 3.0 * evaluate_S(disc_mixed, sfun, w), rel=1e-12)
        bound = s_operator_norm(sfun.weight, disc_mixed.quadrature) * quad_norm(disc_mixed, y)
        assert abs(evaluate_S(disc_mixed, sfun, y)) <= bound * (1 + 1e-12)

    def test_operator_norm_is_attained_on_the_weight(self, disc_mixed):
        sfun = constant_sfun(disc_mixed, 0.7)
        w = np.asarray(sfun.weight)
        attained = evaluate_S(disc_mixed, sfun, w) / quad_norm(disc_mixed, w)
        assert attained == pytest.approx(
            s_operator_norm(sfun.weight, disc_mixed.quadrature), rel=1e-12)


class TestSemigroupStep:
    @pytest.mark.parametrize("labels,res,extent,d", [
        (("dirichlet", "dirichlet"), 21, 1.0, 1.0),
        (("dirichlet", "neumann"), 17, 1.0, 0.8),
        (("neumann", "neumann"), 25, 2.0, 0.5),
    ])
    def test_matches_dense_reference(self, labels, res, extent, d):
        disc = assemble(
            DomainSpec(dimension=1, extent=(extent,), resolution=(res,)),
            [BoundarySides(left=labels[0], right=labels[1])],
            [d],
        )
        A, active = generator_dense_1d(res, extent, d, *labels)
        rng = np.random.default_rng(22)
        y = rng.standard_normal((1, res))
        y[0, ~active] = 0.0
        stepped = semigroup_step(disc, y, 0.07)
        expected = np.zeros(res)
        expected[active] = semigroup_step_dense(A, y[0, active], 0.07)
        np.testing.assert_allclose(stepped[0], expected, rtol=0.0, atol=1e-12)

    def test_matches_dense_reference_2d(self, disc_2d):
        labels = {"left": "dirichlet", "right": "neumann",
                  "bottom": "neumann", "top": "dirichlet"}
        A, active = generator_dense_2d(7, 6, 1.0, 1.5, 1.2, labels)
        np.testing.assert_array_equal(active, active_mask(disc_2d))
        rng = np.random.default_rng(23)
        y = rng.standard_normal((1, disc_2d.n_nodes))
        y[0, ~active] = 0.0
        stepped = semigroup_step(disc_2d, y, 0.03)
        expected = np.zeros(disc_2d.n_nodes)
        expected[active] = semigroup_step_dense(A, y[0, active], 0.03)
        np.testing.assert_allclose(stepped[0], expected, rtol=0.0, atol=1e-12)

    def test_realized_generator_matches_hand_stencil_2d(self, disc_2d):
        labels = {"left": "dirichlet", "right": "neumann",
                  "bottom": "neumann", "top": "dirichlet"}
        A, _ = generator_dense_2d(7, 6, 1.0, 1.5, 1.2, labels)
        np.testing.assert_allclose(realized_generator(disc_2d), A, rtol=1e-13)

    def test_first_order_consistency_with_exponential(self, disc_dirichlet):
        comp = disc_dirichlet.components[0]
        lam, vec = spectrum(disc_dirichlet)
        lowest = int(np.argmin(lam))
        active = active_mask(disc_dirichlet)
        y = np.zeros((1, disc_dirichlet.n_nodes))
        y[0, active] = vec[:, lowest]

        errors = []
        for dt in (0.01, 0.005, 0.0025):
            stepped = semigroup_step(disc_dirichlet, y, dt)
            exact = np.exp(-lam[lowest] * dt) * vec[:, lowest]
            errors.append(np.abs(stepped[0, active] - exact).max())
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all(ratios > 3.4) and np.all(ratios < 4.6)

    def test_step_never_increases_the_quadrature_norm(self, disc_neumann,
                                                      disc_mixed, disc_2d):
        rng = np.random.default_rng(25)
        for disc in (disc_neumann, disc_mixed, disc_2d):
            for dt in (1e-3, 0.1, 5.0):
                y = rng.standard_normal((1, disc.n_nodes))
                y[0, ~active_mask(disc)] = 0.0
                assert quad_norm(disc, semigroup_step(disc, y, dt)) \
                    <= quad_norm(disc, y) * (1 + 1e-13)

    def test_constant_field_is_a_neumann_fixed_point(self, disc_neumann):
        y = np.full((1, disc_neumann.n_nodes), 0.8)
        stepped = semigroup_step(disc_neumann, y, 0.3)
        np.testing.assert_allclose(stepped, y, rtol=0.0, atol=1e-13)

    def test_neumann_step_conserves_quadrature_mass(self, disc_neumann):
        rng = np.random.default_rng(26)
        y = rng.standard_normal((1, disc_neumann.n_nodes))
        mass = float(np.sum(disc_neumann.quadrature * y[0]))
        stepped = semigroup_step(disc_neumann, y, 0.5)
        mass_after = float(np.sum(disc_neumann.quadrature * stepped[0]))
        assert abs(mass_after - mass) <= 1e-12 * max(1.0, abs(mass))


def two_d_disc(labels, resolution=(7, 9), extent=(1.3, 0.7), diffusion=(0.8, 2.5)):
    """Two components on a box: ``labels`` for the first, reversed for the second."""
    sides = [BoundarySides(*labels), BoundarySides(*labels[::-1])]
    return assemble(DomainSpec(dimension=2, extent=extent, resolution=resolution),
                    sides, diffusion)


def rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def superlu_stepper(disc, dt):
    """A stepper that solves every component with SuperLU, as the reference."""
    stepper = new_stepper(disc, dt)
    stepper.solvers = [_SuperLUSolve(disc, j, dt) for j in range(disc.n_components)]
    return stepper


def stepper_with(disc, dt, solver):
    """A stepper whose one component solves with ``solver(comp, dt)``."""
    stepper = new_stepper(disc, dt)
    stepper.solvers = [solver(disc.components[0], dt)]
    return stepper


def both_steps(stepper, y, f, x):
    return (step_with(stepper, y, f, np.zeros_like(y)).copy(),
            adjoint_of(stepper, x, np.zeros_like(x)).copy())


class TestProductSolve:
    """The 2D product-eigenbasis solve against SuperLU on the same matrices."""

    # box axes of 1 and 2 nodes, odd and even, from all 16 label sets
    @pytest.mark.parametrize("resolution", [(7, 9), (3, 4), (4, 5), (5, 3), (12, 13)])
    @pytest.mark.parametrize("labels", list(itertools.product(
        ("dirichlet", "neumann"), repeat=4)))
    def test_steps_match_superlu(self, labels, resolution):
        disc = two_d_disc(labels, resolution)
        dt = 0.013
        ours = new_stepper(disc, dt)
        assert all(isinstance(s, _ProductSolve) for s in ours.solvers)
        rng = np.random.default_rng(31)
        y, f, x = (rng.standard_normal((2, disc.n_nodes)) for _ in range(3))
        for j in range(disc.n_components):
            y[j, ~active_mask(disc, j)] = 0.0
        step, adjoint = both_steps(ours, y, f, x)
        step_lu, adjoint_lu = both_steps(superlu_stepper(disc, dt), y, f, x)
        assert rel_diff(step, step_lu) <= 1e-12
        assert rel_diff(adjoint, adjoint_lu) <= 1e-12
        ours.check(step_with(ours, y, f, np.zeros_like(y)))
        ours.check(adjoint_of(ours, x, np.zeros_like(x)))

    def test_step_and_adjoint_allocate_no_box_sized_array(self):
        disc = two_d_disc(("neumann", "dirichlet", "neumann", "neumann"),
                          resolution=(41, 37))
        stepper = new_stepper(disc, 0.02)
        rng = np.random.default_rng(36)
        y, f, x = (rng.standard_normal((2, disc.n_nodes)) for _ in range(3))
        out = np.zeros_like(y)
        step_with(stepper, y, f, out)  # warm-up
        adjoint_of(stepper, x, out)
        box_bytes = 8 * min(comp.rel_weights.size for comp in disc.components)
        tracemalloc.start()
        try:
            step_with(stepper, y, f, out)
            adjoint_of(stepper, x, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < box_bytes / 4

    def test_superlu_serves_long_axes(self):
        n = DENSE_EIG_LIMIT + 1
        neumann = ("neumann",) * 4
        long_axis = two_d_disc(neumann, resolution=(n, 3), extent=(1.0, 1.0))
        assert all(isinstance(s, _SuperLUSolve) for s in new_stepper(long_axis, 0.1).solvers)
        # one Dirichlet end brings the active axis to the limit
        pinned = two_d_disc(("dirichlet", "neumann", "neumann", "neumann"),
                            resolution=(n, 3), extent=(1.0, 1.0))
        solvers = new_stepper(pinned, 0.1).solvers
        assert not isinstance(solvers[0], _SuperLUSolve)
        assert isinstance(solvers[1], _SuperLUSolve)

    def test_pure_neumann_step_conserves_quadrature_mass(self):
        disc = two_d_disc(("neumann",) * 4, resolution=(23, 17))
        rng = np.random.default_rng(32)
        y = rng.standard_normal((2, disc.n_nodes))
        stepped = semigroup_step(disc, y, 0.5)
        mass = y @ disc.quadrature
        np.testing.assert_allclose(stepped @ disc.quadrature, mass,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(mass)))


LABEL_PAIRS = list(itertools.product(("dirichlet", "neumann"), repeat=2))
SIDES = ("left", "right", "bottom", "top")


def one_d_disc(n, labels, d=0.8):
    return assemble(DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
                    [BoundarySides(*labels)], [d])


@pytest.mark.parametrize("labels", LABEL_PAIRS + list(itertools.product(
    ("dirichlet", "neumann"), repeat=4)))
def test_box_is_the_active_set(labels):
    if len(labels) == 2:
        disc, (_, active) = one_d_disc(6, labels), generator_dense_1d(6, 1.0, 0.8, *labels)
    else:
        disc = two_d_disc(labels)
        _, active = generator_dense_2d(7, 9, 1.3, 0.7, 0.8, dict(zip(SIDES, labels)))
    np.testing.assert_array_equal(active_mask(disc), active)


@pytest.mark.parametrize("labels", list(itertools.product(("dirichlet", "neumann"), repeat=4)))
def test_node_data_matches_a_node_by_node_construction(labels):
    disc = two_d_disc(labels)
    for j, (comp, sides) in enumerate(zip(disc.components, (labels, labels[::-1]))):
        active, rel, nodes, surface = node_sets_2d(
            7, 9, 1.3, 0.7, dict(zip(SIDES, sides)))
        np.testing.assert_array_equal(np.flatnonzero(active_mask(disc, j)), active)
        np.testing.assert_array_equal(comp.rel_weights, rel)
        np.testing.assert_array_equal(comp.neumann_nodes, nodes)
        np.testing.assert_array_equal(comp.surface_weights, surface)


def n_dirichlet(labels):
    return sum(label == "dirichlet" for label in labels)


@pytest.mark.parametrize("labels", LABEL_PAIRS + list(itertools.product(
    ("dirichlet", "neumann"), repeat=4)))
def test_per_axis_data_is_the_stencil_operator(labels):
    disc = one_d_disc(6, labels) if len(labels) == 2 else two_d_disc(labels)
    rng = np.random.default_rng(44)
    for j, (comp, d) in enumerate(zip(disc.components, (0.8, 2.5))):
        sides = labels if j == 0 else labels[::-1]
        if len(labels) == 2:
            A, _ = generator_dense_1d(6, 1.0, d, *sides)
        else:
            A, _ = generator_dense_2d(7, 9, 1.3, 0.7, d, dict(zip(SIDES, sides)))
        L = comp.rel_weights[:, None] * A  # L = D A
        shape = [k.stop - k.start for k in comp.box]
        s = rng.standard_normal(shape)
        np.testing.assert_allclose(comp.apply(s).ravel(), L @ s.ravel(),
                                   rtol=1e-14, atol=1e-14 * np.max(np.abs(L)))
        np.testing.assert_allclose(comp.diagonal().ravel(), np.diag(L), rtol=1e-14)


class TestOneDimensionalSolve:
    """The 1D solvers against SuperLU and dense references."""

    def test_1d_uses_the_eigenbasis_up_to_the_limit_and_superlu_beyond(self):
        cases = [(3, ("dirichlet", "dirichlet"), False),
                 (4, ("dirichlet", "dirichlet"), False),
                 (3, ("dirichlet", "neumann"), False),
                 (4, ("neumann", "dirichlet"), False),
                 (3, ("neumann", "neumann"), False),
                 (17, ("dirichlet", "neumann"), False)]
        for labels in LABEL_PAIRS:
            n = AXIS_EIG_LIMIT + n_dirichlet(labels)  # the box is at the limit
            cases += [(n, labels, False), (n + 1, labels, True)]
        for n, labels, superlu in cases:
            (solver,) = new_stepper(one_d_disc(n, labels), 0.1).solvers
            assert isinstance(solver, _ProductSolve) != superlu, (n, labels)
            assert isinstance(solver, _SuperLUSolve) == superlu, (n, labels)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("labels", LABEL_PAIRS)
    def test_tiny_grids_match_superlu(self, n, labels):
        disc = one_d_disc(n, labels)
        dt = 0.07
        ref = superlu_stepper(disc, dt)
        rng = np.random.default_rng(41)
        y, f, x = (rng.standard_normal((1, n)) for _ in range(3))
        y[0, ~active_mask(disc)] = 0.0
        step, adjoint = both_steps(new_stepper(disc, dt), y, f, x)
        step_lu, adjoint_lu = both_steps(ref, y, f, x)
        assert rel_diff(step, step_lu) <= 1e-12
        assert rel_diff(adjoint, adjoint_lu) <= 1e-12
        assert rel_diff(semigroup_step(disc, y, dt),
                        step_with(ref, y, np.zeros_like(y), np.zeros_like(y))) <= 1e-12

    @pytest.mark.parametrize("n", [41, 501, 2001, 20001])
    @pytest.mark.parametrize("dt,d", [(0.01, 0.5), (1.0, 10.0)])
    @pytest.mark.parametrize("labels", LABEL_PAIRS[:3])
    def test_matches_a_dense_reference_and_is_backward_stable(self, n, dt, d, labels):
        disc = one_d_disc(n, labels, d)
        comp = disc.components[0]
        rng = np.random.default_rng(42)
        y, f = (rng.standard_normal((1, n)) for _ in range(2))
        y[0, ~active_mask(disc)] = 0.0
        stepper = new_stepper(disc, dt)
        ours = step_with(stepper, y, f, np.zeros_like(y))
        stepper.check(ours)
        if n > 2001:  # too long for a dense reference; the check stands alone
            return
        # the hand-stencil generator A = D^{-1} L: (I + dt A)^{-1} is the step
        A, active = generator_dense_1d(n, 1.0, d, *labels)
        dense = np.zeros_like(y)
        dense[0, active] = semigroup_step_dense(A, (f * dt + y)[0, active], dt)
        # D + dt L is diagonally dominant by D >= 1/2 in every row, so the
        # max-norm condition number is at most 2 max(D + 2 dt diag L)
        kappa = 2.0 * np.max(comp.rel_weights + 2.0 * dt * comp.diagonal())
        assert rel_diff(ours, dense) <= 8 * np.finfo(float).eps * kappa


class TestAxisEigenbasis:
    """The NumPy eigenbasis solve of 1D boxes against the SuperLU reference."""

    @pytest.mark.parametrize("size", [3, 4, 25, 41, "limit-1", "limit+1"])
    @pytest.mark.parametrize("labels", LABEL_PAIRS)
    def test_matches_superlu(self, size, labels):
        n = (size if isinstance(size, int)
             else AXIS_EIG_LIMIT + int(size[-2:]) + n_dirichlet(labels))
        disc = one_d_disc(n, labels)
        dt = 0.07
        rng = np.random.default_rng(43)
        y, f, x = (rng.standard_normal((1, n)) for _ in range(3))
        y[0, ~active_mask(disc)] = 0.0
        ours = stepper_with(disc, dt, _ProductSolve)
        step, adjoint = both_steps(ours, y, f, x)
        ours.check(adjoint_of(ours, x, np.zeros_like(x)))
        ours.check(step_with(ours, y, f, np.zeros_like(y)))
        step_lu, adjoint_lu = both_steps(superlu_stepper(disc, dt), y, f, x)
        assert rel_diff(step, step_lu) <= 1e-12
        assert rel_diff(adjoint, adjoint_lu) <= 1e-12

    @pytest.mark.parametrize("labels", LABEL_PAIRS)
    def test_basis_is_weight_orthonormal_and_diagonalizes_the_axis(self, labels):
        disc = one_d_disc(AXIS_EIG_LIMIT + n_dirichlet(labels), labels)
        (axis,) = disc.components[0].axes
        lam, v = axis.basis()
        r = np.diag(axis.weights)
        k = np.diag(axis.main) + np.diag(axis.off, 1) + np.diag(axis.off, -1)
        np.testing.assert_allclose(v.T @ r @ v, np.eye(lam.size), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(k @ v, r @ v * lam, rtol=0.0,
                                   atol=1e-12 * np.max(lam))
        assert np.all(lam >= 0.0)

    def test_bases_are_cached_read_only_and_shared_by_equal_axes(self):
        disc = two_d_disc(("neumann",) * 4, resolution=(21, 21), extent=(1.0, 1.0))
        first, second = disc.components[0].axes
        assert first.basis() is second.basis()
        assert _axis_basis(21, 0.05, 0, 21) is first.basis()
        lam, v = first.basis()
        assert not lam.flags.writeable and not v.flags.writeable
        assert first.folded() is second.folded()
        assert all(not a.flags.writeable for a in (first.folded()[0], *first.folded()[1]))
        solvers = new_stepper(disc, 0.1).solvers
        assert solvers[0].x[0] is solvers[1].y[0] and solvers[0].x[1] is solvers[1].y[1]

    # every box axis of 1-10 and 120-121 nodes that a grid of 3 or more has
    @pytest.mark.parametrize("size,labels", [
        (size, labels) for labels in LABEL_PAIRS for size in [*range(1, 11), 120, 121]
        if size + n_dirichlet(labels) >= 3])
    def test_mirror_modes_pair_up_and_fold(self, size, labels):
        (axis,) = one_d_disc(size + n_dirichlet(labels), labels).components[0].axes
        lam, v = axis.basis()
        sign = (-1.0) ** np.arange(size)
        for k in range((size + 1) // 2):  # the middle mode pairs with itself
            mirror = v[:, size - 1 - k]
            pair = np.sign(mirror @ (sign * v[:, k]))
            assert pair in (1.0, -1.0)
            np.testing.assert_allclose(mirror, pair * sign * v[:, k], rtol=0.0, atol=1e-13)
        half = (size + 1) // 2
        lam_f, (v_even, v_odd), (p_even, p_odd) = axis.folded()
        np.testing.assert_array_equal(lam_f[:half], lam[:half])
        np.testing.assert_array_equal(lam_f[half:half + size // 2], lam[::-1][:size // 2])
        assert lam_f.size == 2 * half and np.all(lam_f[half + size // 2:] == np.inf)
        np.testing.assert_array_equal(v_even, v[0::2, :half])
        np.testing.assert_array_equal(v_odd, v[1::2, :half])
        np.testing.assert_array_equal(p_even, (axis.weights[:, None] * v)[0::2, :half])
        np.testing.assert_array_equal(p_odd, (axis.weights[:, None] * v)[1::2, :half])

    def test_2d_spectrum_comes_from_the_axis_bases(self, disc_2d):
        lam, vec = spectrum(disc_2d)
        labels = {"left": "dirichlet", "right": "neumann",
                  "bottom": "neumann", "top": "dirichlet"}
        A, _ = generator_dense_2d(7, 6, 1.0, 1.5, 1.2, labels)
        assert np.all(np.diff(lam) >= 0)
        np.testing.assert_allclose(A @ vec, vec * lam, rtol=0.0, atol=1e-12 * np.max(lam))


STEPPER_CASES = {
    "superlu-1d": (lambda: one_d_disc(AXIS_EIG_LIMIT + 2, ("dirichlet", "neumann")),
                   _SuperLUSolve),
    "eigenbasis-1d": (lambda: one_d_disc(41, ("dirichlet", "neumann")), _ProductSolve),
    "eigenbasis-1-node": (lambda: one_d_disc(3, ("dirichlet", "dirichlet")), _ProductSolve),
    "eigenbasis-2-nodes": (lambda: one_d_disc(4, ("dirichlet", "dirichlet")), _ProductSolve),
    "product": (lambda: two_d_disc(("dirichlet", "neumann", "neumann", "dirichlet")),
                _ProductSolve),
    "product-even-odd": (lambda: two_d_disc(("neumann", "neumann", "dirichlet", "neumann"),
                                            resolution=(12, 13)), _ProductSolve),
    "product-1-node-axis": (lambda: two_d_disc(("dirichlet", "dirichlet", "neumann", "neumann"),
                                               resolution=(3, 4)), _ProductSolve),
    "superlu-long-axis": (lambda: two_d_disc(("neumann", "dirichlet", "neumann", "neumann"),
                                             resolution=(DENSE_EIG_LIMIT + 2, 3),
                                             extent=(1.0, 1.0)), _SuperLUSolve),
}


class TestStepper:
    """The step object's fast paths against plain references."""

    @pytest.mark.parametrize("case", list(STEPPER_CASES))
    def test_adjoint_is_the_transpose_of_the_step(self, case):
        make, kind = STEPPER_CASES[case]
        disc = make()
        stepper = new_stepper(disc, 0.03)
        assert all(isinstance(s, kind) for s in stepper.solvers)
        # positive fields against the positive inverse of an M-matrix: no
        # cancellation, so the relative bound is a fair one
        rng = np.random.default_rng(51)
        x, y = (rng.uniform(0.5, 1.5, (disc.n_components, disc.n_nodes))
                for _ in range(2))
        lhs = np.sum(x * step_with(stepper, y, np.zeros_like(y), np.zeros_like(y)))
        rhs = np.sum(adjoint_of(stepper, x, np.zeros_like(x)) * y)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    @pytest.mark.parametrize("disc_name", ["disc_mixed", "disc_2d", "two_components"])
    def test_s_is_evaluate_s_and_a_plain_sum(self, request, disc_name):
        disc = (two_d_disc(("dirichlet", "neumann", "neumann", "neumann"))
                if disc_name == "two_components" else request.getfixturevalue(disc_name))
        rng = np.random.default_rng(52)
        shape = (disc.n_components, disc.n_nodes)
        sfun = SFunctional(weight=rng.standard_normal(shape))
        stepper = _Stepper(disc, 0.1, sfun)
        for _ in range(5):
            y = rng.standard_normal(shape)
            terms = (sfun.weight * disc.quadrature * y).ravel()
            assert stepper.S(y) == evaluate_S(disc, sfun, y)
            assert abs(stepper.S(y) - math.fsum(terms)) <= 1e-14 * np.sum(np.abs(terms))

    def test_s_weight_shape_is_checked(self, disc_mixed):
        with pytest.raises(GridMismatchError):
            _Stepper(disc_mixed, 0.1, SFunctional(weight=np.ones((2, disc_mixed.n_nodes))))

    @pytest.mark.parametrize("resolution", [(41,), (13, 9)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_path_norms_equal_the_per_field_norms(self, resolution, m):
        labels = ("dirichlet", "neumann") * len(resolution)
        disc = assemble(DomainSpec(dimension=len(resolution), extent=(1.0,) * len(resolution),
                                   resolution=resolution),
                        [BoundarySides(*labels)] * m, [1.0] * m)
        path = np.random.default_rng(53).standard_normal((61, m, disc.n_nodes))
        np.testing.assert_array_equal(_path_norms(disc, path),
                                      [quad_norm(disc, y) for y in path])
        with pytest.raises(GridMismatchError):
            _path_norms(disc, path[:, :, 1:])


class TestStepResidualCheck:
    def test_check_before_any_step_passes(self, disc_2d):
        new_stepper(disc_2d, 0.1).check(disc_2d.zero_field())

    def test_stiff_solve_passes_where_the_plain_residual_is_large(self):
        n, dt = 20001, 1.0
        disc = assemble(DomainSpec(dimension=1, extent=(1.0,), resolution=(n,)),
                        [BoundarySides(left="neumann", right="neumann")], [10.0])
        comp = disc.components[0]
        y = np.cos(np.pi * disc.coords[:, 0])[None, :]
        stepper = new_stepper(disc, dt)
        out = step_with(stepper, y, np.zeros_like(y), np.zeros_like(y))
        b = comp.rel_weights * y[0]
        a_out = comp.rel_weights * out[0] + dt * comp.apply(out[0])  # (D + dt L) out
        plain = np.linalg.norm(a_out - b) / np.linalg.norm(b)
        assert plain > SOLVER_RESIDUAL_TOL
        stepper.check(out)

    def test_perturbed_solution_is_refused(self, disc_2d):
        rng = np.random.default_rng(33)
        y, f = (rng.standard_normal((1, disc_2d.n_nodes)) for _ in range(2))
        stepper = new_stepper(disc_2d, 0.05)
        out = step_with(stepper, y, f, np.zeros_like(y))
        stepper.check(out)
        with pytest.raises(NumericalFailureError,
                           match="implicit step solve failed for component 0"):
            stepper.check(out * (1 + 1e-6))

    def test_bound_on_the_matrix_scales_with_the_step(self, disc_dirichlet):
        # at dt 1e-6, |A| is about 1; a bound without dt (about 4 d / h^2)
        # would pass this perturbation
        y = np.sin(np.pi * disc_dirichlet.coords[:, 0])[None, :]
        stepper = new_stepper(disc_dirichlet, 1e-6)
        out = step_with(stepper, y, np.zeros_like(y), np.zeros_like(y))
        stepper.check(out)
        with pytest.raises(NumericalFailureError):
            stepper.check(out * (1 + 1e-8))

    @pytest.mark.parametrize("labels", LABEL_PAIRS)
    def test_stiff_eigenbasis_solve_passes_and_a_perturbed_one_is_refused(self, labels):
        disc = one_d_disc(AXIS_EIG_LIMIT + n_dirichlet(labels), labels, d=10.0)
        stepper = new_stepper(disc, 1.0)
        assert isinstance(stepper.solvers[0], _ProductSolve)
        rng = np.random.default_rng(35)
        y, f, x = (rng.standard_normal((1, disc.n_nodes)) for _ in range(3))
        for what, solve in (("implicit step", lambda: step_with(stepper, y, f, np.zeros_like(y))),
                            ("adjoint step", lambda: adjoint_of(stepper, x, np.zeros_like(x)))):
            out = solve()
            stepper.check(out)
            # a scaled solution is consistent with a scaled right-hand side
            # to within the stiff |A|; one wrong node is not
            out[0, disc.n_nodes // 2] += 1e-6 * np.max(np.abs(out))
            with pytest.raises(NumericalFailureError,
                               match=f"{what} solve failed for component 0"):
                stepper.check(out)

    @pytest.mark.parametrize("dt", [0.5, 0.05])
    def test_a_subnormal_solve_passes_and_a_doubled_one_is_refused(self, disc_mixed, dt):
        # each rounding of a subnormal is an absolute 2**-1074, which without
        # the measure's floor read as 1.7e-10 (dt 0.5) and 1.0e-9 (dt 0.05)
        f = 2.2250738585e-313 * np.sin(np.pi * disc_mixed.coords[:, 0])[None, :]
        stepper = new_stepper(disc_mixed, dt)
        for what, solve in (("implicit step", lambda: step_with(stepper, 0 * f, f, 0 * f)),
                            ("adjoint step", lambda: adjoint_of(stepper, f, 0 * f))):
            out = solve()
            stepper.check(out)
            with pytest.raises(NumericalFailureError,
                               match=f"{what} solve failed for component 0"):
                stepper.check(2.0 * out)

    @pytest.mark.parametrize("disc_name", ["disc_mixed", "disc_2d"])
    def test_perturbed_adjoint_solution_is_refused(self, request, disc_name):
        disc = request.getfixturevalue(disc_name)
        x = np.random.default_rng(34).standard_normal((1, disc.n_nodes))
        stepper = new_stepper(disc, 0.05)
        out = adjoint_of(stepper, x, np.zeros_like(x))
        stepper.check(out)
        with pytest.raises(NumericalFailureError,
                           match="adjoint step solve failed for component 0"):
            stepper.check(out * (1 + 1e-6))


class TestMultiComponent:
    def test_components_are_independent(self):
        disc = assemble(
            DomainSpec(dimension=1, extent=(1.0,), resolution=(11,)),
            [BoundarySides(left="dirichlet", right="dirichlet"),
             BoundarySides(left="neumann", right="neumann")],
            [1.0, 2.0],
        )
        assert disc.n_components == 2
        assert disc.components[0].rel_weights.size == 9
        assert disc.components[1].rel_weights.size == 11
        lam0 = _component_eigenvalues(disc, 0)
        lam1 = _component_eigenvalues(disc, 1)
        np.testing.assert_allclose(
            np.sort(lam0), np.sort(dirichlet_eigenvalues_1d(11, 1.0, 1.0)),
            rtol=1e-12)
        np.testing.assert_allclose(
            np.sort(lam1), np.sort(neumann_eigenvalues_1d(11, 1.0, 2.0)),
            rtol=1e-11, atol=1e-12)


class TestFractionalPowerDiagnostic:
    def test_theta_zero_reduces_to_semigroup_decay(self, disc_neumann):
        report = fractional_power_diagnostic(disc_neumann, 0.0)
        np.testing.assert_allclose(report.norms, np.ones_like(report.t_grid),
                                   rtol=1e-13)
        np.testing.assert_allclose(report.weighted,
                                   np.exp(-0.5 * report.t_grid), rtol=1e-13)
        assert report.t_at_sup == report.t_grid[0]
        assert not report.attained_interior

    def test_single_mode_case_is_fully_analytic(self):
        disc = assemble(
            DomainSpec(dimension=1, extent=(1.0,), resolution=(3,)),
            [BoundarySides(left="dirichlet", right="dirichlet")],
            [1.0],
        )
        lam = 8.0  # 2 d / h^2 with h = 1/2
        t = np.logspace(-2, 0, 50)
        report = fractional_power_diagnostic(disc, 0.5, t_grid=t)
        expected = np.sqrt(lam + 1.0) * np.exp(-lam * t)
        np.testing.assert_allclose(report.norms, expected, rtol=1e-12)
        np.testing.assert_allclose(
            report.weighted, expected * np.sqrt(t) * np.exp(-0.5 * t),
            rtol=1e-12)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_sup_is_finite_and_attained_interior(self, disc_dirichlet, theta):
        report = fractional_power_diagnostic(disc_dirichlet, theta)
        assert np.isfinite(report.sup_value)
        assert report.sup_value > 0.0
        assert report.attained_interior

    def test_custom_gamma_changes_the_weight_only(self, disc_dirichlet):
        r1 = fractional_power_diagnostic(disc_dirichlet, 0.5, gamma=0.5)
        r2 = fractional_power_diagnostic(disc_dirichlet, 0.5, gamma=0.25)
        np.testing.assert_array_equal(r1.norms, r2.norms)
        np.testing.assert_allclose(
            r2.weighted, r1.norms * r1.t_grid**0.5 * np.exp(-0.75 * r1.t_grid),
            rtol=1e-13)

    def test_2d_grid_beyond_the_dense_limit_uses_the_axis_sums(self):
        n, theta, gamma = 121, 0.4, 0.5
        disc = assemble(DomainSpec(dimension=2, extent=(1.0, 2.0), resolution=(n, n)),
                        [BoundarySides(left="dirichlet", right="dirichlet",
                                       bottom="neumann", top="neumann")], [0.7])
        assert disc.components[0].rel_weights.size > DENSE_EIG_LIMIT
        t = np.logspace(-4.0, 1.0, 120)
        report = fractional_power_diagnostic(disc, theta, t_grid=t, gamma=gamma)
        lam = (dirichlet_eigenvalues_1d(n, 1.0, 0.7)[:, None]
               + neumann_eigenvalues_1d(n, 2.0, 0.7)[None, :]).ravel()
        norms = np.array([np.max((lam + 1.0) ** theta * np.exp(-lam * tk)) for tk in t])
        weighted = norms * t**theta * np.exp(-(1.0 - gamma) * t)
        np.testing.assert_allclose(report.norms, norms, rtol=1e-11)
        assert report.sup_value == pytest.approx(np.max(weighted), rel=1e-11)
        assert report.t_at_sup == t[np.argmax(weighted)]
        assert report.attained_interior

    @pytest.mark.parametrize("resolution", [(600,), (5, 520)])
    def test_boxes_beyond_the_old_dense_limit_use_the_closed_form(self, resolution):
        # x Dirichlet at both ends, y (in 2D) Neumann at both
        labels = ("dirichlet", "dirichlet") + ("neumann", "neumann") * (len(resolution) - 1)
        extent = (1.0, 2.0)[:len(resolution)]
        disc = assemble(DomainSpec(dimension=len(resolution), extent=extent,
                                   resolution=resolution), [BoundarySides(*labels)], [0.7])
        lam = dirichlet_eigenvalues_1d(resolution[0], 1.0, 0.7)
        if len(resolution) == 2:
            lam = (lam[:, None] + neumann_eigenvalues_1d(resolution[1], 2.0, 0.7)).ravel()
        assert max(k.stop - k.start for k in disc.components[0].box) > DENSE_EIG_LIMIT
        np.testing.assert_allclose(np.sort(_component_eigenvalues(disc, 0)), np.sort(lam),
                                   rtol=1e-11, atol=1e-12)
        t = np.logspace(-4.0, 1.0, 60)
        report = fractional_power_diagnostic(disc, 0.4, t_grid=t)
        norms = np.array([np.max((lam + 1.0) ** 0.4 * np.exp(-lam * tk)) for tk in t])
        np.testing.assert_allclose(report.norms, norms, rtol=1e-11)

    def test_rejects_bad_theta_and_bad_grid(self, disc_dirichlet):
        with pytest.raises(InvalidConfigError):
            fractional_power_diagnostic(disc_dirichlet, 1.0)
        with pytest.raises(InvalidConfigError):
            fractional_power_diagnostic(disc_dirichlet, -0.1)
        with pytest.raises(InvalidConfigError):
            fractional_power_diagnostic(disc_dirichlet, 0.5,
                                        t_grid=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("gamma", [math.nan, 0.0, 1.0, -0.5, math.inf])
    def test_rejects_a_gamma_outside_the_open_unit_interval(self, disc_dirichlet, gamma):
        with pytest.raises(InvalidConfigError, match="gamma must lie in"):
            fractional_power_diagnostic(disc_dirichlet, 0.5, gamma=gamma)


class TestDomainValidation:
    def test_domain_spec_rejects_bad_inputs(self):
        with pytest.raises(InvalidConfigError):
            DomainSpec(dimension=3, extent=(1.0,), resolution=(5,))
        with pytest.raises(InvalidConfigError):
            DomainSpec(dimension=1, extent=(0.0,), resolution=(5,))
        with pytest.raises(InvalidConfigError):
            DomainSpec(dimension=1, extent=(1.0,), resolution=(2,))
        with pytest.raises(InvalidConfigError):
            DomainSpec(dimension=2, extent=(1.0,), resolution=(5, 5))

    def test_assemble_rejects_mismatched_inputs(self):
        domain = DomainSpec(dimension=1, extent=(1.0,), resolution=(5,))
        sides = BoundarySides(left="dirichlet", right="dirichlet")
        with pytest.raises(InvalidConfigError):
            assemble(domain, [sides], [1.0, 2.0])
        with pytest.raises(InvalidConfigError):
            assemble(domain, [sides], [-1.0])
        with pytest.raises(InvalidConfigError):
            assemble(domain, [], [])
        with pytest.raises(InvalidConfigError):
            assemble(domain, [BoundarySides(left="dirichlet", right="weird")],
                     [1.0])

    def test_2d_requires_all_four_sides(self):
        domain = DomainSpec(dimension=2, extent=(1.0, 1.0), resolution=(5, 5))
        with pytest.raises(InvalidConfigError):
            assemble(domain, [BoundarySides(left="dirichlet",
                                            right="dirichlet")], [1.0])
