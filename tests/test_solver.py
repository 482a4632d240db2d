"""Scalarization solver against independent oracles (closed forms, direct
linear solves, finite differences)."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import SoftplusFamily, interior_weights, random_quadratic, softplus_problem
from test_reference import ref_subproblem_solve
from pareto_atlas import (
    GenericQuadratic,
    MaxIterExceeded,
    SingularNewtonSystem,
    SolverConfig,
    build_atlas,
    build_problem,
    minimize_weighted,
    raise_unconverged,
    scalarize,
    x_star_derivative,
)


def closed_form_example31(w2: float, w3: float) -> np.ndarray:
    d = w2 - w3
    return np.array([-d / 2.0, -d / (2.0 * (1.0 + w3)), 0.0])


def quadratic_oracle(problem, w) -> np.ndarray:
    """Direct normal-equations solve of sum_i w_i (Q_i x + b_i) = 0."""
    q = np.tensordot(w, problem.qs, axes=(0, 0))
    b = w @ problem.bs
    return np.linalg.solve(q, -b)


class TestMinimize:
    def test_matches_pinch_closed_form(self, example31):
        for w in interior_weights(3, 25, seed=5):
            (x,), (res,), _, (tol,) = minimize_weighted(example31, w[None])
            assert res <= tol
            assert_allclose(x, closed_form_example31(w[1], w[2]), atol=1e-12)

    def test_matches_quadratic_linear_solve(self):
        for seed in range(10):
            problem = random_quadratic(seed)
            for w in interior_weights(3, 5, seed=seed + 100):
                (x,), _, _, _ = minimize_weighted(problem, w[None])
                assert_allclose(x, quadratic_oracle(problem, w), atol=1e-10)

    def test_quadratics_converge_in_one_newton_step(self, example32):
        pt = scalarize(example32, np.array([0.3, 0.3, 0.4]))
        assert pt.iterations == 1
        assert pt.converged

    def test_invariant_under_weight_scaling(self, example32):
        w = np.array([0.2, 0.5, 0.3])
        (x1, x2), _, _, _ = minimize_weighted(example32, np.array([w, 7.5 * w]))
        assert_allclose(x1, x2, atol=1e-12)

    def test_boundary_weight_solves_subset_objective(self, example32):
        # weight on a vertex minimizes that objective alone
        (x,), _, _, _ = minimize_weighted(example32, np.array([[1.0, 0.0, 0.0]]))
        assert_allclose(x, [0.0, 0.0, 0.0], atol=1e-12)

    def test_warm_start_changes_nothing(self, example32, rng):
        w = np.array([0.25, 0.5, 0.25])
        (baseline,), _, _, _ = minimize_weighted(example32, w[None])
        for _ in range(5):
            (x,), _, _, _ = minimize_weighted(example32, w[None], x0=rng.normal(size=3) * 3.0)
            assert_allclose(x, baseline, atol=1e-10)

    def test_weight_shape_checked(self, example32):
        with pytest.raises(ValueError, match="weights"):
            minimize_weighted(example32, np.array([[0.5, 0.5]]))

    def test_single_weight_vector_rejected(self, example32):
        """A single weight goes through ``scalarize``; the batch solver
        takes only an (N, m) stack."""
        with pytest.raises(ValueError, match=r"\(N, 3\) stack"):
            minimize_weighted(example32, np.array([0.2, 0.4, 0.4]))

    def test_negative_weights_rejected(self, example32):
        with pytest.raises(ValueError, match="nonnegative"):
            minimize_weighted(example32, np.array([[1.5, -0.25, -0.25]]))

    def test_zero_weights_rejected(self, example32):
        with pytest.raises(ValueError, match="not all zero"):
            minimize_weighted(example32, np.zeros((1, 3)))

    def test_iteration_budget_raises_with_best_iterate(self, example32):
        cfg = SolverConfig(max_iter=0)
        result = minimize_weighted(example32, np.array([[0.2, 0.4, 0.4]]), cfg)
        with pytest.raises(MaxIterExceeded) as err:
            raise_unconverged(result)
        assert err.value.x.shape == (3,)
        assert err.value.residual > 0.0
        assert err.value.iterations == 0

    def test_indefinite_hessian_raises(self):
        # nonzero linear term so the start is not the saddle point
        spec = GenericQuadratic(
            np.array([np.diag([1.0, -1.0])]), np.ones((1, 2)), np.zeros(1)
        )
        with pytest.raises(SingularNewtonSystem):  # spec not validated by build_problem
            minimize_weighted(spec, np.array([[1.0]]))


class TestBatch:
    def test_stack_matches_single_solves(self):
        problem = softplus_problem()
        weights = interior_weights(3, 8, seed=2)
        x, res, iters, tol = minimize_weighted(problem, weights)
        assert x.shape == (8, 2) and res.shape == iters.shape == tol.shape == (8,)
        assert (res <= tol).all() and iters.max() > 1
        for k, w in enumerate(weights):
            (x1,), (res1,), (iters1,), (tol1,) = minimize_weighted(problem, w[None])
            assert_allclose(x[k], x1, rtol=0.0, atol=1e-15)
            assert (iters[k], tol[k]) == (iters1, tol1)

    def test_unconverged_node_is_flagged_not_raised(self):
        problem = softplus_problem()
        weights = interior_weights(3, 4, seed=3)
        solved = minimize_weighted(problem, weights).x
        starts = solved.copy()
        starts[2] += 30.0  # far away: needs more than the budget
        config = SolverConfig(max_iter=2)
        x, res, iters, tol = result = minimize_weighted(problem, weights, config, x0=starts)
        assert (res > tol).tolist() == [False, False, True, False]
        assert iters.tolist() == [0, 0, 2, 0]
        assert_allclose(x[[0, 1, 3]], starts[[0, 1, 3]], rtol=0.0, atol=0.0)
        with pytest.raises(MaxIterExceeded) as err:
            raise_unconverged(result)
        assert err.value.residual == res[2]
        assert_allclose(err.value.x, x[2])

    def test_decrease_below_value_rounding_still_converges(self):
        """Near the minimizer the Armijo decrease is below the rounding of
        the value; the gradient norm decides there, so no node stalls."""
        pt = scalarize(softplus_problem(), [0.1, 0.9, 0.0])
        assert pt.kkt_residual <= pt.grad_tol

    @pytest.mark.parametrize("seed", range(4))
    def test_steep_softplus_atlas_has_no_failures(self, seed):
        gen = np.random.default_rng(seed)
        family = SoftplusFamily(3.0 * gen.normal(size=(3, 2)), gen.normal(size=(3, 2)))
        assert build_atlas(build_problem(family), 10).failures == []

    def test_stack_weights_validated_per_row(self, example32):
        with pytest.raises(ValueError, match="not all zero"):
            minimize_weighted(example32, np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            minimize_weighted(example32, np.array([[np.nan, 0.5, 0.5]]))

    def test_linear_terms_need_one_block_per_row(self, example32):
        with pytest.raises(ValueError, match=r"shape \(2, 3, 3\), got \(1, 3, 3\)"):
            minimize_weighted(example32, np.full((2, 3), 1 / 3), linear=np.zeros((1, 3, 3)))


class TestScalarize:
    def test_point_fields(self, example32):
        pt = scalarize(example32, np.array([0.5, 0.25, 0.25]))
        assert pt.weight.dtype == float and pt.weight.tolist() == [0.5, 0.25, 0.25]
        assert pt.kkt_residual <= pt.grad_tol
        assert pt.fx.shape == (3,)
        sv = pt.jacobian_sv
        assert np.all(np.diff(sv) <= 0.0)  # descending
        assert pt.corank == 1  # weight annihilates the Jacobian rows

    def test_point_keeps_its_own_weight(self, example32):
        w = np.array([0.5, 0.25, 0.25])
        pt = scalarize(example32, w)
        w[0] = 7.0
        assert pt.weight is not w and pt.weight.tolist() == [0.5, 0.25, 0.25]

    def test_weight_length_must_match(self, example32):
        with pytest.raises(ValueError, match="m="):
            scalarize(example32, np.array([0.5, 0.5]))

    def test_kkt_residual_is_weighted_gradient_norm(self, example32):
        pt = scalarize(example32, np.array([0.2, 0.3, 0.5]))
        grad = pt.weight @ example32.gradients(pt.x)
        assert_allclose(np.linalg.norm(grad), pt.kkt_residual, atol=1e-18)


class TestSubproblem:
    def test_face_weight_forms_agree(self, example32):
        compact = ref_subproblem_solve(example32, (0, 2), np.array([0.25, 0.75]))
        embedded = ref_subproblem_solve(example32, (0, 2), np.array([0.25, 0.0, 0.75]))
        assert_allclose(compact.x, embedded.x, atol=1e-12)
        assert compact.fx.shape == (2,)

    def test_face_weight_length_checked(self, example32):
        with pytest.raises(ValueError, match="length 2 or 3"):
            ref_subproblem_solve(example32, (0, 2), np.array([1.0]))

    def test_mass_off_face_rejected(self, example32):
        with pytest.raises(ValueError, match="outside the face"):
            ref_subproblem_solve(example32, (0, 2), np.array([0.25, 0.5, 0.25]))

    @pytest.mark.parametrize("indices", [(2, 0), (0, 0, 2)])
    def test_indices_must_be_strictly_increasing(self, example32, indices):
        """A compact face weight pairs entry j with objective indices[j], so
        unsorted or repeated indices would silently solve another weight."""
        with pytest.raises(ValueError, match="strictly increasing"):
            ref_subproblem_solve(example32, indices, np.array([0.25, 0.75]))
        # the pairing the caller meant: 0.75 on objective 0, 0.25 on objective 2
        pt = ref_subproblem_solve(example32, (0, 2), np.array([0.75, 0.25]))
        assert_allclose(pt.x, [5.0 / 7.0, 6.0 / 7.0, 0.0], atol=1e-12)

    def test_single_objective_face(self, example32):
        pt = ref_subproblem_solve(example32, (1,), np.array([1.0]))
        # second objective is minimized at (1, 0, 0)
        assert_allclose(pt.x, [1.0, 0.0, 0.0], atol=1e-10)

    def test_matches_full_problem_on_kept_objectives(self, example31):
        sub = ref_subproblem_solve(example31, (1, 2), np.array([0.6, 0.4]))
        full = scalarize(example31, np.array([0.0, 0.6, 0.4]))
        assert_allclose(sub.x, full.x, atol=1e-10)


class TestDerivative:
    def test_frozen_vertex_value(self, example31):
        """At w = (1, 0, 0) the chart derivative in z = (w1, w2) is
        [[-1/2, -1], [-1/2, -1], [0, 0]] (differentiating the closed form)."""
        pt = scalarize(example31, np.array([1.0, 0.0, 0.0]))
        der = x_star_derivative(example31, pt)
        assert_allclose(der, [[-0.5, -1.0], [-0.5, -1.0], [0.0, 0.0]], atol=1e-12)

    def test_vertex_value_in_other_chart(self, example31):
        """Chain rule into the (w2, w3) chart gives
        [[-1/2, 1/2], [-1/2, 1/2], [0, 0]], matching the closed form."""
        pt = scalarize(example31, np.array([1.0, 0.0, 0.0]))
        der = x_star_derivative(example31, pt)
        chart = np.array([[-1.0, -1.0], [1.0, 0.0]])  # d(w1,w2)/d(w2,w3)
        assert_allclose(der @ chart, [[-0.5, 0.5], [-0.5, 0.5], [0.0, 0.0]], atol=1e-12)

        h = 1e-6  # same matrix from differentiating the closed form
        fd = np.column_stack([
            (closed_form_example31(h, 0.0) - closed_form_example31(-h, 0.0)) / (2 * h),
            (closed_form_example31(0.0, h) - closed_form_example31(0.0, -h)) / (2 * h),
        ])
        assert_allclose(der @ chart, fd, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences_on_quadratic(self, seed):
        problem = random_quadratic(seed)
        w = interior_weights(3, 1, seed=seed + 50)[0]
        pt = scalarize(problem, w)
        der = x_star_derivative(problem, pt)

        h = 1e-6
        z0 = w[:2]

        def solve(z):
            full = np.array([z[0], z[1], 1.0 - z.sum()])
            return scalarize(problem, full).x

        fd = np.column_stack([
            (solve(z0 + h * e) - solve(z0 - h * e)) / (2.0 * h) for e in np.eye(2)
        ])
        assert_allclose(der, fd, rtol=1e-6, atol=1e-8)

    def test_single_objective_has_empty_chart(self):
        problem = random_quadratic(3, n=2, m=1)
        pt = scalarize(problem, np.array([1.0]))
        assert x_star_derivative(problem, pt).shape == (2, 0)
