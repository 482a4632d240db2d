"""Numerical rank, corank certificates, cokernels, and the fold criterion."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import interior_weights, phenotypic_instance, random_quadratic
from test_reference import ref_cokernel_alignment, ref_lambda_jacobian
from pareto_atlas import (
    LocationInstance,
    NoRegularMinor,
    NotCorankOne,
    SolverConfig,
    build_atlas,
    certify_corank_on_atlas,
    cokernel_basis,
    corank2_tracker,
    corank_at,
    draw_perturbation,
    fold_check,
    genericity_experiment,
    location_pareto_set,
    perturb_problem,
    scalarize,
)
from pareto_atlas.diagnostics import corank_certificate, numerical_rank


class TestRankReport:
    """The rank decision for one Jacobian: ``numerical_rank`` of its singular
    values, and ``corank_at`` against min(n, m)."""

    def test_known_singular_values(self):
        sv = np.array([1.0, 1e-3, 1e-12])
        assert numerical_rank(sv, 1e-8) == 2
        assert corank_at(_FixedJacobian(np.diag(sv)), np.zeros(3), 1e-8) == 1
        assert_allclose(corank_certificate(sv[None], 1e-8).min_gap, 1e-3)

    def test_threshold_is_relative(self):
        # same spectrum scaled by 1e6 must give the same rank
        mat = np.diag([1.0, 1e-3, 1e-12])
        assert corank_at(_FixedJacobian(1e6 * mat), np.zeros(3), 1e-8) == 1
        assert numerical_rank(1e6 * np.diag(mat), 1e-8) == 2

    def test_rectangular_corank_uses_smaller_side(self):
        wide = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # 2 x 3, full rank
        assert corank_at(_FixedJacobian(wide), np.zeros(3)) == 0
        tall = wide.T.copy()
        tall[:, 1] = 0.0
        assert corank_at(_FixedJacobian(tall), np.zeros(2)) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros(3)) == 0
        assert corank_at(_FixedJacobian(np.zeros((3, 3))), np.zeros(3)) == 3
        assert corank_certificate(np.zeros((1, 3))).min_gap == np.inf


class TestCorank:
    def test_pinch_origin_has_corank_two(self, example31):
        assert corank_at(example31, np.zeros(3)) == 2
        sv = np.linalg.svd(example31.gradients(np.zeros(3)), compute_uv=False)
        assert sv[0] > 1.0  # well-scaled: decision is robust
        assert sv[1] < 1e-12

    def test_off_diagonal_solutions_have_corank_one(self, example31):
        pt = scalarize(example31, np.array([0.2, 0.5, 0.3]))
        assert corank_at(example31, pt.x) == 1

    def test_certificate_on_pinch_atlas(self, example31):
        atlas = build_atlas(example31, 10)
        cert = certify_corank_on_atlas(atlas)
        assert cert.max_corank == 2
        assert not cert.simplicial_on_sample
        assert len(cert.witnesses) == 6
        for i in cert.witnesses:  # witnesses lie on the diagonal grid line
            w = atlas.grid.weights[i]
            assert w[1] == w[2]

    def test_certificate_on_smooth_atlas(self, example32):
        atlas = build_atlas(example32, 10)
        for tol in (1e-7, 1e-8, 1e-9):
            cert = corank_certificate(atlas.sv, tol)
            assert cert.max_corank == 1
            assert cert.simplicial_on_sample
            assert cert.witnesses == []
        assert certify_corank_on_atlas(atlas).min_gap > 1e-3

    def test_certificate_recomputation_matches_solver(self, example32):
        atlas = build_atlas(example32, 6)
        cert = certify_corank_on_atlas(atlas)
        assert np.array_equal(cert.coranks, atlas.corank)


def test_every_layer_judges_corank_at_the_config_rank_tol(example31, remark_g):
    """One rank tolerance per run: each certificate is judged at
    ``config.rank_tol`` and agrees with the coranks its atlas stored."""
    config = SolverConfig(rank_tol=1e-3)

    def assert_judged_like_the_atlas(cert, atlas):
        assert cert.tolerance == 1e-3
        assert np.array_equal(cert.coranks, atlas.corank)

    # near-collinear demand points: rank 1 at 1e-3, rank 2 at the default
    near = location_pareto_set(LocationInstance([[0, 0], [1, 1], [2, 2 + 1e-5]]), 6, config)
    assert near.atlas.summary.corank_histogram == {1: 28}
    assert near.corank_certificate.max_corank == 1
    assert_judged_like_the_atlas(near.corank_certificate, near.atlas)

    atlas = build_atlas(example31, 10, config)
    assert_judged_like_the_atlas(certify_corank_on_atlas(atlas), atlas)

    atlas = build_atlas(phenotypic_instance(seed=7), 6, config)
    assert_judged_like_the_atlas(certify_corank_on_atlas(atlas), atlas)

    rep = corank2_tracker(remark_g, config=config)
    assert rep.corank == corank_at(remark_g, rep.x_hat, 1e-3) == 2

    sweep = genericity_experiment(example31, 2, 0.1, 6, seed=3, config=config)
    assert sweep.rank_tols == (1e-3,)
    pi = draw_perturbation(3, 3, 3, 0.1)
    trial_atlas = build_atlas(perturb_problem(example31, pi), 6, config)
    assert_judged_like_the_atlas(corank_certificate(sweep.sv[0], 1e-3), trial_atlas)
    assert np.array_equal(sweep.corank[0, 0], trial_atlas.corank)
    with pytest.raises(ValueError, match="rank_tols"):
        genericity_experiment(example31, 2, 0.1, 6, rank_tols=(), config=config)


class TestCokernel:
    def test_basis_at_pinch_origin(self, example31):
        """Left null space of [[0,0,0],[1,1,0],[-1,-1,0]] is
        span{(1,0,0), (0,1,1)}."""
        basis = cokernel_basis(example31, np.zeros(3))
        assert basis.shape == (3, 2)
        target = np.column_stack([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0] / np.sqrt(2.0)])
        # same span: projecting the basis onto the target loses nothing
        proj = target @ (target.T @ basis)
        assert_allclose(proj, basis, atol=1e-12)

    def test_weight_spans_cokernel_at_interior_points(self, example32):
        """img(df) is the orthogonal complement of the weight direction."""
        for w in interior_weights(3, 10, seed=3):
            pt = scalarize(example32, w)
            basis = cokernel_basis(example32, pt.x)
            assert basis.shape == (3, 1)
            w_hat = w / np.linalg.norm(w)
            assert_allclose(abs(basis[:, 0] @ w_hat), 1.0, atol=1e-9)

    def test_alignment_vanishes_only_at_scalarized_minimizers(self, quadratic):
        w = np.array([0.3, 0.3, 0.4])
        pt = scalarize(quadratic, w)
        assert ref_cokernel_alignment(quadratic, pt.x, w) < 1e-9
        assert ref_cokernel_alignment(quadratic, pt.x + 0.5, w) > 0.1

    def test_alignment_accepts_weight_object(self, example32):
        pt = scalarize(example32, np.array([0.5, 0.25, 0.25]))
        assert ref_cokernel_alignment(example32, pt.x, pt.weight) < 1e-9


class _FixedJacobian:
    """Duck problem with constant derivatives, for crafted rank patterns."""

    def __init__(self, jac, hess=None):
        self.jac = np.asarray(jac, dtype=float)
        self.m, self.n = self.jac.shape
        self.hess = (
            np.zeros((self.m, self.n, self.n)) if hess is None else np.asarray(hess)
        )

    def gradients(self, x):
        return self.jac.copy()

    def hessians(self, x):
        return self.hess.copy()


class TestFoldCheck:
    def test_smooth_fixture_folds_at_interior_points(self, example32):
        for w in interior_weights(3, 10, seed=4):
            pt = scalarize(example32, w)
            rep = fold_check(example32, pt.x)
            assert rep.is_fold
            assert rep.lambda_rank == 1  # n - m + 1
            assert rep.direct_sum
            assert rep.kernel_df.shape == (3, 1)
            assert rep.kernel_dlambda.shape == (3, 2)
            assert np.abs(rep.minors).max() < 1e-10  # minors vanish on Crit
            fd = ref_lambda_jacobian(example32, pt.x, rep, 1e-6)
            assert np.abs(rep.lambda_jacobian - fd).max() < 1e-8

    def test_quadratic_pareto_points_are_folds(self):
        problem = random_quadratic(7)
        for w in interior_weights(3, 5, seed=5):
            pt = scalarize(problem, w)
            rep = fold_check(problem, pt.x)
            assert rep.is_fold
            fd = ref_lambda_jacobian(problem, pt.x, rep, 1e-6)
            assert np.abs(rep.lambda_jacobian - fd).max() < 1e-8

    def test_analytic_derivative_matches_finite_differences(self, example32):
        pt = scalarize(example32, np.array([0.5, 0.3, 0.2]))
        rep = fold_check(example32, pt.x)
        fd = ref_lambda_jacobian(example32, pt.x, rep, 1e-5)
        assert np.abs(rep.lambda_jacobian - fd).max() < 1e-8
        assert rep.lambda_jacobian.shape == (1, 3)

    def test_one_svd_of_the_jacobian(self, example32, monkeypatch):
        """The corank, the pivot scale and ker df come from one SVD of J."""
        pt = scalarize(example32, np.array([0.5, 0.3, 0.2]))
        jac = example32.gradients(pt.x)
        svd, inputs = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            inputs.append(np.array(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert fold_check(example32, pt.x).is_fold
        assert sum(np.array_equal(a, jac) for a in inputs) == 1

    def test_rejects_corank_zero(self, quadratic):
        with pytest.raises(NotCorankOne) as err:
            fold_check(quadratic, np.array([5.0, -3.0, 1.0]))
        assert err.value.corank == 0

    def test_rejects_corank_two(self, example31):
        with pytest.raises(NotCorankOne):
            fold_check(example31, np.zeros(3))

    def test_no_regular_minor(self):
        # corank 1, but the first two rows are parallel: every 2x2 leading
        # block formed from them is singular, whatever the variable choice
        jac = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NoRegularMinor):
            fold_check(_FixedJacobian(jac), np.zeros(3))

    def test_pivot_search_prefers_best_conditioned_block(self):
        # rank-2 Jacobian; variables 0 and 2 give the only regular leading block
        jac = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        assert corank_at(_FixedJacobian(jac), np.zeros(3)) == 1
        report = fold_check(_FixedJacobian(jac), np.zeros(3))
        assert report.lead_variables == (0, 2)
        assert report.tail_variables == (1,)
        assert not report.is_fold  # zero Hessians: d(lambda) = 0

    def test_dimension_preconditions(self, example32):
        with pytest.raises(ValueError, match="n >= m"):
            fold_check(_FixedJacobian(np.ones((3, 2))), np.zeros(2))
        with pytest.raises(ValueError, match="two objectives"):
            fold_check(_FixedJacobian(np.ones((1, 3))), np.zeros(3))
