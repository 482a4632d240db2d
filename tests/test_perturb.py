"""Seeded perturbations: genericity sweeps, corank-2 tracking, stability."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import subspace_angles

from conftest import fd_gradients
from pareto_atlas import (
    SolverConfig,
    SolverError,
    build_atlas,
    certify_corank_on_atlas,
    corank2_system,
    corank2_tracker,
    draw_perturbation,
    genericity_experiment,
    perturb,
    perturb_problem,
    stability_experiment,
)
from pareto_atlas.perturb import DBlockSingular, TrackerDiverged


class TestLinearPerturbation:
    def test_draw_is_deterministic(self):
        a = draw_perturbation(3, 2, seed=11, scale=0.5)
        b = draw_perturbation(3, 2, seed=11, scale=0.5)
        assert np.array_equal(a, b)
        assert a.shape == (2, 3)
        assert np.abs(a).max() <= 0.5

    def test_same_seed_scales_linearly(self):
        big = draw_perturbation(3, 3, seed=4, scale=0.1)
        small = draw_perturbation(3, 3, seed=4, scale=0.001)
        assert_allclose(big, 100.0 * small, rtol=1e-12)

    def test_zero(self):
        # every entry +0.0, so a scale-0 draw prints as 0.0, never -0.0
        z = draw_perturbation(3, 2, seed=7, scale=0.0)
        assert z.shape == (2, 3)
        assert not z.any()
        assert not np.signbit(z).any()

    def test_negative_zero_draws_like_zero_and_a_negative_scale_is_named(self):
        assert np.array_equal(draw_perturbation(3, 2, seed=7, scale=-0.0), np.zeros((2, 3)))
        assert not np.signbit(draw_perturbation(3, 2, seed=7, scale=-0.0)).any()
        with pytest.raises(ValueError, match="scale -0.1 is negative"):
            draw_perturbation(3, 2, seed=7, scale=-0.1)

    def test_nan_scale_is_named(self):
        with pytest.raises(ValueError, match="scale nan is not finite"):
            draw_perturbation(2, 2, 0, np.nan)

    def test_infinite_scale_is_named(self):
        with pytest.raises(ValueError, match="scale inf is not finite"):
            draw_perturbation(2, 2, 0, np.inf)


class TestPerturbedProblem:
    def test_offsets_gradients_by_constant(self, example31, rng):
        pi = draw_perturbation(3, 3, seed=0, scale=0.2)
        target = perturb_problem(example31, pi)
        for _ in range(3):
            x = rng.normal(size=3)
            assert_allclose(
                target.values(x), example31.values(x) + pi @ x, rtol=1e-14
            )
            assert_allclose(target.gradients(x), example31.gradients(x) + pi)
            assert_allclose(target.hessians(x), example31.hessians(x))
            assert_allclose(target.gradients(x), fd_gradients(target, x),
                            rtol=1e-6, atol=1e-6)

    def test_evaluate_composes(self, example32, rng):
        pi = draw_perturbation(3, 3, seed=1, scale=0.1)
        target = perturb_problem(example32, pi)
        xs = rng.normal(size=(4, 3))
        f, g, h = target.evaluate(xs)
        base_f, base_g, base_h = example32.evaluate(xs)
        assert_allclose(f, base_f + xs @ pi.T, rtol=1e-14)
        assert_allclose(g, base_g + pi, rtol=1e-14)
        assert h is base_h or np.array_equal(h, base_h)
        assert h.shape == (1, 3, 3, 3)  # constant Hessians stay unstacked

    def test_shape_mismatch_rejected(self, example31):
        with pytest.raises(ValueError, match="shape"):
            perturb_problem(example31, np.zeros((3, 4)))


class TestGenericity:
    def test_perturbed_pinch_is_simplicial(self, example31):
        report = genericity_experiment(
            example31, trials=4, scale=0.1, resolution=8,
            rank_tols=(1e-7, 1e-8, 1e-9), seed=0,
        )
        for tol in (1e-7, 1e-8, 1e-9):
            assert report.corank2_trials(tol) == []
        assert [row["seed"] for row in report.as_dict()["results"]] == [0, 1, 2, 3]

    def test_zero_scale_detects_the_degenerate_point(self, example31):
        # scale 0 leaves the problem unperturbed; the pinch stays visible
        report = genericity_experiment(
            example31, trials=1, scale=0.0, resolution=8, seed=0
        )
        assert report.corank2_trials(1e-8) == [0]

    def test_repeated_rank_tols_are_swept_once(self, example31):
        report = genericity_experiment(example31, 1, 0.1, 4, rank_tols=(0.1, 1e-8, 0.1))
        assert report.rank_tols == (0.1, 1e-8)
        assert report.corank.shape[0] == 2
        assert list(report.as_dict()["corank2_trials"]) == ["0.1", "1e-08"]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_an_empty_sweep(self, example31, trials):
        with pytest.raises(ValueError, match="trials"):
            genericity_experiment(example31, trials, 0.1, 5)

    def test_max_kkt_residual_is_the_worst_node(self, example31):
        report = genericity_experiment(example31, 2, 0.1, 6, seed=2)
        for t, row in enumerate(report.as_dict()["results"]):
            pi = draw_perturbation(3, 3, 2 + t, 0.1)
            atlas = build_atlas(perturb_problem(example31, pi), 6)
            assert row["max_kkt_residual"] == atlas.summary.max_kkt_residual

    def test_report_dict_is_json_ready(self, example31):
        import json

        report = genericity_experiment(example31, 2, 0.1, 5, seed=0)
        doc = report.as_dict()
        json.dumps(doc)
        assert doc["schema"] == "pareto-atlas/genericity-v1"
        assert len(doc["results"]) == 2


class TestCorank2System:
    def test_frozen_derivative_blocks_at_origin(self, remark_g):
        """E(0) = 0 and the four partial derivative blocks of the Schur
        complement at the origin."""
        e, de = corank2_system(remark_g, np.zeros(4))
        assert_allclose(e, np.zeros((2, 2)), atol=0.0)
        assert_allclose(de[0], [[4.0, 2.0], [0.0, 0.0]], atol=1e-14)
        assert_allclose(de[1], [[0.0, 0.0], [2.0, 4.0]], atol=1e-14)
        assert_allclose(de[2], [[0.0, 0.0], [2.0, 1.0]], atol=1e-14)
        assert_allclose(de[3], [[1.0, 2.0], [0.0, 0.0]], atol=1e-14)

    def test_derivative_matches_finite_differences(self, remark_g, rng):
        x = 0.1 * rng.normal(size=4)
        _, de = corank2_system(remark_g, x)
        h = 1e-6
        for l in range(4):
            step = np.zeros(4)
            step[l] = h
            hi, _ = corank2_system(remark_g, x + step)
            lo, _ = corank2_system(remark_g, x - step)
            assert_allclose(de[l], (hi - lo) / (2.0 * h), rtol=1e-6, atol=1e-7)

    def test_requires_square_four_mapping(self, example32):
        with pytest.raises(ValueError, match="4 -> 4"):
            corank2_system(example32, np.zeros(3))

    def test_singular_d_block(self):
        class Degenerate:
            n = m = 4

            def gradients(self, x):
                jac = np.eye(4)
                jac[2, 2] = jac[3, 3] = 0.0  # D block of the transpose is zero
                return jac

            def hessians(self, x):
                return np.zeros((4, 4, 4))

        with pytest.raises(DBlockSingular):
            corank2_system(Degenerate(), np.zeros(4))


class TestTracker:
    def test_unperturbed_root_is_the_origin(self, remark_g):
        rep = corank2_tracker(remark_g)
        assert_allclose(rep.x_hat, np.zeros(4), atol=0.0)
        assert rep.e_norm == 0.0
        assert rep.iterations == 0
        assert rep.corank == 2
        assert rep.perturbation.shape == (4, 4) and not rep.perturbation.any()

    def test_unperturbed_cokernel_subspace(self, remark_g):
        rep = corank2_tracker(remark_g)
        target = np.column_stack([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        angles = subspace_angles(rep.cokernel, target)
        assert np.max(np.sin(angles)) <= 1e-12

    def test_unperturbed_interior_witness(self, remark_g):
        rep = corank2_tracker(remark_g)
        assert rep.meets_simplex_interior
        assert_allclose(rep.interior_margin, 0.25, atol=1e-9)
        assert_allclose(rep.interior_witness, np.full(4, 0.25), atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_root_tracks_continuously(self, remark_g, seed):
        pi = draw_perturbation(4, 4, seed=seed, scale=1e-3)
        rep = corank2_tracker(remark_g, pi)
        assert np.array_equal(rep.perturbation, pi)
        assert rep.e_norm <= 1e-12
        assert rep.corank == 2
        assert rep.cokernel.shape == (4, 2)
        assert rep.meets_simplex_interior
        assert np.linalg.norm(rep.x_hat) < 0.01  # stays near the origin
        witness = rep.interior_witness
        assert_allclose(witness.sum(), 1.0, atol=1e-9)
        assert witness.min() > 0.1

    def test_shrinking_scale_shrinks_the_root(self, remark_g):
        norms = []
        for scale in (1e-2, 1e-3, 1e-4):
            rep = corank2_tracker(remark_g, draw_perturbation(4, 4, seed=9, scale=scale))
            norms.append(np.linalg.norm(rep.x_hat))
        assert norms[0] > norms[1] > norms[2]

    def test_budget_exhaustion_raises(self, remark_g):
        pi = draw_perturbation(4, 4, seed=0, scale=1e-3)
        with pytest.raises(TrackerDiverged, match="no root"):
            corank2_tracker(remark_g, pi, SolverConfig(max_iter=0))

    def test_singular_reduced_newton_system_raises(self, remark_g, monkeypatch):
        monkeypatch.setattr(perturb, "corank2_system",
                            lambda problem, x: (np.ones((2, 2)), np.zeros((4, 2, 2))))
        with pytest.raises(TrackerDiverged, match="reduced Newton system singular"):
            corank2_tracker(remark_g)

    def test_tracker_errors_are_solver_errors(self):
        """The CLI maps every SolverError, and so both of these, to exit 3."""
        assert issubclass(TrackerDiverged, SolverError)
        assert issubclass(DBlockSingular, SolverError)

    def test_cokernel_summing_to_zero_misses_the_simplex(self):
        """No combination of a column summing to 0 has coordinates summing
        to 1, so the LP is infeasible."""
        cok = np.array([[1.0], [-1.0], [0.0], [0.0]]) / np.sqrt(2.0)
        assert perturb._interior_intersection(cok) == (False, -np.inf, None)


class TestStability:
    def test_displacement_decreases_and_scales_linearly(self, example32):
        report = stability_experiment(
            example32, scales=[0.1, 0.01, 0.001], resolution=6, seed=0
        )
        sups = report.sup_displacement
        assert sups[0] > sups[1] > sups[2]
        # one direction, shrunk: displacement is asymptotically linear in scale
        assert_allclose(sups[1] / sups[0], 0.1, rtol=1e-2)
        assert_allclose(sups[2] / sups[1], 0.1, rtol=1e-2)

    def test_zero_scale_leaves_points_fixed(self, example32):
        report = stability_experiment(example32, scales=[0.0], resolution=5, seed=0)
        assert report.sup_displacement[0] == 0.0

    def test_report_dict(self, example32):
        import json

        report = stability_experiment(example32, scales=[0.01], resolution=4, seed=1)
        doc = report.as_dict()
        json.dumps(doc)
        assert doc["schema"] == "pareto-atlas/stability-v1"
        assert doc["rows"][0]["scale"] == 0.01
