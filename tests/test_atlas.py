"""Grid enumeration, cold grid solves, exports, face and injectivity scans."""
from __future__ import annotations

import csv
import json
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import fd_gradients, fd_hessians, random_quadratic, softplus_problem
from pareto_atlas import (
    DistanceSquared,
    Example32,
    SimplexGrid,
    SolverConfig,
    build_atlas,
    build_problem,
    builtin_problem,
    certify_corank_on_atlas,
    face_consistency,
    injectivity_scan,
    restrict,
    ridge_path,
    scalarize,
)
from pareto_atlas import atlas as atlas_module
from pareto_atlas import solver as solver_module
from pareto_atlas.problems import RidgePair


class TestSimplexGrid:
    @pytest.mark.parametrize("m,r", [(1, 4), (2, 10), (3, 20), (4, 6)])
    def test_node_count(self, m, r):
        grid = SimplexGrid(m, r)
        assert grid.node_count == comb(r + m - 1, m - 1)
        assert grid.nodes.sum(axis=1).tolist() == [r] * grid.node_count

    def test_weights_are_nodes_over_resolution(self):
        grid = SimplexGrid(3, 4)
        assert_allclose(grid.weights, grid.nodes / 4.0)

    def test_nodes_and_weights_are_read_only(self, example32):
        """An atlas and each of its points share the grid's rows."""
        atlas = build_atlas(example32, 2)
        for row in (atlas.grid.nodes[0], atlas.grid.weights[0], atlas.points[0].weight):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 7
        assert atlas.grid.weights[0].tolist() == [0.0, 0.0, 1.0]

    def test_enumeration_is_lexicographic(self):
        grid = SimplexGrid(3, 2)
        expected = [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
        assert [tuple(k) for k in grid.nodes.tolist()] == expected

    def test_face_of_is_support(self):
        grid = SimplexGrid(3, 2)
        faces, which = grid.faces()
        assert [faces[k] for k in which[[0, 1, 3]]] == [(2,), (1, 2), (0, 2)]

    def test_adjacent_moves_have_fixed_length(self):
        grid = SimplexGrid(3, 5)
        for a, b in grid.adjacency:
            assert_allclose(
                np.linalg.norm(grid.weights[a] - grid.weights[b]), np.sqrt(2) / 5
            )

    def test_bfs_reaches_every_node_with_valid_parents(self):
        grid = SimplexGrid(3, 7)
        order, parent = grid.bfs_order()
        assert sorted(order) == list(range(grid.node_count))
        seen = set()
        for i in order:
            p = parent[i]
            assert p == -1 or p in seen
            seen.add(i)

    def test_bfs_starts_at_barycenter_when_on_grid(self):
        grid = SimplexGrid(3, 9)
        order, _ = grid.bfs_order()
        assert_allclose(grid.weights[order[0]], [1 / 3, 1 / 3, 1 / 3])

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SimplexGrid(0, 5)
        with pytest.raises(ValueError):
            SimplexGrid(3, 0)


class TestBuildAtlas:
    def test_matches_independent_cold_solves(self, example32):
        atlas = build_atlas(example32, 6)
        for i, x in enumerate(atlas.x):
            cold = scalarize(example32, atlas.grid.weights[i])
            assert_allclose(x, cold.x, atol=1e-11)

    def test_refinement_agrees_on_shared_nodes(self, example32):
        coarse = build_atlas(example32, 5)
        fine = build_atlas(example32, 10)
        lookup = {tuple(k): i for i, k in enumerate(fine.grid.nodes.tolist())}
        for i, k in enumerate(coarse.grid.nodes.tolist()):
            j = lookup[tuple(2 * v for v in k)]
            assert_allclose(coarse.x[i], fine.x[j], atol=1e-10)

    def test_summary_counts(self, example31):
        atlas = build_atlas(example31, 10)
        s = atlas.summary
        assert s.node_count == 66
        assert sum(s.corank_histogram.values()) == 66
        assert s.corank_histogram[2] == 6  # the w2 = w3 grid line
        assert s.max_kkt_residual <= 1e-10
        assert s.dominance_violations == 0
        assert s.min_pairwise_x_distance <= 1e-12  # collapsed diagonal
        assert s.unconverged == 0

    def test_budget_exhaustion_is_recorded_not_raised(self):
        problem = build_problem(DistanceSquared(np.array([[5.0, 5.0], [6.0, 5.0]])))
        atlas = build_atlas(problem, 4, SolverConfig(max_iter=0))
        assert atlas.failures == list(range(atlas.grid.node_count))
        assert not atlas.converged.any()
        assert (atlas.corank == -1).all()
        assert atlas.summary.unconverged == atlas.grid.node_count


class TestNonQuadraticFamily:
    """A family whose Hessians vary with x, so nodes need several Newton steps."""

    def test_test_family_derivatives(self, rng):
        problem = softplus_problem()
        for _ in range(3):
            x = rng.normal(size=problem.n)
            assert_allclose(problem.gradients(x), fd_gradients(problem, x), rtol=1e-6, atol=1e-6)
            assert_allclose(problem.hessians(x), fd_hessians(problem, x), rtol=1e-6, atol=1e-6)

    @staticmethod
    def assert_nodes_match_single_solves(problem, atlas, config):
        """Each converged node is what it would be if solved on its own, cold."""
        for i in np.flatnonzero(atlas.converged):
            alone = scalarize(problem, atlas.grid.weights[i], config)
            assert atlas.iterations[i] == alone.iterations
            assert np.array_equal(atlas.x[i], alone.x)

    def test_atlas_matches_single_node_solves(self):
        problem = softplus_problem()
        atlas = build_atlas(problem, 10)
        assert atlas.failures == []
        assert atlas.converged.all() and atlas.iterations.max() > 1
        self.assert_nodes_match_single_solves(problem, atlas, atlas.config)
        for w, x, tol in zip(atlas.grid.weights, atlas.x, atlas.grad_tol):
            assert np.linalg.norm(w @ problem.gradients(x)) <= tol

    def test_unconverged_node_does_not_disturb_the_others(self):
        problem = softplus_problem()
        config = SolverConfig(max_iter=2)
        atlas = build_atlas(problem, 10, config)
        assert 0 < len(atlas.failures) < atlas.grid.node_count
        failed = atlas.failures
        assert failed == np.flatnonzero(~atlas.converged).tolist()
        assert (atlas.corank[failed] == -1).all() and (atlas.iterations[failed] == 2).all()
        assert (atlas.residual[failed] > atlas.grad_tol[failed]).all()
        self.assert_nodes_match_single_solves(problem, atlas, config)


class TestExports:
    def test_csv_schema_and_values(self, example32, tmp_path):
        atlas = build_atlas(example32, 4)
        path = tmp_path / "atlas.csv"
        atlas.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "w_1", "w_2", "w_3", "x_1", "x_2", "x_3", "f_1", "f_2", "f_3",
            "kkt_residual", "corank", "face",
        ]
        assert len(rows) == 1 + atlas.grid.node_count
        first = rows[1]
        assert_allclose([float(v) for v in first[:3]], atlas.grid.weights[0])
        assert_allclose([float(v) for v in first[3:6]], atlas.x[0])
        assert first[-1] == "3"  # vertex face, 1-based
        # full-precision round trip
        assert float(first[3]) == atlas.x[0, 0]

    def test_json_schema_and_values(self, example32, tmp_path):
        atlas = build_atlas(example32, 4)
        path = tmp_path / "atlas.json"
        atlas.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "pareto-atlas/atlas-v1"
        assert doc["family"] == "example32"
        assert doc["n"] == 3 and doc["m"] == 3 and doc["resolution"] == 4
        assert len(doc["nodes"]) == atlas.grid.node_count
        node = doc["nodes"][1]
        assert node["face"] == [2, 3]
        assert_allclose(node["x"], atlas.x[1])
        assert set(node) >= {"w", "f", "kkt_residual", "singular_values",
                             "corank", "converged"}
        assert doc["summary"]["dominance_violations"] == 0


def far_points_problem():
    """Squared distances to three points near 1e6 in R^4: the solver's
    tolerance scales with the gradient at the origin, so the residuals are
    about 1e-10 and dominate the face bound."""
    points = 1e6 + np.random.default_rng(0).standard_normal((3, 4))
    return build_problem(DistanceSquared(points))


def boundary_nodes(atlas) -> list[int]:
    return np.flatnonzero((atlas.grid.nodes == 0).any(axis=1)).tolist()


class TestFaceConsistency:
    def test_consistent_on_smooth_fixture(self, example32):
        atlas = build_atlas(example32, 8)
        report = face_consistency(atlas)
        assert report.consistent
        assert report.checked == 24  # 3 * r boundary nodes at m = 3
        assert report.max_discrepancy <= report.tolerance
        assert report.unjudged == []

    def test_face_nesting_against_subproblem_atlases(self, example32):
        """Boundary slices of the full atlas reproduce the subproblem atlases."""
        r = 8
        atlas = build_atlas(example32, r)
        lookup = {tuple(k): i for i, k in enumerate(atlas.grid.nodes.tolist())}
        for face in [(0, 1), (0, 2), (1, 2)]:
            sub_atlas = build_atlas(restrict(example32, face), r)
            for i, k in enumerate(sub_atlas.grid.nodes.tolist()):
                embedded = [0, 0, 0]
                for axis, v in zip(face, k):
                    embedded[axis] = v
                j = lookup[tuple(embedded)]
                assert_allclose(sub_atlas.x[i], atlas.x[j], atol=1e-10)

    def test_runs_no_solver(self, example32, monkeypatch):
        atlas = build_atlas(example32, 8)

        def refuse(*args, **kwargs):
            raise AssertionError("a Newton solve ran")

        monkeypatch.setattr(atlas_module, "solve_grid", refuse)
        monkeypatch.setattr(solver_module, "minimize_weighted", refuse)
        assert face_consistency(atlas).checked == 24

    @pytest.mark.parametrize("problem, r", [(softplus_problem(), 8), (far_points_problem(), 20)],
                             ids=["softplus", "far-points"])
    def test_bound_needs_the_residual_term(self, problem, r):
        """At the node nearest its bound, the rounding term alone is far too small."""
        atlas = build_atlas(problem, r)
        report = face_consistency(atlas)
        assert report.consistent
        assert report.tolerance < 1e-9  # the 10x gradient tolerance gave 4e-3 at 1e6
        sv = atlas.sv[report.worst_node]
        assert report.max_discrepancy > 1e3 * 3 * np.finfo(float).eps * sv[0] / sv[1]

    def test_bound_needs_the_rounding_term(self, example32):
        """The vertex w = e_2 has a computed residual of exactly 0, but the
        exact J(x)^T w at the stored x, in rational arithmetic, is 2.4e-16:
        the rounding term of its bound covers it.  The verdict rests on the
        stored residuals, not on ``grad_tol``: an atlas held to a zero
        tolerance and stopped after three steps passes."""
        atlas = build_atlas(example32, 8)
        k = 8  # w = (0, 1, 0)
        assert atlas.grid.nodes[k].tolist() == [0, 8, 0] and atlas.residual[k] == 0.0
        quad, x = Example32._quadratic, atlas.x[k]
        grad = [sum(Fraction(q) * Fraction(v) for q, v in zip(row, x)) + Fraction(b)
                for row, b in zip(quad.qs[1], quad.bs[1])]
        exact = float(sum(g * g for g in grad)) ** 0.5
        assert exact > 2e-16 and np.linalg.norm(example32.gradients(x)[1]) == 0.0
        # rho_k is 0 there, so the node's gap is its rounding term m eps sigma_1 / sigma
        assert exact <= 3 * np.finfo(float).eps * atlas.sv[k, 0]
        assert face_consistency(atlas).consistent

        strict = build_atlas(example32, 8, SolverConfig(grad_tol=0.0, max_iter=3))
        assert strict.failures and strict.residual.max() > 0.0
        assert face_consistency(strict).consistent

    @pytest.mark.parametrize("problem, r", [(softplus_problem(), 8), (far_points_problem(), 20)],
                             ids=["softplus", "far-points"])
    def test_moving_a_boundary_node_fails(self, problem, r):
        """Three bounds' length towards the interior neighbour moves the
        node's Jacobian weight off the face by more than its bound."""
        atlas = build_atlas(problem, r)
        report = face_consistency(atlas)
        k = report.worst_node
        support = atlas.grid.nodes > 0
        adj = atlas.grid.adjacency
        partners = np.sort(np.concatenate([adj[adj[:, 0] == k, 1], adj[adj[:, 1] == k, 0]]))
        inner = next(j for j in partners.tolist() if support[j].sum() > support[k].sum())
        step = atlas.x[inner] - atlas.x[k]
        atlas.x[k] += 3.0 * report.tolerance * step / np.linalg.norm(step)
        moved = face_consistency(atlas)
        assert not moved.consistent
        assert moved.worst_node == k
        assert moved.max_discrepancy > moved.tolerance

    @pytest.mark.parametrize("name", ["example31", "remark_g"])
    def test_rank_deficient_nodes_are_listed_not_judged(self, name):
        """The boundary nodes below rank m - 1 are the corank certificate's
        boundary witnesses; every other boundary node is judged."""
        atlas = build_atlas(builtin_problem(name), 20)
        report = face_consistency(atlas)
        boundary = boundary_nodes(atlas)
        witnesses = certify_corank_on_atlas(atlas).witnesses
        assert report.consistent
        assert report.unjudged == [i for i in witnesses if i in boundary]
        assert len(report.unjudged) == 2
        assert report.checked + len(report.unjudged) == len(boundary)

    def test_nothing_to_judge_beyond_n_plus_one_objectives(self):
        """With m > n + 1 no Jacobian reaches rank m - 1."""
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        atlas = build_atlas(build_problem(DistanceSquared(corners)), 4)
        report = face_consistency(atlas)
        assert (report.consistent, report.checked, report.worst_node) == (True, 0, None)
        assert report.unjudged == boundary_nodes(atlas)


class TestBoundedMemory:
    """Every batched Newton solve goes through ``solve_grid``, so its peak
    memory follows ``BLOCK_ENTRIES``, not the number of rows."""

    @staticmethod
    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ridge_path_peak_does_not_grow_with_the_resolution(self):
        gen = np.random.default_rng(0)
        pair = RidgePair(gen.normal(size=(80, 60)), gen.normal(size=80), 0.1)
        small, large = (self.peak(lambda: ridge_path(pair, r)) for r in (250, 1000))
        assert large < 1.25 * small  # in one batch, about 4x


class TestInjectivity:
    def test_pinch_family_is_non_injective_on_the_diagonal(self, example31):
        atlas = build_atlas(example31, 10)
        report = injectivity_scan(atlas)
        assert not report.injective_on_sample
        assert report.collapsed_pairs
        for a, b in report.collapsed_pairs:
            wa, wb = atlas.grid.weights[a], atlas.grid.weights[b]
            assert wa[1] == wa[2] and wb[1] == wb[2]

    def test_perturbed_pinch_is_injective(self, example31_perturbed):
        atlas = build_atlas(example31_perturbed, 10)
        assert injectivity_scan(atlas).injective_on_sample

    def test_smooth_fixture_is_injective(self, example32):
        atlas = build_atlas(example32, 10)
        report = injectivity_scan(atlas)
        assert report.injective_on_sample
        assert report.collapsed_pairs == []


def test_nondomination_across_random_quadratics():
    for seed in range(5):
        atlas = build_atlas(random_quadratic(seed), 6)
        assert atlas.summary.dominance_violations == 0
