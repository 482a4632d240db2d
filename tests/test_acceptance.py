"""Acceptance suite: one test per shipped guarantee, pinned tolerances.

Each test prints as a single pass/fail line in the terminal summary (see
conftest).  Criteria cover the closed-form oracle, degenerate and perturbed
fixtures, the derivative formula, KKT and ordering invariants, the location
and ridge applications, genericity sweeps, corank-2 persistence, stability,
and the cross-cutting property bundle.
"""
from __future__ import annotations

import numpy as np
from numpy.testing import assert_allclose
from scipy.linalg import subspace_angles

from conftest import (
    fd_gradients,
    fd_hessians,
    fixture_problems,
    interior_weights,
    random_quadratic,
    ridge_instance,
)
from pareto_atlas import (
    LocationInstance,
    SimplexGrid,
    build_atlas,
    builtin_problem,
    cokernel_basis,
    corank2_tracker,
    corank_at,
    draw_perturbation,
    face_consistency,
    genericity_experiment,
    injectivity_scan,
    location_pareto_set,
    minimize_weighted,
    ridge_path,
    scalarize,
    serialize_problem,
    stability_experiment,
    x_star_derivative,
)
from pareto_atlas.cli import main
from test_reference import ref_cokernel_alignment, ref_fold_check


def test_c01_closed_form_minimizer_on_fifty_grid_weights():
    """Solver output matches (-d/2, -d/(2(1+w3)), 0), d = w2 - w3, to 1e-8."""
    problem = builtin_problem("example31")
    grid = SimplexGrid(3, 20)
    picks = np.random.default_rng(0).choice(grid.node_count, size=50, replace=False)
    worst = 0.0
    for idx in picks:
        w = grid.weights[idx]
        pt = scalarize(problem, w)
        expected = problem.minimizer(w[1], w[2])
        worst = max(worst, float(np.abs(pt.x - expected).max()))
    assert worst <= 1e-8


def test_c02_diagonal_collapse_and_corank_two_at_origin():
    """The w2 = w3 diagonal lands within 1e-7 of the origin, the scan flags
    non-injectivity, and the origin is a corank-2 point."""
    problem = builtin_problem("example31")
    atlas = build_atlas(problem, 20)
    nodes = atlas.grid.nodes
    diagonal = np.flatnonzero(nodes[:, 1] == nodes[:, 2])
    assert diagonal.size == 11
    for idx in diagonal:
        assert np.linalg.norm(atlas.x[idx]) <= 1e-7
    assert not injectivity_scan(atlas).injective_on_sample
    assert corank_at(problem, np.zeros(3)) == 2
    assert atlas.corank[diagonal].max() == 2


def test_c03_perturbed_family_verifies_clean_at_three_epsilons():
    """verify exits 0 for epsilon in {0.01, 0.1, 1} at resolution 20."""
    for eps in ("0.01", "0.1", "1"):
        code = main(
            ["verify", "--builtin", "example31_perturbed", "--epsilon", eps,
             "--resolution", "20"]
        )
        assert code == 0, f"verify failed for epsilon={eps}"


def test_c04_fold_family_verifies_and_folds_at_twenty_interior_points(capsys):
    """verify exits 0 on the corank-free fixture; the fold criterion holds at
    20 interior Pareto points."""
    assert main(["verify", "--builtin", "example32", "--resolution", "20"]) == 0
    capsys.readouterr()
    problem = builtin_problem("example32")
    for w in interior_weights(3, 20, seed=11):
        pt = scalarize(problem, w)
        report = ref_fold_check(problem, pt.x)
        assert report.is_fold, f"not a fold at w={w}"


def _chart_derivative_fd(problem, w, h=1e-5):
    """Central differences of w -> x*(w) in the chart z = (w_1..w_{m-1})."""
    w = np.asarray(w, dtype=float)
    out = np.empty((problem.n, w.size - 1))
    for j in range(w.size - 1):
        hi, lo = w.copy(), w.copy()
        hi[j] += h
        hi[-1] -= h
        lo[j] -= h
        lo[-1] += h
        out[:, j] = (scalarize(problem, hi).x - scalarize(problem, lo).x) / (2 * h)
    return out


def test_c05_analytic_derivative_matches_finite_differences():
    """x* derivative vs central differences (step 1e-5): relative error at
    most 1e-6 on the pinch family (off the diagonal), the fold family, and a
    random quadratic family."""
    cases = [
        (builtin_problem("example31"),
         [np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3]),
          np.array([0.6, 0.1, 0.3])]),
        (builtin_problem("example32"), list(interior_weights(3, 5, seed=3))),
        (random_quadratic(21), list(interior_weights(3, 5, seed=4))),
    ]
    for problem, weights in cases:
        for w in weights:
            pt = scalarize(problem, w)
            analytic = x_star_derivative(problem, pt)
            fd = _chart_derivative_fd(problem, w)
            err = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(fd))
            assert err <= 1e-6, f"derivative mismatch {err:g} at w={w}"


def test_c06_kkt_residual_and_nondomination_on_every_fixture():
    """Every atlas point of every fixture family satisfies the stationarity
    residual bound 1e-10 and the node values are mutually non-dominated."""
    resolution = {1: 6, 2: 16, 3: 8, 4: 6}
    for name, problem in fixture_problems():
        atlas = build_atlas(problem, resolution[problem.m])
        s = atlas.summary
        assert s.unconverged == 0, name
        assert s.max_kkt_residual <= 1e-10, f"{name}: {s.max_kkt_residual:g}"
        assert s.dominance_violations == 0, name


def test_c07_location_atlas_is_the_barycentric_hull(tmp_path, capsys):
    """Three general-position demand points: atlas equals the barycenter map
    to 1e-8, hull membership is total, and verify exits 0."""
    instance = LocationInstance(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    report = location_pareto_set(instance, resolution=20)
    assert report.general_position
    assert report.max_barycentric_error <= 1e-8
    assert report.max_hull_violation <= 1e-9
    path = tmp_path / "location.json"
    path.write_text(serialize_problem(report.atlas.problem))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


def test_c08_ridge_path_matches_normal_equations_at_hundred_weights():
    """Seeded 20x5 ridge instance: theta*(w) tracks the oracle with
    lambda = mu + w2/w1 to 1e-8 at 100 weights; endpoints give the
    lambda = mu solution and theta = 0."""
    instance = ridge_instance(seed=42, n_obs=20, p=5, mu=0.1)
    report = ridge_path(instance, resolution=100)
    assert len(report.lam) - 1 == 100  # interior rows, then the w1 = 0 vertex
    assert report.oracle_gap[:-1].max() <= 1e-8
    assert report.lam[0] == instance.mu
    xtx = instance.x_data.T @ instance.x_data
    xty = instance.x_data.T @ instance.y_data
    base = np.linalg.solve(xtx + instance.mu * np.eye(5), xty)
    assert_allclose(report.theta[0], base, atol=1e-8)
    assert report.lam[-1] == np.inf
    assert np.linalg.norm(report.theta[-1]) <= 1e-8


def test_c09_genericity_under_twenty_seeded_perturbations():
    """20 perturbations at scale 0.1, resolution 20: zero corank-2 witnesses
    at rank tolerances 1e-7, 1e-8, 1e-9, all agreeing."""
    problem = builtin_problem("example31")
    report = genericity_experiment(
        problem, trials=20, scale=0.1, resolution=20,
        rank_tols=(1e-7, 1e-8, 1e-9), seed=0,
    )
    verdicts = [report.corank2_trials(tol) for tol in (1e-7, 1e-8, 1e-9)]
    assert all(v == [] for v in verdicts)
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert not any(report.corank2_trials(tol) for tol in (1e-7, 1e-8, 1e-9))


def test_c10_corank_two_point_persists_under_perturbation():
    """Tracking the doubly degenerate point across 10 seeded perturbations at
    scale 1e-3: root residual at most 1e-10, corank 2, cokernel meeting the
    open simplex each trial; at zero perturbation the cokernel matches
    span{(1,0,1,0), (0,1,0,1)} to 1e-10."""
    problem = builtin_problem("remark_g")
    for seed in range(10):
        pi = draw_perturbation(4, 4, seed=seed, scale=1e-3)
        rep = corank2_tracker(problem, pi)
        assert rep.e_norm <= 1e-10, f"seed {seed}: |E| = {rep.e_norm:g}"
        assert rep.corank == 2, f"seed {seed}"
        assert rep.meets_simplex_interior, f"seed {seed}"
    base = corank2_tracker(problem)
    target = np.column_stack([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    distance = np.max(np.sin(subspace_angles(base.cokernel, target)))
    assert distance <= 1e-10


def test_c11_displacement_table_decreases_with_scale():
    """Sup displacement over scales {1e-1, 1e-2, 1e-3} is decreasing and the
    smallest entry is at most 1e-2."""
    problem = builtin_problem("example32")
    report = stability_experiment(
        problem, scales=[1e-1, 1e-2, 1e-3], resolution=10, seed=0
    )
    sups = report.sup_displacement
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 1e-2


def test_c12_property_bundle_on_all_fixtures():
    """Finite-difference derivative checks, warm-start independence,
    refinement stability, face nesting, the rank m-1 bound, and cokernel
    alignment with the weight, across the built-in fixture families."""
    rng = np.random.default_rng(99)
    builtins = [builtin_problem(name) for name in
                ("example31", "example31_perturbed", "example32", "remark_g")]

    # analytic derivatives agree with central differences
    for problem in builtins:
        for _ in range(3):
            x = rng.normal(size=problem.n)
            assert_allclose(problem.gradients(x), fd_gradients(problem, x),
                            rtol=1e-6, atol=1e-7)
            assert_allclose(problem.hessians(x), fd_hessians(problem, x),
                            rtol=1e-6, atol=1e-6)

    # the minimizer does not depend on the starting point
    for problem in builtins:
        w = np.full(problem.m, 1.0 / problem.m)
        cold = scalarize(problem, w).x
        warm = minimize_weighted(problem, w[None], x0=5.0 * np.ones(problem.n)).x[0]
        assert np.linalg.norm(cold - warm) <= 1e-9

    # halving the grid step keeps shared nodes fixed
    problem = builtin_problem("example32")
    coarse = build_atlas(problem, 5)
    fine = build_atlas(problem, 10)
    fine_index = {tuple(node): i for i, node in enumerate(fine.grid.nodes)}
    for i, node in enumerate(coarse.grid.nodes):
        j = fine_index[tuple(2 * node)]
        assert np.linalg.norm(coarse.x[i] - fine.x[j]) <= 1e-10

    # boundary nodes agree with the subproblem restricted to their face
    for problem in builtins:
        atlas = build_atlas(problem, 6)
        faces = face_consistency(atlas)
        assert faces.consistent, problem.tag

    # rank of the objective Jacobian drops to m-1 at Pareto points
    resolution = {1: 6, 2: 16, 3: 8, 4: 6}
    for name, problem in fixture_problems():
        if problem.n < problem.m:
            continue
        atlas = build_atlas(problem, resolution[problem.m])
        for sv in atlas.sv:
            assert sv[problem.m - 1] <= 1e-8 * max(sv[0], 1.0), name

    # at interior corank-1 points the cokernel is exactly the weight line
    for problem in (builtin_problem("example32"), random_quadratic(13)):
        for w in interior_weights(problem.m, 5, seed=17):
            pt = scalarize(problem, w)
            assert pt.corank == 1
            assert ref_cokernel_alignment(problem, pt.x, w) <= 1e-8
            u = cokernel_basis(problem, pt.x)[:, 0]
            w_hat = w / np.linalg.norm(w)
            assert abs(float(u @ w_hat)) >= 1.0 - 1e-8
