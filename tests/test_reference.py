"""The array-built grid and the O(N)-memory certificates against the plain
loop and dense-matrix implementations they replaced, kept here as references."""
from __future__ import annotations

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import fixture_problems, interior_weights, softplus_problem
from pareto_atlas import (
    GenericQuadratic,
    LinearPerturbation,
    SimplexGrid,
    SolverConfig,
    build_atlas,
    build_problem,
    builtin_problem,
    certify_corank_on_atlas,
    dominating_pairs,
    genericity_experiment,
    injectivity_scan,
    minimize_weighted,
    perturb_problem,
    stability_experiment,
)
from pareto_atlas.solver import row_norms

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def ref_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in ref_compositions(total - head, parts - 1):
            yield (head,) + rest


class RefGrid:
    """Node list, neighbours, adjacency and BFS by dictionary lookups."""

    def __init__(self, m: int, resolution: int):
        self.m = m
        self.nodes = np.array(list(ref_compositions(resolution, m)), dtype=int)
        self.weights = self.nodes / float(resolution)
        self.index = {tuple(k): i for i, k in enumerate(self.nodes.tolist())}

    def neighbors(self, i: int) -> list[int]:
        k = self.nodes[i]
        out = []
        for a in range(self.m):
            if k[a] == 0:
                continue
            for b in range(self.m):
                if b == a:
                    continue
                moved = k.copy()
                moved[a] -= 1
                moved[b] += 1
                out.append(self.index[tuple(moved.tolist())])
        return sorted(set(out))

    def adjacency(self) -> list[tuple[int, int]]:
        pairs = set()
        for i in range(len(self.nodes)):
            for j in self.neighbors(i):
                pairs.add((min(i, j), max(i, j)))
        return sorted(pairs)

    def bfs_order(self) -> tuple[list[int], dict[int, int]]:
        center = np.full(self.m, 1.0 / self.m)
        start = int(np.argmin(np.linalg.norm(self.weights - center, axis=1)))
        order, parent = [], {start: -1}
        queue = deque([start])
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in self.neighbors(i):
                if j not in parent:
                    parent[j] = i
                    queue.append(j)
        return order, parent


def ref_dominating_pairs(values, tol: float = 1e-9) -> list[tuple[int, int]]:
    f = np.asarray(values, dtype=float)
    le = np.all(f[:, None, :] <= f[None, :, :] + tol, axis=2)
    lt = np.any(f[:, None, :] < f[None, :, :] - tol, axis=2)
    dom = le & lt
    np.fill_diagonal(dom, False)
    rows, cols = np.nonzero(dom)
    return list(zip(rows.tolist(), cols.tolist()))


def ref_distances(atlas) -> tuple[float, float]:
    """(min pairwise, max adjacent) minimizer distance from a dense matrix."""
    xs = atlas.x_array()
    dx = cdist(xs, xs)
    np.fill_diagonal(dx, np.inf)
    min_pair = float(dx.min()) if atlas.grid.node_count > 1 else np.inf
    grid = RefGrid(atlas.grid.m, atlas.grid.resolution)
    max_adj = max((float(np.linalg.norm(xs[a] - xs[b])) for a, b in grid.adjacency()),
                  default=0.0)
    return min_pair, max_adj


def ref_collapsed_pairs(atlas, collapse_tol: float = 1e-6) -> list[tuple[int, int]]:
    xs = atlas.x_array()
    ws = atlas.grid.weights
    threshold = 2.0 * atlas.grid.step * (1.0 + 1e-9)
    mask = np.triu((cdist(xs, xs) <= collapse_tol) & (cdist(ws, ws) > threshold), k=1)
    rows, cols = np.nonzero(mask)
    return list(zip(rows.tolist(), cols.tolist()))


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 5), r=st.integers(1, 12))
def test_grid_matches_the_loop_reference(m, r):
    grid, ref = SimplexGrid(m, r), RefGrid(m, r)
    assert np.array_equal(grid.nodes, ref.nodes)
    assert [grid.neighbors(i) for i in range(grid.node_count)] == [
        ref.neighbors(i) for i in range(grid.node_count)]
    assert [tuple(pair) for pair in grid.adjacency.tolist()] == ref.adjacency()
    order, parent = grid.bfs_order()
    ref_order, ref_parent = ref.bfs_order()
    assert order.tolist() == ref_order
    assert parent.tolist() == [ref_parent[i] for i in range(grid.node_count)]
    depth = {}
    for i in ref_order:
        depth[i] = 0 if ref_parent[i] < 0 else depth[ref_parent[i]] + 1
    levels, level_parent = grid.levels()
    assert [level.tolist() for level in levels] == [
        [i for i in ref_order if depth[i] == d] for d in range(max(depth.values()) + 1)]
    assert np.array_equal(level_parent, parent)


def test_grid_with_forty_objectives():
    """40 objectives at r = 2: 820 nodes, but radix codes (r + 1)^m would overflow int64."""
    grid, ref = SimplexGrid(40, 2), RefGrid(40, 2)
    assert np.array_equal(grid.nodes, ref.nodes)
    assert [tuple(pair) for pair in grid.adjacency.tolist()] == ref.adjacency()


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), m=st.integers(1, 5))
def test_dominance_on_values_quantized_near_the_tolerance(data, n, m):
    """Steps of tol/2 put many comparisons exactly on the tolerance."""
    ticks = data.draw(st.lists(st.integers(-4, 4), min_size=n * m, max_size=n * m))
    f = 0.5 + np.array(ticks, dtype=float).reshape(n, m) * 0.5e-9
    f = np.vstack([f, f[: data.draw(st.integers(0, n))]])  # duplicate rows
    assert dominating_pairs(f) == ref_dominating_pairs(f)


def test_dominance_single_row_empty_and_nan():
    assert dominating_pairs(np.zeros((1, 3))) == []
    assert dominating_pairs(np.zeros((0, 3))) == []
    f = np.array([[0.0, 0.0], [np.nan, -1.0], [1.0, 1.0], [2.0, np.nan]])
    assert dominating_pairs(f) == ref_dominating_pairs(f) == [(0, 2)]


def test_dominance_over_several_blocks():
    """About 2,100 rows: more than one block of 2^22 comparisons."""
    rng = np.random.default_rng(3)
    f = np.round(rng.random((2100, 3)) * 8) / 8
    f[::7] = f[1::7][: len(f[::7])]
    pairs = dominating_pairs(f)
    assert pairs and pairs == ref_dominating_pairs(f)


# ---------------------------------------------------------------------------
# Summary distances and injectivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("resolution", [1, 7, 20])
@pytest.mark.parametrize("name,problem", fixture_problems())
def test_summary_and_injectivity_match_dense_references(name, problem, resolution):
    atlas = build_atlas(problem, resolution)
    s = atlas.summary
    assert (s.min_pairwise_x_distance, s.max_adjacent_x_distance) == ref_distances(atlas)
    assert s.dominance_violations == len(ref_dominating_pairs(atlas.f_array()))
    for tol in (1e-6, 1e-3, 0.0, -1.0):
        assert injectivity_scan(atlas, tol).collapsed_pairs == ref_collapsed_pairs(atlas, tol)


def test_collapsed_diagonal_matches_the_dense_reference():
    """example31 at r = 20, the non-injective acceptance fixture."""
    atlas = build_atlas(builtin_problem("example31"), 20)
    pairs = injectivity_scan(atlas).collapsed_pairs
    assert len(pairs) > 10 and pairs == ref_collapsed_pairs(atlas)
    assert atlas.summary.min_pairwise_x_distance == ref_distances(atlas)[0]


def test_certificates_stay_in_linear_memory():
    """The 6 x 3 quadratic of the verify benchmark at r = 100 (5,151 nodes):
    dense distance matrices alone would take 2 x 212 MB."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 6, 6))
    q = a @ a.transpose(0, 2, 1) + np.eye(6)
    problem = build_problem(GenericQuadratic(q, rng.standard_normal((3, 6)),
                                             rng.standard_normal(3)))
    atlas = build_atlas(problem, 100)
    tracemalloc.start()
    try:
        atlas.summary
        injectivity_scan(atlas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Perturbations as a per-node linear term, against one perturbed problem each
# ---------------------------------------------------------------------------


def _perturbation_problems():
    """Three quadratics, solved in one Newton step, and two softplus
    families that take several; the steep one backtracks (9 times in the
    genericity test at max_iter 200, 6 times in the row-by-row test)."""
    return [("example31", builtin_problem("example31")),
            ("example32", builtin_problem("example32")),
            ("remark_g", builtin_problem("remark_g")),
            ("softplus", softplus_problem()),
            ("steep_softplus", softplus_problem(3, steepness=10.0))]


@pytest.mark.parametrize("max_iter", [200, 1, 0])
@pytest.mark.parametrize("name,problem", _perturbation_problems())
def test_batched_genericity_matches_one_atlas_per_trial(name, problem, max_iter):
    config = SolverConfig(max_iter=max_iter)
    tols = (1e-7, 1e-8, 1e-9)
    report = genericity_experiment(problem, 3, 0.3, 6, rank_tols=tols, seed=5, config=config)
    for trial in report.results:
        pi = LinearPerturbation.draw(problem.n, problem.m, trial.seed, 0.3)
        atlas = build_atlas(perturb_problem(problem, pi), 6, config)
        assert trial.failures == atlas.failures
        assert trial.max_kkt_residual == max(pt.kkt_residual for pt in atlas.points)
        for tol in tols:
            want, got = certify_corank_on_atlas(atlas, tol), trial.certificates[tol]
            assert np.array_equal(got.coranks, want.coranks)
            assert (got.witnesses, got.min_gap) == (want.witnesses, want.min_gap)
    if max_iter == 0:
        assert all(trial.failures for trial in report.results)


@pytest.mark.parametrize("name,problem", _perturbation_problems())
def test_linear_term_matches_the_perturbed_problem_row_by_row(name, problem):
    """Two perturbations in one batch, every node started at (-3, ..., -3)."""
    weights = interior_weights(problem.m, 6, seed=4)
    pis = [LinearPerturbation.draw(problem.n, problem.m, seed, 0.5) for seed in (1, 2)]
    linear = np.repeat([pi.coefficients for pi in pis], len(weights), axis=0)
    start = np.full(problem.n, -3.0)
    got = minimize_weighted(problem, np.vstack([weights, weights]), x0=start, linear=linear)
    want = [minimize_weighted(perturb_problem(problem, pi), weights, x0=start) for pi in pis]
    for field, rows in zip(got, zip(*want)):
        assert np.array_equal(field, np.concatenate(rows))
    assert got.iterations.max() >= 1


@pytest.mark.parametrize("name,problem", _perturbation_problems())
def test_stability_matches_one_batch_per_scale(name, problem):
    scales = [0.1, 0.01, 0.0]
    report = stability_experiment(problem, scales, 5, seed=3)
    base = build_atlas(problem, 5)
    base_x = base.x_array()
    for scale, row in zip(scales, report.rows):
        pi = LinearPerturbation.draw(problem.n, problem.m, 3, scale)
        moved = minimize_weighted(perturb_problem(problem, pi), base.grid.weights, x0=base_x)
        gaps = row_norms(moved.x - base_x)
        assert (row.sup_displacement, row.mean_displacement) == (gaps.max(), gaps.mean())
    assert stability_experiment(problem, [], 5).rows == []
