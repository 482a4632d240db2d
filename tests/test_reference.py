"""The array-built grid, the O(N)-memory certificates and the columnar
atlas exports against the plain loop, dense-matrix and per-node
implementations they replaced, kept here as references, the
central-difference reference for the fold test's analytic derivative, and
the cokernel alignment that the optimality tests hold to zero."""
from __future__ import annotations

import csv
import json
import tracemalloc
from collections import deque
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from conftest import fixture_problems, interior_weights, random_quadratic, softplus_problem
from pareto_atlas import (
    DistanceSquared,
    GenericQuadratic,
    ParetoPoint,
    SimplexGrid,
    SolverConfig,
    build_atlas,
    build_problem,
    builtin_problem,
    dominates,
    dominating_pairs,
    draw_perturbation,
    face_consistency,
    genericity_experiment,
    injectivity_scan,
    minimize_weighted,
    perturb_problem,
    scalarize,
    stability_experiment,
)
from pareto_atlas import atlas as pa_atlas
from pareto_atlas.atlas import _close_pairs, _min_pair_distance, _pair_distances
from pareto_atlas.diagnostics import DEFAULT_RANK_TOL, corank_certificate, numerical_rank
from pareto_atlas.ordering import DOMINANCE_TOL
from pareto_atlas.problems import strong_convexity_constant
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


def ref_blocked_dominating_pairs(values, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Blocks of about 2^22 // N rows, each compared with every row not
    below its componentwise minimum by more than ``tol``."""
    f = np.asarray(values, dtype=float)
    upper, lower = f + tol, f - tol
    height = max(1, (1 << 22) // max(1, len(f)))
    rows, cols = [], []
    for start in range(0, len(f), height):
        block = f[start:start + height]
        cand = np.flatnonzero((upper >= np.fmin.reduce(block, axis=0)).all(axis=1))
        le = np.ones((len(block), len(cand)), dtype=bool)
        lt = np.zeros_like(le)
        for c in range(f.shape[1]):
            le &= block[:, c, None] <= upper[None, cand, c]
            lt |= block[:, c, None] < lower[None, cand, c]
        r, c = np.nonzero(le & lt)
        keep = r + start != cand[c]
        rows.append(r[keep] + start)
        cols.append(cand[c[keep]])
    if not rows:
        return []
    return list(zip(np.concatenate(rows).tolist(), np.concatenate(cols).tolist()))


def ref_distances(atlas) -> tuple[float, float]:
    """(min pairwise, max adjacent) minimizer distance from a dense matrix."""
    xs = atlas.x
    dx = cdist(xs, xs)
    np.fill_diagonal(dx, np.inf)
    min_pair = float(dx.min()) if atlas.grid.node_count > 1 else np.inf
    grid = RefGrid(atlas.grid.m, atlas.grid.resolution)
    max_adj = max((float(np.linalg.norm(xs[a] - xs[b])) for a, b in grid.adjacency()),
                  default=0.0)
    return min_pair, max_adj


def ref_collapsed_pairs(atlas, collapse_tol: float = 1e-6) -> list[tuple[int, int]]:
    xs = atlas.x
    ws = atlas.grid.weights
    threshold = 2.0 * np.sqrt(2) / atlas.grid.resolution * (1.0 + 1e-9)
    mask = np.triu((cdist(xs, xs) <= collapse_tol) & (cdist(ws, ws) > threshold), k=1)
    rows, cols = np.nonzero(mask)
    return list(zip(rows.tolist(), cols.tolist()))


def ref_tree_min(xs) -> float:
    """Smallest pair distance by k-d tree: each row's nearest neighbour, then
    every pair within a hair of the smallest tree distance measured again."""
    if len(xs) < 2:
        return np.inf
    tree = cKDTree(xs)
    nearest = float(tree.query(xs, k=2)[0][:, 1].min())
    if nearest == 0.0:
        return 0.0
    near = tree.query_pairs(nearest * (1.0 + 1e-9), output_type="ndarray")
    return float(_pair_distances(xs[near[:, 0]], xs[near[:, 1]]).min())


def ref_tree_pairs(xs, collapse_tol: float) -> list[tuple[int, int]]:
    """Pairs i < j at distance <= collapse_tol: k-d tree candidates a hair
    wider, decided on the recomputed distances."""
    radius = max(collapse_tol, 0.0) * (1.0 + 1e-9)
    near = cKDTree(xs).query_pairs(radius, output_type="ndarray")
    a, b = near[:, 0], near[:, 1]
    keep = _pair_distances(xs[a], xs[b]) <= collapse_tol
    return sorted(zip(a[keep].tolist(), b[keep].tolist()))


def ref_summary_dict(atlas) -> dict:
    """``summary.as_dict()`` with the per-node fields counted node by node."""
    points = atlas.points
    hist: dict[int, int] = {}
    for pt in points:
        hist[pt.corank] = hist.get(pt.corank, 0) + 1
    doc = atlas.summary.as_dict()
    doc.update(unconverged=sum(not pt.converged for pt in points),
               max_kkt_residual=max(pt.kkt_residual for pt in points),
               corank_histogram={str(k): v for k, v in hist.items()})
    return doc


def ref_report_dict(atlas) -> dict:
    """The atlas JSON document built one ParetoPoint at a time."""
    fam = getattr(atlas.problem, "family", None)
    nodes = []
    for i, pt in enumerate(atlas.points):
        nodes.append(
            {
                "node": i,
                "w": pt.weight.tolist(),
                "face": [j + 1 for j in np.flatnonzero(atlas.grid.nodes[i]).tolist()],
                "x": pt.x.tolist(),
                "f": pt.fx.tolist(),
                "kkt_residual": pt.kkt_residual,
                "singular_values": pt.jacobian_sv.tolist(),
                "corank": pt.corank,
                "converged": pt.converged,
            }
        )
    return {
        "schema": "pareto-atlas/atlas-v1",
        "family": getattr(fam, "tag", None),
        "n": atlas.problem.n,
        "m": atlas.problem.m,
        "resolution": atlas.grid.resolution,
        "tolerances": {
            "grad_tol": atlas.config.grad_tol,
            "rank_tol": atlas.config.rank_tol,
        },
        "summary": ref_summary_dict(atlas),
        "failures": [i for i, pt in enumerate(atlas.points) if not pt.converged],
        "nodes": nodes,
    }


def ref_to_csv(atlas, path) -> None:
    """The atlas CSV written one ParetoPoint at a time."""
    m, n = atlas.problem.m, atlas.problem.n
    header = (
        [f"w_{i + 1}" for i in range(m)]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"f_{i + 1}" for i in range(m)]
        + ["kkt_residual", "corank", "face"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, pt in enumerate(atlas.points):
            writer.writerow(
                [f"{v:.17g}" for v in pt.weight]
                + [f"{v:.17g}" for v in pt.x]
                + [f"{v:.17g}" for v in pt.fx]
                + [f"{pt.kkt_residual:.17g}", str(pt.corank),
                   ";".join(str(j + 1) for j in np.flatnonzero(atlas.grid.nodes[i]))]
            )


def ref_cokernel_alignment(problem, x, weight, tol: float = DEFAULT_RANK_TOL) -> float:
    """Norm of the projection of the unit weight onto the image of the
    differential: zero (to solver accuracy) exactly when the weight
    annihilates the Jacobian rows, the first-order optimality condition at a
    scalarized minimizer."""
    w = np.asarray(weight, dtype=float)
    u, sv, _ = np.linalg.svd(problem.gradients(x))
    rank = numerical_rank(sv, tol)
    return float(np.linalg.norm(u[:, :rank].T @ (w / np.linalg.norm(w))))


def ref_lambda_jacobian(problem, x, fold, step: float) -> np.ndarray:
    """Central differences of the maximal minors ``fold_check`` formed at x
    (its ``lead_variables`` with each of its ``tail_variables``)."""

    def minors(y):
        jac = problem.gradients(y)
        return np.array([np.linalg.det(jac[:, [*fold.lead_variables, t]])
                         for t in fold.tail_variables])

    steps = step * np.eye(len(x))
    return np.column_stack([(minors(x + h) - minors(x - h)) / (2.0 * step) for h in steps])


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 5), r=st.integers(1, 12))
def test_grid_matches_the_loop_reference(m, r):
    grid, ref = SimplexGrid(m, r), RefGrid(m, r)
    assert np.array_equal(grid.nodes, ref.nodes)
    assert [tuple(pair) for pair in grid.adjacency.tolist()] == ref.adjacency()
    order, parent = grid.bfs_order()
    ref_order, ref_parent = ref.bfs_order()
    assert order.tolist() == ref_order
    assert parent.tolist() == [ref_parent[i] for i in range(grid.node_count)]


def test_grid_with_forty_objectives():
    """40 objectives at r = 2: 820 nodes, but radix codes (r + 1)^m would
    overflow int64, and 780 forward moves a -> b, a < b, build the adjacency."""
    test_grid_matches_the_loop_reference.hypothesis.inner_test(40, 2)


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
    assert dominating_pairs(np.zeros((3, 0))) == []  # no objective to be better in
    f = np.array([[0.0, 0.0], [np.nan, -1.0], [1.0, 1.0], [2.0, np.nan]])
    assert dominating_pairs(f) == ref_dominating_pairs(f) == [(0, 2)]


def test_dominance_over_several_blocks():
    """About 2,100 rows on an eighth-step lattice, full of ties and
    duplicates, so the row comparison spans several blocks."""
    rng = np.random.default_rng(3)
    f = np.round(rng.random((2100, 3)) * 8) / 8
    f[::7] = f[1::7][: len(f[::7])]
    pairs = dominating_pairs(f)
    assert pairs and pairs == ref_dominating_pairs(f)


TOLERANCES = [0.0, 1e-9, -0.1, 1e300, np.inf, -np.inf, np.nan]


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(0, 3), st.integers(4, 250)), m=st.integers(1, 5),
       tol=st.sampled_from(TOLERANCES), front=st.booleans(), duplicates=st.booleans(),
       special=st.sampled_from([0.0, 0.01, 0.2]), seed=st.integers(0, 2**32 - 1))
def test_blocked_dominance_matches_both_references(n, m, tol, front, duplicates, special, seed):
    """The values-only path: values on a lattice of step tol/2, optionally
    bent onto the flat front sum(f) = const, so blocks meet ties at the
    tolerance, with duplicate rows, NaN and +-inf entries and non-finite
    tolerances."""
    f = dominance_lattice(n, m, tol, front, duplicates, special, seed)
    with np.errstate(invalid="ignore"):  # inf - inf in f +- tol
        pairs = dominating_pairs(f, tol)
        assert pairs == ref_blocked_dominating_pairs(f, tol) == ref_dominating_pairs(f, tol)
        assert pairs == [(i, j) for i in range(len(f)) for j in range(len(f))
                         if i != j and dominates(f[i], f[j], tol)]


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(0, 3), st.integers(4, 250)), m=st.integers(1, 5),
       tol=st.sampled_from(TOLERANCES), front=st.booleans(), duplicates=st.booleans(),
       special=st.sampled_from([0.0, 0.01, 0.2]), seed=st.integers(0, 2**32 - 1))
def test_candidate_dominance_matches_the_reference(n, m, tol, front, duplicates, special, seed):
    """The candidate path on the same lattice: ``near`` holding every pair
    i < j with ``everywhere`` empty, a random subset or all rows, and ``near``
    holding no pair with ``everywhere`` all rows, each find every pair."""
    f = dominance_lattice(n, m, tol, front, duplicates, special, seed)
    every = np.arange(len(f))
    subset = every[np.random.default_rng(seed).random(len(f)) < 0.5]
    none = (every[:0], every[:0])
    with np.errstate(invalid="ignore"):  # inf - inf in f +- tol
        expected = ref_dominating_pairs(f, tol)
        near = np.triu_indices(len(f), 1)
        for rows in ([], subset, every):
            assert dominating_pairs(f, tol, near=near, everywhere=rows) == expected
        assert dominating_pairs(f, tol, near=none, everywhere=every) == expected


def dominance_lattice(n, m, tol, front, duplicates, special, seed) -> np.ndarray:
    """n rows of m values on a lattice of step tol/2, bent onto sum(f) = const
    with ``front``, a quarter duplicated with ``duplicates``, and entries NaN
    or +-inf with probability ``special``."""
    rng = np.random.default_rng(seed)
    step = abs(tol) / 2 if np.isfinite(tol) and tol else 0.5e-9
    ticks = rng.integers(-4, 5, (n, m))
    if front:
        ticks -= rng.multinomial(40, np.full(m, 1.0 / m), size=n)
    f = 0.5 + ticks * step
    if duplicates:
        f = np.vstack([f, f[rng.integers(0, max(n, 1), n // 4)]])
    f[rng.random(f.shape) < special] = np.nan
    f[rng.random(f.shape) < special / 2] = np.inf
    f[rng.random(f.shape) < special / 2] = -np.inf
    return f


def test_dominance_on_a_noisy_front_of_eight_thousand_rows():
    """8,001 random points of the flat front sum(f) = 2 with 1e-3 noise:
    hundreds of dominating pairs, all between nearby values."""
    rng = np.random.default_rng(5)
    f = 1.0 - rng.dirichlet(np.ones(3), 8001) + 1e-3 * rng.standard_normal((8001, 3))
    pairs = dominating_pairs(f)
    assert len(pairs) > 100
    assert pairs == ref_blocked_dominating_pairs(f)


# ---------------------------------------------------------------------------
# Dominance in the summary: candidates within the strong-convexity radius
# ---------------------------------------------------------------------------


def plant(atlas, rows, xs) -> None:
    """Move ``rows`` of ``atlas`` to ``xs``, with f and the residual
    recomputed at the rows' weights; the convergence flags stay."""
    f, jac, _ = atlas.problem.evaluate(xs)
    weights = atlas.grid.weights[rows]
    atlas.x[rows], atlas.f[rows] = xs, f
    atlas.residual[rows] = row_norms(np.matmul(weights[:, None, :], jac)[:, 0, :])


def radius(atlas, beta: float, tau: float) -> float:
    """The largest radius (r + sqrt(r^2 + 2 beta tau)) / beta over the
    converged rows of ``atlas``."""
    r = atlas.residual[atlas.converged]
    return float(((r + np.sqrt(r * r + 2.0 * beta * tau)) / beta).max())


def farthest_pair(atlas) -> float:
    """The largest x distance of a dominating pair, by the blocked reference."""
    i, j = np.array(ref_blocked_dominating_pairs(atlas.f)).T
    return float(_pair_distances(atlas.x[i], atlas.x[j]).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(2, 4),
       r=st.integers(1, 6), softplus=st.booleans(), max_iter=st.sampled_from([200, 0]),
       planted=st.integers(0, 4), scale=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
       unconverged=st.booleans())
def test_summary_dominance_matches_the_blocked_reference(seed, n, m, r, softplus, max_iter,
                                                         planted, scale, unconverged):
    """Random quadratics, or the x-dependent softplus family (no exact beta),
    solved or left at the start (max_iter 0, every row unconverged), with
    rows moved off the Pareto set, marked converged or not."""
    problem = softplus_problem(seed, n, m) if softplus else random_quadratic(seed, n, m)
    atlas = build_atlas(problem, r, SolverConfig(max_iter=max_iter))
    rng = np.random.default_rng(seed)
    rows = rng.choice(atlas.grid.node_count, min(planted, atlas.grid.node_count), replace=False)
    plant(atlas, rows, atlas.x[rows] + scale * rng.standard_normal((len(rows), n)))
    if unconverged:
        atlas.converged[rows] = False
    assert atlas.summary.dominance_violations == len(ref_blocked_dominating_pairs(atlas.f))


def summary_tau(atlas) -> float:
    """``DOMINANCE_TOL`` plus the rounding of f, as the summary takes it:
    twice eps times the largest sum of the terms |c_i|, |b_i| |x| and
    |Q_i| |x|^2 / 2 of an objective at a row."""
    c, b, q = atlas.problem.evaluate(np.zeros((1, atlas.problem.n)))
    reach = np.linalg.norm(atlas.x, axis=1)[:, None]
    terms = (np.abs(c) + np.linalg.norm(b[0], axis=1) * reach
             + np.linalg.norm(q[0], axis=(1, 2)) / 2 * reach**2)
    return DOMINANCE_TOL + 2.0 * np.finfo(float).eps * float(terms.max())


def test_summary_dominance_needs_the_residual():
    """A row of example32 moved 0.5 off the set and still marked converged:
    only its residual carries the radius out to the rows that dominate it."""
    atlas = build_atlas(builtin_problem("example32"), 6)
    plant(atlas, [10], atlas.x[[10]] + 0.5)
    beta = strong_convexity_constant(atlas.problem)
    assert farthest_pair(atlas) > np.sqrt(2.0 * summary_tau(atlas) / beta)
    assert atlas.summary.dominance_violations == len(ref_blocked_dominating_pairs(atlas.f)) > 0


def test_summary_dominance_needs_the_rounding_of_f():
    """Two objectives at 1e8, where f rounds in steps of 1.5e-8: the grid
    nodes 1e-4 apart next to each vertex tie in one objective and differ by
    2e-7 in the other, so they dominate, beyond the radius of tau = 1e-9."""
    problem = build_problem(GenericQuadratic([[[1.0]], [[1.0]]], [[0.0], [-2e-3]], [1e8, 1e8]))
    atlas = build_atlas(problem, 20)
    beta = strong_convexity_constant(problem)
    assert farthest_pair(atlas) > radius(atlas, beta, DOMINANCE_TOL)
    assert atlas.summary.dominance_violations == len(ref_blocked_dominating_pairs(atlas.f)) == 2


def test_summary_dominance_needs_the_rounding_of_the_terms():
    """Minimizers near 1e4: f stays below 1e-5 but sums terms near 1e8,
    which round in steps of 1.5e-8.  Two pairs of grid nodes 1e-4 apart
    dominate through that rounding, beyond the radius that the rounding of
    f's own size would give."""
    p, d = 1e4, 2e-3
    problem = build_problem(GenericQuadratic([[[1.0]], [[1.0]]], [[-p], [-p - d]],
                                             [p * p / 2, p * p / 2 + d * p]))
    atlas = build_atlas(problem, 20)
    beta = strong_convexity_constant(problem)
    own = DOMINANCE_TOL + 2.0 * np.finfo(float).eps * float(np.abs(atlas.f).max())
    assert np.abs(atlas.f).max() < 1e-5 and farthest_pair(atlas) > radius(atlas, beta, own)
    assert atlas.summary.dominance_violations == len(ref_blocked_dominating_pairs(atlas.f)) == 2


def test_summary_dominance_needs_the_lowered_beta(monkeypatch):
    """Q = 10034 J + I on R^3 has eigenvalues 1, 1 and 30,103.  An
    ``eigvalsh`` that errs upward by 0.9 n eps |Q|, inside the bound the
    lowering allows for, puts the smallest at 1 + 1.8e-11.  Two rows planted
    on the soft axis u, x_j = 25 u and x_i = -(25 - 2^-31) u, evaluate
    exactly up to the last rounding of f; f(x_i) < f(x_j) - 2e-8, and the
    pair lies within the radius of beta = 1 but beyond that of 1 + 1.8e-11."""
    a, b = 10035.0, 10034.0
    q = np.full((3, 3), b)
    np.fill_diagonal(q, a)
    problem = build_problem(GenericQuadratic([q, q], np.zeros((2, 3)), [0.0, 1.0]))
    atlas = build_atlas(problem, 2)
    s, t = 25.0, -(25.0 - 2.0**-31)
    u = np.array([1.0, -1.0, 0.0])
    plant(atlas, [0, 1], np.array([s * u, t * u]))
    assert atlas.f[0, 0] - atlas.f[1, 0] > 20 * DOMINANCE_TOL
    upward = 1.0 + 0.9 * 3 * np.finfo(float).eps * (a + 2 * b)
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda h: np.broadcast_to([upward, upward, a + 2 * b], h.shape[:-1]))
    assert farthest_pair(atlas) > radius(atlas, upward, summary_tau(atlas))
    assert atlas.summary.dominance_violations == len(ref_blocked_dominating_pairs(atlas.f)) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_summary_dominance_with_a_value_that_is_not_finite(bad):
    """A row whose value is not finite is compared with every row, and the
    rounding of f, taken from the terms at x, still lets the two pairs of
    the 1e8 problem be found."""
    problem = build_problem(GenericQuadratic([[[1.0]], [[1.0]]], [[0.0], [-2e-3]], [1e8, 1e8]))
    atlas = build_atlas(problem, 20)
    atlas.f[10, 1] = bad
    want = ref_blocked_dominating_pairs(atlas.f)
    assert len(want) >= 2 and atlas.summary.dominance_violations == len(want)


# ---------------------------------------------------------------------------
# Summary distances and injectivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("resolution", [1, 7, 20])
@pytest.mark.parametrize("name,problem", fixture_problems())
def test_summary_and_injectivity_match_dense_references(name, problem, resolution):
    atlas = build_atlas(problem, resolution)
    s = atlas.summary
    assert (s.min_pairwise_x_distance, s.max_adjacent_x_distance) == ref_distances(atlas)
    assert s.dominance_violations == len(ref_dominating_pairs(atlas.f))
    for tol in (1e-6, 1e-3, 0.0, -1.0):
        assert injectivity_scan(atlas, tol).collapsed_pairs == ref_collapsed_pairs(atlas, tol)


def test_collapsed_diagonal_matches_the_dense_reference():
    """example31 at r = 20, the non-injective acceptance fixture."""
    atlas = build_atlas(builtin_problem("example31"), 20)
    pairs = injectivity_scan(atlas).collapsed_pairs
    assert len(pairs) > 10 and pairs == ref_collapsed_pairs(atlas)
    assert atlas.summary.min_pairwise_x_distance == ref_distances(atlas)[0]


def test_collapse_starts_beyond_two_grid_moves():
    """Node A's x given to B = A + (-2, 2, 0, 0), two grid moves away
    (squared node distance 8), and to C = A + (-2, 2, -1, 1) (distance 10):
    only (A, C) collapses; B and C are one move apart."""
    atlas = build_atlas(random_quadratic(3, n=4, m=4), 6)
    rows = {tuple(k): i for i, k in enumerate(atlas.grid.nodes.tolist())}
    a, b, c = (rows[k] for k in [(2, 1, 2, 1), (0, 3, 2, 1), (0, 3, 1, 2)])
    assert injectivity_scan(atlas).injective_on_sample
    plant(atlas, [b, c], atlas.x[[a, a]])
    assert injectivity_scan(atlas).collapsed_pairs == [tuple(sorted((a, c)))]
    assert injectivity_scan(atlas).collapsed_pairs == ref_collapsed_pairs(atlas)


@st.composite
def point_sets(draw):
    """Rows on a lattice of step 1e-6 or 1e-3 (many distances exactly at a
    collapse tolerance), on one line, or anywhere; then some rows repeated."""
    n = draw(st.integers(1, 4))
    count = draw(st.one_of(st.integers(0, 3), st.integers(4, 40)))
    step = draw(st.sampled_from([1e-6, 1e-3, 0.25]))
    offset = draw(st.sampled_from([0.0, 1.0, -300.0]))
    kind = draw(st.sampled_from(["lattice", "line", "anywhere"]))
    if kind == "lattice":
        ticks = draw(st.lists(st.integers(-3, 3), min_size=count * n, max_size=count * n))
        xs = offset + step * np.array(ticks, dtype=float).reshape(count, n)
    elif kind == "line":
        ticks = draw(st.lists(st.integers(-20, 20), min_size=count, max_size=count))
        direction = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
                             dtype=float)
        xs = offset + step * np.outer(ticks, direction)
    else:
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=count * n, max_size=count * n))
        xs = np.array(values, dtype=float).reshape(count, n)
    repeats = draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=count))
    return np.vstack([xs, xs[repeats]]) if count else xs


@settings(max_examples=300, deadline=None)
@given(xs=point_sets(), pick=st.integers(0, 10**6))
@example(xs=np.array([[0.0], [0.0], [2.2250738585072014e-308]]), pick=0)  # squares underflow
def test_pair_search_matches_the_tree_reference(xs, pick):
    want = ref_tree_min(xs)
    assert _min_pair_distance(xs) == want
    if len(xs) >= 2:  # any pair's distance starts the search, rounded either way
        i, j = pick % len(xs), (pick // len(xs)) % (len(xs) - 1)
        j += j >= i
        start = xs[i:i + 1] - xs[j:j + 1]
        assert _min_pair_distance(xs, float(row_norms(start)[0])) == want
    for tol in (1e-6, 1e-3, 0.0, -1.0):
        a, b, d = _close_pairs(xs, tol)
        assert np.all(a < b)
        assert np.array_equal(d, _pair_distances(xs[a], xs[b]))
        assert sorted(zip(a[d <= tol].tolist(), b[d <= tol].tolist())) == ref_tree_pairs(xs, tol)


def test_min_distance_is_the_recomputed_one_not_the_start_radius():
    """The locate benchmark input of seed 1 (r = 20): the closest pair is
    also a grid edge, whose row norm is 1 ulp below its pair distance."""
    points = np.random.default_rng(1).standard_normal((4, 8))
    atlas = build_atlas(build_problem(DistanceSquared(points)), 20)
    xs, adj = atlas.x, atlas.grid.adjacency
    assert row_norms(xs[adj[:, 0]] - xs[adj[:, 1]]).min() == 0.1187521417803371
    assert atlas.summary.min_pairwise_x_distance == 0.11875214178033712 == ref_tree_min(xs)


def test_identical_rows_stop_the_search_at_zero(monkeypatch):
    """20,000 equal rows: 2 x 10^8 pairs at distance 0; the first sweep step
    measures the 19,999 neighbours in sorted order and ends the search."""
    measured = []

    def counted(u, v):
        measured.append(len(u))
        return _pair_distances(u, v)

    monkeypatch.setattr(pa_atlas, "_pair_distances", counted)
    xs = np.tile([0.25, -1.5, 3.0], (20_000, 1))
    tracemalloc.start()
    try:
        assert pa_atlas._min_pair_distance(xs, 1.0) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert measured == [19_999]
    assert peak < 16 * xs.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pair_search_rejects_non_finite_rows(bad):
    xs = np.zeros((4, 2))
    xs[2, 1] = bad
    with pytest.raises(ValueError):
        _min_pair_distance(xs)
    with pytest.raises(ValueError):
        _close_pairs(xs, 1e-6)
    with pytest.raises(ValueError):
        cKDTree(xs)


def _verify_benchmark_problem():
    """The 6 x 3 quadratic of the verify benchmark, seed 1."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 6, 6))
    q = a @ a.transpose(0, 2, 1) + np.eye(6)
    return build_problem(GenericQuadratic(q, rng.standard_normal((3, 6)),
                                          rng.standard_normal(3)))


def test_certificates_stay_in_linear_memory():
    """The 6 x 3 quadratic of the verify benchmark at r = 100 (5,151 nodes):
    dense distance matrices alone would take 2 x 212 MB."""
    atlas = build_atlas(_verify_benchmark_problem(), 100)
    tracemalloc.start()
    try:
        atlas.summary
        injectivity_scan(atlas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_dominance_stays_in_bounded_memory():
    """The verify benchmark's front at r = 200 (20,301 rows), as solved and
    with 1e-3 noise: all pairs of rows would take 412 M comparisons."""
    f = build_atlas(_verify_benchmark_problem(), 200).f
    assert len(f) == 20_301
    for values in (f, f + 1e-3 * np.random.default_rng(0).standard_normal(f.shape)):
        tracemalloc.start()
        try:
            dominating_pairs(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Columnar atlas against the per-node exports
# ---------------------------------------------------------------------------


def _far_points():
    """Two demand points far from the origin, where every solve starts."""
    return build_problem(DistanceSquared(np.array([[5.0, 5.0], [6.0, 5.0]])))


def _export_cases():
    """Every family, plus an atlas where no node converged, one where some
    did not (corank histogram {0, -1}: its keys are not in sorted order),
    a one-node atlas (no pair distance) and the example31 pinch; then the
    locate-export shape (m = 4, n = 8), 496 rows (two export blocks), one
    node, none converged, and 256 and 257 rows (either side of a block edge)."""
    cases = [(name, problem, 6, SolverConfig()) for name, problem in fixture_problems()]
    points = np.random.default_rng(1).normal(size=(4, 8))
    return cases + [
        ("no_convergence", _far_points(), 4, SolverConfig(max_iter=0)),
        ("some_unconverged", softplus_problem(), 10, SolverConfig(max_iter=2)),
        ("one_objective", random_quadratic(3, m=1), 4, SolverConfig()),
        ("example31_r10", builtin_problem("example31"), 10, SolverConfig()),
        ("locate", build_problem(DistanceSquared(points)), 6, SolverConfig()),
        ("verify", random_quadratic(2, n=6, m=3), 30, SolverConfig()),
        ("one-node", build_problem(DistanceSquared([[3.0, -1.0]])), 4, SolverConfig()),
        ("unconverged", random_quadratic(0), 3, SolverConfig(max_iter=0)),
        ("block-rows", random_quadratic(4, m=2), pa_atlas.EXPORT_ROWS - 1, SolverConfig()),
        ("block-rows-plus-one", random_quadratic(4, m=2), pa_atlas.EXPORT_ROWS, SolverConfig()),
    ]


@pytest.mark.parametrize("name,problem,resolution,config", _export_cases())
def test_exports_match_the_per_node_references(name, problem, resolution, config, tmp_path):
    atlas = build_atlas(problem, resolution, config)
    atlas.to_csv(tmp_path / "atlas.csv")
    ref_to_csv(atlas, tmp_path / "ref.csv")
    assert (tmp_path / "atlas.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    atlas.to_json(tmp_path / "atlas.json")
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(ref_report_dict(atlas), fh, indent=2)
    assert (tmp_path / "atlas.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_export_cases_hold_what_they_pin():
    none = build_atlas(_far_points(), 4, SolverConfig(max_iter=0))
    assert none.failures == list(range(none.grid.node_count))
    assert (none.corank == -1).all() and not none.converged.any()
    some = build_atlas(softplus_problem(), 10, SolverConfig(max_iter=2))
    assert list(some.summary.corank_histogram) == [0, -1]
    one = build_atlas(random_quadratic(3, m=1), 4)
    assert one.summary.as_dict()["min_pairwise_x_distance"] is None
    sizes = {name: comb(r + problem.m - 1, problem.m - 1)
             for name, problem, r, _ in _export_cases()}
    rows = pa_atlas.EXPORT_ROWS
    assert (sizes["locate"], sizes["verify"], sizes["one-node"]) == (84, 496, 1)
    assert rows < sizes["verify"] <= 2 * rows
    assert (sizes["block-rows"], sizes["block-rows-plus-one"]) == (rows, rows + 1)


def test_exports_hold_one_block_of_rows_at_a_time(tmp_path):
    """The traced peak of both exports grows by far less than the rows: 2,016
    rows against 496 (the atlas and its summary are built before tracing)."""
    def peak(resolution):
        atlas = build_atlas(random_quadratic(2, n=6, m=3), resolution)
        atlas.summary
        tracemalloc.start()
        try:
            atlas.to_csv(tmp_path / "atlas.csv")
            atlas.to_json(tmp_path / "atlas.json")
            return atlas.grid.node_count, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (small, small_peak), (large, large_peak) = peak(30), peak(62)
    assert (small, large) == (496, 2016)
    assert large_peak < 1.25 * small_peak


def test_atlas_layers_build_no_weight_per_node(monkeypatch, tmp_path):
    """The atlas, its certificates and its exports read the grid's weight
    rows; only the compatibility ``points`` builds a ParetoPoint per node,
    and it holds the columns row by row."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a ParetoPoint was built")

    with monkeypatch.context() as patch:
        patch.setattr(ParetoPoint, "__init__", refuse)
        atlas = build_atlas(softplus_problem(), 6, SolverConfig(max_iter=2))
        atlas.summary
        face_consistency(atlas)
        injectivity_scan(atlas)
        atlas.to_csv(tmp_path / "atlas.csv")
        atlas.to_json(tmp_path / "atlas.json")
        with pytest.raises(AssertionError, match="ParetoPoint"):
            atlas.points  # the refusal is live
    assert 0 < len(atlas.failures) < atlas.grid.node_count
    columns = (atlas.grid.weights, atlas.x, atlas.f, atlas.residual, atlas.sv, atlas.corank,
               atlas.iterations, atlas.grad_tol, atlas.converged)
    points = atlas.points
    assert len(points) == atlas.grid.node_count
    for i, pt in enumerate(points):
        row = (pt.weight, pt.x, pt.fx, pt.kkt_residual, pt.jacobian_sv, pt.corank,
               pt.iterations, pt.grad_tol, pt.converged)
        assert all(np.array_equal(got, col[i]) for got, col in zip(row, columns))
        assert [type(v) for v in row[5:]] == [int, int, float, bool]
        assert type(pt.kkt_residual) is float


# ---------------------------------------------------------------------------
# Cold grid solves: each node depends on its own weight alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,problem", fixture_problems() + [("softplus", softplus_problem())])
def test_every_node_is_its_own_cold_solve(name, problem, monkeypatch):
    """Every atlas row equals a cold ``scalarize`` at its weight, bit for bit,
    and blocks of 7 rows give the same columns as the default blocks."""
    atlas = build_atlas(problem, 8)
    for i, w in enumerate(atlas.grid.weights):
        alone = scalarize(problem, w)
        assert np.array_equal(atlas.x[i], alone.x) and np.array_equal(atlas.f[i], alone.fx)
        assert (atlas.residual[i], atlas.grad_tol[i], atlas.iterations[i]) == (
            alone.kkt_residual, alone.grad_tol, alone.iterations)
    monkeypatch.setattr(pa_atlas, "BLOCK_ENTRIES", 7 * problem.m * problem.n ** 2)
    blocked = build_atlas(problem, 8)
    for column in ("x", "f", "residual", "grad_tol", "iterations", "sv", "corank"):
        assert np.array_equal(getattr(blocked, column), getattr(atlas, column)), column


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
    for t in range(3):
        pi = draw_perturbation(problem.n, problem.m, 5 + t, 0.3)
        atlas = build_atlas(perturb_problem(problem, pi), 6, config)
        assert np.flatnonzero(~report.converged[t]).tolist() == atlas.failures
        assert report.residual[t].max() == atlas.residual.max()
        for i, tol in enumerate(tols):
            want, got = corank_certificate(atlas.sv, tol), corank_certificate(report.sv[t], tol)
            assert np.array_equal(report.corank[i, t], want.coranks)
            assert (got.witnesses, got.min_gap) == (want.witnesses, want.min_gap)
    if max_iter == 0:
        assert (~report.converged).any(axis=1).all()


@pytest.mark.parametrize("name,problem", _perturbation_problems())
def test_linear_term_matches_the_perturbed_problem_row_by_row(name, problem):
    """Two perturbations in one batch, every node started at (-3, ..., -3)."""
    weights = interior_weights(problem.m, 6, seed=4)
    pis = [draw_perturbation(problem.n, problem.m, seed, 0.5) for seed in (1, 2)]
    linear = np.repeat(pis, len(weights), axis=0)
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
    weights = SimplexGrid(problem.m, 5).weights
    base_x = minimize_weighted(problem, weights).x
    for k, scale in enumerate(scales):
        pi = draw_perturbation(problem.n, problem.m, 3, scale)
        moved = minimize_weighted(perturb_problem(problem, pi), weights)
        gaps = row_norms(moved.x - base_x)
        got = (report.sup_displacement[k], report.mean_displacement[k])
        assert got == (gaps.max(), gaps.mean())
    assert stability_experiment(problem, [], 5).as_dict()["rows"] == []
