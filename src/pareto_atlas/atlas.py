"""Atlas of Pareto points over a barycentric grid on the weight simplex.

The grid puts nodes at integer combinations k/r (k nonnegative integers
summing to r).  Nodes are solved level by level in breadth-first order from
the barycenter, each level as one batch, so that each solve warm-starts from
an already-solved neighbor; for the quadratic families this makes every
solve a single Newton step.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np
from scipy.spatial import cKDTree

from .ordering import DOMINANCE_TOL, dominating_pairs
from .problems import Weight, restrict
from .solver import (
    DEFAULT_CONFIG,
    NewtonResult,
    ParetoPoint,
    SolverConfig,
    minimize_weighted,
    pareto_points,
    raise_unconverged,
    row_norms,
)

__all__ = [
    "SimplexGrid",
    "ParetoAtlas",
    "AtlasSummary",
    "FaceConsistencyReport",
    "InjectivityReport",
    "build_atlas",
    "solve_grid",
    "face_consistency",
    "injectivity_scan",
]


def _compositions(total: int, parts: int) -> np.ndarray:
    """All k in N^parts with sum(k) = total, in lexicographic order.

    Stars and bars: the combinations of parts-1 bar positions among
    total+parts-1 slots come out of itertools in lexicographic order, and so
    do the gaps between consecutive bars.
    """
    slots = total + parts - 1
    count = comb(slots, parts - 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), parts - 1)),
                       dtype=int, count=count * (parts - 1)).reshape(count, parts - 1)
    edges = np.hstack([np.full((count, 1), -1), bars, np.full((count, 1), slots)])
    return np.diff(edges, axis=1) - 1


def _lex_rank(nodes: np.ndarray, total: int) -> np.ndarray:
    """Position of each composition in the lexicographic order of ``_compositions``.

    The compositions that agree with k before coordinate j and are smaller at
    j number C(rest + p, p) - C(rest - k_j + p, p), with rest the total left
    for the p + 1 coordinates from j on (hockey-stick identity).  Every
    binomial involved is at most the node count, so the ranks are exact.
    """
    parts = nodes.shape[1]
    table = np.array([[comb(t + p, p) for p in range(parts)] for t in range(total + 1)])
    rest = total - np.cumsum(nodes, axis=1) + nodes
    rank = np.zeros(len(nodes), dtype=int)
    for j in range(parts - 1):
        p = parts - 1 - j
        rank += table[rest[:, j], p] - table[rest[:, j] - nodes[:, j], p]
    return rank


class SimplexGrid:
    """Barycentric integer grid of resolution r on the (m-1)-simplex."""

    def __init__(self, m: int, resolution: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.m = m
        self.resolution = resolution
        self.nodes = _compositions(resolution, m)
        self.weights = self.nodes / float(resolution)
        # One column per unit move k - e_a + e_b (a != b): the neighbour's
        # index, or -1 where k_a = 0.  Rows are sorted, so the -1s come first.
        moves = [(a, b) for a in range(m) for b in range(m) if a != b]
        table = np.full((self.node_count, len(moves)), -1)
        for col, (a, b) in enumerate(moves):
            src = np.flatnonzero(self.nodes[:, a])
            moved = self.nodes[src]
            moved[:, a] -= 1
            moved[:, b] += 1
            table[src, col] = _lex_rank(moved, resolution)
        self._neighbors = np.sort(table, axis=1)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def step(self) -> float:
        """Euclidean length of one grid move (a unit transposition)."""
        return np.sqrt(2.0) / self.resolution

    def face_of(self, i: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.nonzero(self.nodes[i])[0])

    def weight_of(self, i: int) -> Weight:
        return Weight(self.weights[i], self.face_of(i))

    def neighbors(self, i: int) -> list[int]:
        row = self._neighbors[i]
        return row[row >= 0].tolist()

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Each adjacent pair (i, j), i < j, once; an (E, 2) array in sorted order."""
        rows = np.repeat(np.arange(self.node_count), self._neighbors.shape[1])
        cols = self._neighbors.ravel()
        keep = rows < cols  # also drops the -1 entries
        return np.stack([rows[keep], cols[keep]], axis=1)

    def bfs_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first visit order from the node nearest the barycenter, and
        each node's parent (-1 for the start).

        One level at a time: the frontier's neighbour rows, read in visit
        order, list the next level's nodes in the order a FIFO queue would
        first reach them, and the row a node is first reached from is its
        parent.
        """
        center = np.full(self.m, 1.0 / self.m)
        start = int(np.argmin(np.linalg.norm(self.weights - center, axis=1)))
        parent = np.full(self.node_count, -2)
        parent[start] = -1
        levels, frontier = [], np.array([start])
        while frontier.size:
            levels.append(frontier)
            reached = self._neighbors[frontier]
            fresh = (reached >= 0) & (parent[np.maximum(reached, 0)] == -2)
            reached_from = np.broadcast_to(frontier[:, None], reached.shape)[fresh]
            reached = reached[fresh]
            _, first = np.unique(reached, return_index=True)
            first.sort()
            frontier = reached[first]
            parent[frontier] = reached_from[first]
        return np.concatenate(levels), parent

    def levels(self) -> tuple[list[np.ndarray], np.ndarray]:
        """``bfs_order`` split into its levels, and each node's parent.

        A node's level is its distance from the start, which is half the L1
        distance between their compositions: every move shifts one unit
        from one coordinate to another.
        """
        order, parent = self.bfs_order()
        depth = np.abs(self.nodes - self.nodes[order[0]]).sum(axis=1) // 2
        return np.split(order, np.flatnonzero(np.diff(depth[order])) + 1), parent


def _pair_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distance between rows u[k] and v[k].

    The squares are summed one coordinate at a time, which rounds exactly as
    scipy's ``cdist`` does, so the certificates report the same digits as a
    dense distance matrix would.
    """
    d = u - v
    total = np.zeros(len(d))
    for col in d.T:
        total += col * col
    return np.sqrt(total)


def _min_pair_distance(xs: np.ndarray) -> float:
    """Smallest distance between two rows of ``xs`` (inf for fewer than two).

    A k-d tree finds each row's nearest neighbour; every pair within a hair
    of the smallest tree distance is then measured again with
    ``_pair_distances``, whose rounding decides the minimum.
    """
    if len(xs) < 2:
        return np.inf
    tree = cKDTree(xs)
    nearest = float(tree.query(xs, k=2)[0][:, 1].min())
    if nearest == 0.0:
        return 0.0
    near = tree.query_pairs(nearest * (1.0 + 1e-9), output_type="ndarray")
    return float(_pair_distances(xs[near[:, 0]], xs[near[:, 1]]).min())


def _face_label(face: tuple[int, ...]) -> str:
    return ";".join(str(i + 1) for i in face)


@dataclass
class AtlasSummary:
    node_count: int
    resolution: int
    unconverged: int
    max_kkt_residual: float
    corank_histogram: dict[int, int]
    dominance_violations: int
    min_pairwise_x_distance: float
    max_adjacent_x_distance: float

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        d["corank_histogram"] = {str(k): v for k, v in self.corank_histogram.items()}
        return d


class ParetoAtlas:
    """Solved grid: one Pareto point per node, index-aligned with the grid."""

    def __init__(self, problem, grid: SimplexGrid, points: list[ParetoPoint],
                 config: SolverConfig, failures: list[int]):
        self.problem = problem
        self.grid = grid
        self.points = points
        self.config = config
        self.failures = failures

    def w_array(self) -> np.ndarray:
        return self.grid.weights.copy()

    def x_array(self) -> np.ndarray:
        return np.array([pt.x for pt in self.points])

    def f_array(self) -> np.ndarray:
        return np.array([pt.fx for pt in self.points])

    @cached_property
    def summary(self) -> AtlasSummary:
        coranks = [pt.corank for pt in self.points]
        hist: dict[int, int] = {}
        for c in coranks:
            hist[c] = hist.get(c, 0) + 1
        xs = self.x_array()
        adj = self.grid.adjacency
        adjacent = row_norms(xs[adj[:, 0]] - xs[adj[:, 1]])
        return AtlasSummary(
            node_count=self.grid.node_count,
            resolution=self.grid.resolution,
            unconverged=len(self.failures),
            max_kkt_residual=max(pt.kkt_residual for pt in self.points),
            corank_histogram=hist,
            dominance_violations=len(dominating_pairs(self.f_array(), DOMINANCE_TOL)),
            min_pairwise_x_distance=_min_pair_distance(xs),
            max_adjacent_x_distance=float(adjacent.max(initial=0.0)),
        )

    def report_dict(self) -> dict:
        fam = getattr(self.problem, "family", None)
        nodes = []
        for i, pt in enumerate(self.points):
            nodes.append(
                {
                    "node": i,
                    "w": pt.weight.coordinates.tolist(),
                    "face": [j + 1 for j in self.grid.face_of(i)],
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
            "n": self.problem.n,
            "m": self.problem.m,
            "resolution": self.grid.resolution,
            "tolerances": {
                "grad_tol": self.config.grad_tol,
                "rank_tol": self.config.rank_tol,
            },
            "summary": self.summary.as_dict(),
            "failures": self.failures,
            "nodes": nodes,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.report_dict(), fh, indent=2)

    def to_csv(self, path) -> None:
        """Delimited export, one row per node.

        Columns: w_1..w_m, x_1..x_n, f_1..f_m, kkt_residual, corank, face
        (face is the 1-based support, ';'-separated).
        """
        m, n = self.problem.m, self.problem.n
        header = (
            [f"w_{i + 1}" for i in range(m)]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"f_{i + 1}" for i in range(m)]
            + ["kkt_residual", "corank", "face"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, pt in enumerate(self.points):
                row = (
                    [f"{v:.17g}" for v in pt.weight.coordinates]
                    + [f"{v:.17g}" for v in pt.x]
                    + [f"{v:.17g}" for v in pt.fx]
                    + [f"{pt.kkt_residual:.17g}", str(pt.corank),
                       _face_label(self.grid.face_of(i))]
                )
                writer.writerow(row)


def solve_grid(problem, grid: SimplexGrid, config: SolverConfig = DEFAULT_CONFIG,
               linear: np.ndarray | None = None) -> NewtonResult:
    """Minimizers at every grid node, one breadth-first level at a time.

    Each level of ``SimplexGrid.levels`` is one Newton batch, warm-started
    from the parents' minimizers.  With ``linear`` of shape (T, m, n) the
    grid is solved for each of the T problems f_i + linear[t, i] . x, every
    level still one batch, and the result has T * N rows, problem-major.
    """
    levels, parents = grid.levels()
    terms = 1 if linear is None else len(linear)
    shape = (terms, grid.node_count)
    x = np.empty(shape + (problem.n,))
    res, tol = np.empty(shape), np.empty(shape)
    iterations = np.empty(shape, dtype=int)
    for level in levels:
        warm = x[:, parents[level]].reshape(-1, problem.n) if parents[level[0]] >= 0 else None
        rows = None if linear is None else np.repeat(linear, len(level), axis=0)
        result = minimize_weighted(problem, np.tile(grid.weights[level], (terms, 1)), config,
                                   x0=warm, linear=rows)
        for out, got in zip((x, res, iterations, tol), result):
            out[:, level] = got.reshape((terms, len(level)) + got.shape[1:])
    return NewtonResult(x.reshape(-1, problem.n), res.ravel(), iterations.ravel(), tol.ravel())


def build_atlas(problem, resolution: int, config: SolverConfig = DEFAULT_CONFIG) -> ParetoAtlas:
    """Solve every grid node, one breadth-first level at a time (``solve_grid``).

    Nodes that exhaust the iteration budget are recorded in ``failures``
    (corank -1), not raised.
    """
    grid = SimplexGrid(problem.m, resolution)
    result = solve_grid(problem, grid, config)
    weights = [grid.weight_of(i) for i in range(grid.node_count)]
    points = pareto_points(problem, weights, result, config.rank_tol)
    failures = np.flatnonzero(result.residual > result.tol).tolist()
    return ParetoAtlas(problem, grid, points, config, failures)


@dataclass
class FaceConsistencyReport:
    """Agreement between boundary-node solutions and face subproblems."""

    consistent: bool
    max_discrepancy: float
    tolerance: float
    checked: int
    worst_node: int | None
    per_face: dict[tuple[int, ...], float]


def face_consistency(atlas: ParetoAtlas, config: SolverConfig | None = None) -> FaceConsistencyReport:
    """Re-solve every boundary node as a subproblem of its face.

    The subproblem solves start cold (no warm start from the atlas), so the
    comparison is a genuinely independent route to the same minimizer; each
    proper face is one Newton batch.  The acceptance tolerance is 10x the
    scaled gradient tolerance: for strongly convex objectives the minimizer
    displacement is bounded by the residual over the convexity constant.
    """
    config = config or atlas.config
    grid = atlas.grid
    boundary = np.flatnonzero((grid.nodes == 0).any(axis=1))
    faces: dict[tuple[int, ...], list[int]] = {}
    for i in boundary.tolist():
        faces.setdefault(grid.face_of(i), []).append(i)
    xs = atlas.x_array()
    gaps = np.zeros(grid.node_count)
    per_face: dict[tuple[int, ...], float] = {}
    tolerance = 0.0
    for face, nodes in faces.items():
        sub = minimize_weighted(restrict(atlas.problem, face), grid.weights[np.ix_(nodes, face)],
                                config)
        raise_unconverged(sub)
        gaps[nodes] = row_norms(xs[nodes] - sub.x)
        per_face[face] = float(gaps[nodes].max())
        worst_tol = max(max(atlas.points[i].grad_tol for i in nodes), float(sub.tol.max()))
        tolerance = max(tolerance, 10.0 * worst_tol)
    worst = float(gaps.max())
    worst_node = int(np.argmax(gaps)) if worst > 0.0 else None
    return FaceConsistencyReport(
        consistent=worst <= tolerance,
        max_discrepancy=worst,
        tolerance=tolerance,
        checked=int(boundary.size),
        worst_node=worst_node,
        per_face=per_face,
    )


@dataclass
class InjectivityReport:
    """Collapsed node pairs: far apart in weight, same minimizer."""

    injective_on_sample: bool
    collapsed_pairs: list[tuple[int, int]]
    collapse_tol: float
    weight_threshold: float

    def pair_weights(self, atlas: ParetoAtlas):
        return [
            (atlas.grid.weights[a].copy(), atlas.grid.weights[b].copy())
            for a, b in self.collapsed_pairs
        ]


def injectivity_scan(atlas: ParetoAtlas, collapse_tol: float = 1e-6) -> InjectivityReport:
    """Find weight pairs more than two grid steps apart mapping to one point.

    Adjacent or nearly-adjacent nodes legitimately map to nearby minimizers,
    so only pairs with weight distance above twice the grid step count as
    collapses.
    """
    xs = atlas.x_array()
    ws = atlas.grid.weights
    threshold = 2.0 * atlas.grid.step * (1.0 + 1e-9)
    # The tree's distances may differ from _pair_distances in the last bit,
    # so search a hair wider and decide on the recomputed distances.
    radius = max(collapse_tol, 0.0) * (1.0 + 1e-9)
    near = cKDTree(xs).query_pairs(radius, output_type="ndarray")
    a, b = near[:, 0], near[:, 1]
    keep = (_pair_distances(xs[a], xs[b]) <= collapse_tol) & (
        _pair_distances(ws[a], ws[b]) > threshold)
    a, b = a[keep], b[keep]
    order = np.lexsort((b, a))
    pairs = list(zip(a[order].tolist(), b[order].tolist()))
    return InjectivityReport(
        injective_on_sample=not pairs,
        collapsed_pairs=pairs,
        collapse_tol=collapse_tol,
        weight_threshold=threshold,
    )
