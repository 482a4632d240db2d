"""Atlas of Pareto points over a barycentric grid on the weight simplex.

The grid puts nodes at integer combinations k/r (k nonnegative integers
summing to r).  Every node is its own strongly convex problem, solved cold
from the same start, so a node's minimizer depends on its weight alone; the
nodes go through the Newton solver in fixed-size batches.
"""
from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

from .diagnostics import numerical_rank
from .ordering import DOMINANCE_TOL, dominating_pairs
from .problems import strong_convexity_constant
from .solver import (
    DEFAULT_CONFIG,
    NewtonResult,
    ParetoPoint,
    SolverConfig,
    minimize_weighted,
    pareto_columns,
    row_norms,
)

# Cap on rows * m * n^2 in one Newton batch of ``solve_grid``: the entries of
# a stack of per-row, per-objective Hessians.
BLOCK_ENTRIES = 2 ** 20
# Rows per block of the CSV and JSON exports, which hold one block's text at a time.
EXPORT_ROWS = 256

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
    """Barycentric integer grid of resolution r on the (m-1)-simplex.

    ``nodes`` and ``weights`` are read-only, since the atlas columns, the
    certificates and each ``ParetoPoint.weight`` share their rows.
    """

    def __init__(self, m: int, resolution: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.m = m
        self.resolution = resolution
        self.nodes = _compositions(resolution, m)
        self.weights = self.nodes / float(resolution)
        self.nodes.flags.writeable = self.weights.flags.writeable = False

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def faces(self) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The distinct node supports (0-based faces) in order of first
        appearance, and for each node the index of its support in that list."""
        masks, first, which = np.unique(self.nodes > 0, axis=0, return_index=True,
                                        return_inverse=True)
        order = np.argsort(first)
        return ([tuple(np.flatnonzero(masks[k]).tolist()) for k in order],
                np.argsort(order)[which])

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Each adjacent pair (i, j), i < j, once; an (E, 2) array in sorted order.
        A unit moved from coordinate a to a later b gives a lexicographically
        smaller node, so the moves with a < b list each pair once, as (moved, node)."""
        pairs = [np.empty((0, 2), dtype=int)]
        for a, b in combinations(range(self.m), 2):
            src = np.flatnonzero(self.nodes[:, a])
            moved = self.nodes[src]
            moved[:, a] -= 1
            moved[:, b] += 1
            pairs.append(np.column_stack([_lex_rank(moved, self.resolution), src]))
        pairs = np.concatenate(pairs)
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

    def bfs_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first visit order from the node nearest the barycenter, and
        each node's parent (-1 for the start).

        A CSR row holds its columns in index order, so SciPy's search visits
        each node's neighbours in the order of a FIFO queue over sorted
        neighbour lists.  The solver does not use it: every node is solved cold.
        """
        from scipy.sparse import csgraph, csr_array
        center = np.full(self.m, 1.0 / self.m)
        start = int(np.argmin(np.linalg.norm(self.weights - center, axis=1)))
        i, j = self.adjacency.T
        edges = (np.ones(2 * len(i)), (np.concatenate([i, j]), np.concatenate([j, i])))
        graph = csr_array(edges, shape=(self.node_count,) * 2)
        order, parent = csgraph.breadth_first_order(graph, start, directed=True)
        return order.astype(int), np.where(parent < 0, -1, parent).astype(int)


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


def _close_pairs(xs: np.ndarray, radius: float, shrink: bool = False):
    """Candidate pairs of rows of ``xs`` for distance ``radius``: index arrays
    a < b and the ``_pair_distances`` of each pair.

    Every pair at distance <= ``radius`` is among them.  Sort and sweep
    (Friedman, Baskett & Shustek 1975): the rows are sorted by their
    projection p on the leading principal axis, and sorted row i meets row
    i + k, k = 1, 2, ..., while p[i + k] - p[i] stays within the radius plus
    the rounding bound below.  That gap only grows with k, so a row that
    leaves the sweep never comes back and the work is O(N + candidates).
    The projection on the second axis screens the candidates before their
    distances are taken: the remark_g atlas at r = 100 has 2,601 rows on
    one plane orthogonal to the first axis.  With ``shrink`` the radius
    follows the smallest distance found, and the sweep stops at 0.
    """
    if not np.isfinite(xs).all():
        raise ValueError("pair search needs finite rows")
    count, n = xs.shape
    none = np.empty(0, dtype=int)
    found = [(none, none, np.empty(0))]
    if count < 2 or radius < 0.0:
        return found[0]
    lead, *rest = np.linalg.svd(xs - xs.mean(axis=0), full_matrices=False)[2]

    def project(axis):  # one column at a time, so equal rows project equally
        p = np.zeros(count)
        for a_c, col in zip(axis, xs.T):
            p += a_c * col
        return p

    proj = project(lead)
    order = np.argsort(proj, kind="stable")
    proj, screen, rows = proj[order], project(rest[0] if rest else lead)[order], xs[order]
    # A projection is a sum of n rounded products, off by at most
    # n * eps/2 * |x_i|.  |x_i - x_j| exceeds its _pair_distances by at most
    # a factor 1 + (n + 2) * eps/2, plus sqrt(n * smallest subnormal) where
    # the squares underflow.  gap_limit covers all three with room.
    slack = 2.0 * (n + 2) * np.finfo(float).eps
    floor = 2.0 * np.sqrt(n * np.finfo(float).smallest_subnormal)
    norm = float(row_norms(xs).max())

    def gap_limit(r):
        return r + slack * (r + norm) + floor

    active = np.arange(count - 1)  # sorted positions still in the sweep
    for k in range(1, count):
        limit = gap_limit(radius)
        active = active[:np.searchsorted(active, count - k)]
        active = active[proj[active + k] - proj[active] <= limit]
        if not active.size:
            break
        near = active[np.abs(screen[active + k] - screen[active]) <= limit]
        d = _pair_distances(rows[near], rows[near + k])
        if shrink and d.size:
            radius = min(radius, float(d.min()))
            limit = gap_limit(radius)
        keep = d <= limit
        found.append((near[keep], near[keep] + k, d[keep]))
        if shrink and radius == 0.0:
            break
    i, j, d = (np.concatenate(part) for part in zip(*found))
    a, b = order[i], order[j]
    return np.minimum(a, b), np.maximum(a, b), d


def _min_pair_distance(xs: np.ndarray, radius: float = np.inf) -> float:
    """Smallest ``_pair_distances`` between two rows of ``xs`` (inf for fewer
    than two); ``radius``, the distance of some pair, starts the search."""
    return float(_close_pairs(xs, radius, shrink=True)[2].min(initial=np.inf))


def _json_rows(columns: dict[str, list], indent: str) -> str:
    """``json.dumps(rows, indent=2)`` nested at ``indent``, without its brackets,
    for the rows whose key columns are ``columns``: each nonempty and holding
    numbers, booleans or flat lists of them.  The C encoder writes each column
    in one call (``indent`` would turn it off); only the line breaks are added."""
    row_indent, cell_indent, item_indent = (indent + "  " * k for k in (1, 2, 3))
    cells = []
    for key, column in columns.items():
        text = json.dumps(column)
        if isinstance(column[0], list):  # "[[a, b], [c]]"
            items = [f"[{item_indent}{items.replace(', ', ',' + item_indent)}{cell_indent}]"
                     if items else "[]" for items in text[2:-2].split("], [")]
        else:  # "[a, b, c]"
            items = text[1:-1].split(", ")
        prefix = f"{cell_indent}{json.dumps(key)}: "
        cells.append([prefix + item for item in items])
    return ",".join(f"{row_indent}{{{','.join(row)}{row_indent}}}" for row in zip(*cells))


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
        if self.node_count < 2:  # no pair, and JSON has no Infinity
            d["min_pairwise_x_distance"] = None
        return d


class ParetoAtlas:
    """Solved grid, one row per node in every column, aligned with ``grid.nodes``.

    Columns: ``x`` (N, n) minimizers, ``f`` (N, m) values, ``residual`` and
    ``grad_tol`` (the final gradient norm and the scaled tolerance it was
    held to), ``iterations``, ``sv`` (N, min(m, n)) Jacobian singular
    values, ``corank`` (-1 where unconverged) and ``converged``.
    """

    def __init__(self, problem, grid: SimplexGrid, result: NewtonResult, config: SolverConfig):
        self.problem = problem
        self.grid = grid
        self.config = config
        self.x, self.residual, self.iterations, self.grad_tol = result
        self.f, self.sv, self.corank, self.converged = pareto_columns(problem, result,
                                                                      config.rank_tol)
        self.failures = np.flatnonzero(~self.converged).tolist()

    @property
    def points(self) -> list[ParetoPoint]:
        """One ParetoPoint per node, built from the columns on every call.

        Kept for readers of the per-node form outside the package (the
        benchmark tracer sums ``iterations`` through it); the package
        itself reads the columns.
        """
        columns = (self.x, self.f, self.residual.tolist(), self.sv, self.corank.tolist(),
                   self.iterations.tolist(), self.grad_tol.tolist(), self.converged.tolist())
        return [ParetoPoint(w, *row) for w, *row in zip(self.grid.weights, *columns)]

    @cached_property
    def summary(self) -> AtlasSummary:
        xs, adj = self.x, self.grid.adjacency
        adjacent = row_norms(xs[adj[:, 0]] - xs[adj[:, 1]])
        nearest = _min_pair_distance(xs, float(adjacent.min(initial=np.inf)))
        return AtlasSummary(
            node_count=self.grid.node_count,
            resolution=self.grid.resolution,
            unconverged=len(self.failures),
            max_kkt_residual=float(self.residual.max()),
            # keys in order of first appearance, the order the run documents list them in
            corank_histogram=dict(Counter(self.corank.tolist())),
            dominance_violations=len(self._dominating_pairs()),
            min_pairwise_x_distance=nearest,
            max_adjacent_x_distance=float(adjacent.max(initial=0.0)),
        )

    def _dominating_pairs(self) -> list[tuple[int, int]]:
        """``dominating_pairs`` of ``f``.  If row i dominates row j within tau
        (``DOMINANCE_TOL`` plus the rounding of f at both rows), then g = w_j .
        f, which is beta-strongly convex with gradient r_j at x_j, has g(x_i)
        <= g(x_j) + tau, so d = |x_i - x_j| has beta/2 d^2 - r_j d <= tau
        (Nesterov 2004, sec. 2.1).  One ``_close_pairs`` sweep at the largest
        such d over the converged rows finds the candidates; every other row,
        and every row without an exact beta, is compared with all rows."""
        beta = strong_convexity_constant(self.problem)
        if beta is None:
            return dominating_pairs(self.f)
        # f_i(x) = c_i + b_i . x + x.Q_i x / 2 rounds by eps times its terms,
        # which can cancel to a far smaller f; c, b and Q are f, J and H at 0
        c, b, q = (part[0] for part in self.problem.evaluate(np.zeros((1, self.problem.n))))
        s = row_norms(self.x)[:, None]
        terms = (np.abs(c) + np.linalg.norm(b, axis=1) * s
                 + np.linalg.norm(q, axis=(1, 2)) / 2 * s * s)
        tau = DOMINANCE_TOL + 2.0 * np.finfo(float).eps * terms.max(initial=0.0)
        radius = (self.residual + np.sqrt(self.residual ** 2 + 2.0 * beta * tau)) / beta
        held = self.converged & np.isfinite(self.f).all(axis=1)
        i, j, _ = _close_pairs(self.x, float(radius[held].max(initial=-1.0)))
        return dominating_pairs(self.f, near=(i, j), everywhere=np.flatnonzero(~held))

    def _node_blocks(self):
        """The node table ``EXPORT_ROWS`` rows at a time: each block's first
        row and its key columns as lists (``face`` 1-based), in file order."""
        faces, which = self.grid.faces()
        faces = [[j + 1 for j in face] for face in faces]
        for start in range(0, self.grid.node_count, EXPORT_ROWS):
            rows = slice(start, start + EXPORT_ROWS)
            yield start, {
                "node": list(range(self.grid.node_count)[rows]),
                "w": self.grid.weights[rows].tolist(),
                "face": [faces[k] for k in which[rows].tolist()],
                "x": self.x[rows].tolist(),
                "f": self.f[rows].tolist(),
                "kkt_residual": self.residual[rows].tolist(),
                "singular_values": self.sv[rows].tolist(),
                "corank": self.corank[rows].tolist(),
                "converged": self.converged[rows].tolist(),
            }

    def to_json(self, path) -> None:
        """Write ``json.dumps(doc, indent=2)`` byte for byte, ``doc`` being the
        header below plus ``"nodes"``.  Only the header goes through the slow
        indenting encoder; the node table is written block by block."""
        head = json.dumps({
            "schema": "pareto-atlas/atlas-v1", "family": getattr(self.problem, "tag", None),
            "n": self.problem.n, "m": self.problem.m, "resolution": self.grid.resolution,
            "tolerances": {"grad_tol": self.config.grad_tol, "rank_tol": self.config.rank_tol},
            "summary": self.summary.as_dict(), "failures": self.failures}, indent=2)
        with open(path, "w") as fh:
            fh.write(head[:-len("\n}")] + ',\n  "nodes": [')
            for start, columns in self._node_blocks():
                fh.write(("," if start else "") + _json_rows(columns, "\n  "))
            fh.write("\n  ]\n}")

    def to_csv(self, path) -> None:
        """Delimited export, one row per node, written block by block.

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
            for _, c in self._node_blocks():
                rows = zip(c["w"], c["x"], c["f"], c["kkt_residual"], c["corank"], c["face"])
                writer.writerows([format(v, ".17g") for v in (*w, *x, *f, r)]
                                 + [str(k), ";".join(map(str, face))]
                                 for w, x, f, r, k, face in rows)


def solve_grid(problem, weights: np.ndarray, config: SolverConfig = DEFAULT_CONFIG,
               linear: np.ndarray | None = None) -> NewtonResult:
    """Minimizers for every row of an (N, m) weight stack, each solved cold
    (``minimize_weighted`` with no start point).

    With ``linear`` of shape (T, m, n) the weights are solved for each of
    the T problems f_i + linear[t, i] . x, and the result has T * N rows,
    problem-major.  The rows go through the solver in blocks of at most
    ``BLOCK_ENTRIES`` // (m n^2) rows, so memory stays bounded as N grows;
    no row depends on which block it is in.
    """
    count = len(weights)
    total = count * (1 if linear is None else len(linear))
    size = max(1, BLOCK_ENTRIES // (problem.m * problem.n ** 2))
    out = NewtonResult(np.empty((total, problem.n)), np.empty(total),
                       np.empty(total, dtype=int), np.empty(total))
    for first in range(0, total, size):
        rows = np.arange(first, min(first + size, total))
        block = minimize_weighted(problem, weights[rows % count], config,
                                  linear=None if linear is None else linear[rows // count])
        for field, got in zip(out, block):
            field[rows] = got
    return out


def build_atlas(problem, resolution: int, config: SolverConfig = DEFAULT_CONFIG) -> ParetoAtlas:
    """Solve every grid node cold (``solve_grid``).

    Nodes that exhaust the iteration budget are recorded in ``failures``
    (corank -1), not raised.
    """
    grid = SimplexGrid(problem.m, resolution)
    return ParetoAtlas(problem, grid, solve_grid(problem, grid.weights, config), config)


@dataclass
class FaceConsistencyReport:
    """How far the weight making each boundary node's x critical may lie off
    the node's face; ``max_discrepancy`` and ``tolerance`` are ``worst_node``'s."""

    consistent: bool
    max_discrepancy: float
    tolerance: float
    checked: int
    worst_node: int | None
    unjudged: list[int]  # boundary nodes below rank m - 1


def face_consistency(atlas: ParetoAtlas) -> FaceConsistencyReport:
    """Check that each boundary node's stored x is critical for its face, from
    the Jacobians at ``atlas.x`` and ``atlas.sv``; nothing is solved.

    rho_k = |J_k^T w_k| is held to the solver's residual r_k at that x plus
    c_k = m eps sigma_1, which covers the rounding of that product and of
    ``atlas.sv``, so an x moved since the solve fails, however loose
    ``grad_tol`` was.  Where J_k has rank
    m - 1 its left null vector u gives w(x_k) = u / sum(u).  With w_k =
    (w_k . u) u + e, |J_k^T w_k| >= sigma_{m-1} |e|, and off the face, where
    w_k is 0, (w_k . u) u = -e.  So the part of (w_k . u) u off the face is
    at most b_k = (rho_k + c_k) / (sigma_{m-1} - eps sigma_1), reported
    against the b_k of a node at its allowance.  Nodes below rank m - 1 are
    not judged (the corank certificate fails there).  The worst node is
    nearest its bound, as a fraction of it.
    """
    grid, m, eps = atlas.grid, atlas.grid.m, np.finfo(float).eps
    nodes = np.flatnonzero((grid.nodes == 0).any(axis=1))
    # a rank threshold of at least eps keeps sigma_{m-1} - eps sigma_1 positive
    judged = numerical_rank(atlas.sv[nodes], max(atlas.config.rank_tol, eps)) >= m - 1
    unjudged = nodes[~judged].tolist()
    if not judged.any():
        return FaceConsistencyReport(True, 0.0, 0.0, 0, None, unjudged)
    nodes = nodes[judged]
    sv, w = atlas.sv[nodes], grid.weights[nodes]
    jac = atlas.problem.evaluate(atlas.x[nodes])[1]
    rho = row_norms(np.matmul(w[:, None, :], jac)[:, 0, :])
    rounding, sigma = m * eps * sv[:, 0], sv[:, m - 2] - eps * sv[:, 0]
    gaps = (rho + rounding) / sigma
    bounds = (atlas.residual[nodes] + 2.0 * rounding) / sigma
    worst = int(np.argmax(gaps / bounds))
    return FaceConsistencyReport(bool((gaps <= bounds).all()), float(gaps[worst]),
                                 float(bounds[worst]), nodes.size, int(nodes[worst]), unjudged)


@dataclass
class InjectivityReport:
    """Collapsed node pairs: far apart in weight, same minimizer."""

    injective_on_sample: bool
    collapsed_pairs: list[tuple[int, int]]
    collapse_tol: float


def injectivity_scan(atlas: ParetoAtlas, collapse_tol: float = 1e-6) -> InjectivityReport:
    """Find weight pairs more than two grid moves apart mapping to one point.

    Adjacent or nearly-adjacent nodes legitimately map to nearby minimizers,
    so only pairs with weight distance above twice the length sqrt(2)/r of a
    grid move count as collapses: integer nodes at squared distance above 8.
    """
    nodes = atlas.grid.nodes
    a, b, d = _close_pairs(atlas.x, collapse_tol)
    keep = (d <= collapse_tol) & (np.square(nodes[a] - nodes[b]).sum(axis=1) > 8)
    a, b = a[keep], b[keep]
    order = np.lexsort((b, a))
    pairs = list(zip(a[order].tolist(), b[order].tolist()))
    return InjectivityReport(injective_on_sample=not pairs, collapsed_pairs=pairs,
                             collapse_tol=collapse_tol)
