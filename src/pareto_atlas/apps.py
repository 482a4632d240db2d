"""Application instances: facility location and ridge paths.

These wire the atlas machinery to families with known structure, and check
the computed sets against independent routes (closed forms, hull membership
by linear programming, normal-equation solves).  The biological model,
anisotropic squared distances to trait optima, has no closed form to check
against: it is the ``phenotypic`` problem family, and ``verify`` runs the
certificates on it as on any other problem.  A ridge path runs on a
``problems.RidgePair``; ``read_ridge_csv`` reads one from a CSV file.  Its
``RidgePathReport`` holds one array per field, row-aligned with the path
rows, and its normal-equations oracle solves one row at a time.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .atlas import InjectivityReport, ParetoAtlas, build_atlas, injectivity_scan, solve_grid
from .diagnostics import CorankCertificate, certify_corank_on_atlas, numerical_rank
from .problems import DistanceSquared, RidgePair, build_problem
from .solver import DEFAULT_CONFIG, SolverConfig, raise_unconverged, row_norms

__all__ = [
    "LocationInstance",
    "LocationReport",
    "location_pareto_set",
    "read_ridge_csv",
    "RidgePathReport",
    "ridge_lambda",
    "ridge_path",
    "write_ridge_csv",
]


def __getattr__(name):
    # ``apps.linprog`` stays resolvable because perfbench/tracing.py patches
    # it; the package imports linprog only where an LP is solved, so that
    # SciPy loads only there.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Facility location (squared Euclidean distances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocationInstance:
    """Demand points for the squared-distance location problem."""

    points: np.ndarray  # (m, n)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    def affinely_independent(self, rank_tol: float) -> bool:
        """The differences p_i - p_1 have numerical rank m - 1 at ``rank_tol``."""
        span = self.points[1:] - self.points[0]
        return bool(numerical_rank(np.linalg.svd(span, compute_uv=False), rank_tol) == len(span))


def _hull_violation(points: np.ndarray, x: np.ndarray) -> float:
    """Distance (inf-norm) from x to the convex hull of the rows, by LP.

    Minimizes t subject to |P^T lam - x|_inf <= t over barycentric lam.
    """
    from scipy.optimize import linprog

    m, n = points.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    # row 2j: (P^T lam)_j - t <= x_j; row 2j + 1: -(P^T lam)_j - t <= -x_j
    a_ub = np.hstack([points.T, -np.ones((n, 1)), -points.T, -np.ones((n, 1))]).reshape(2 * n, -1)
    a_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.column_stack([x, -x]).ravel(),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * (m + 1),
        method="highs",
    )
    if res.status != 0:
        return np.inf
    return float(res.x[-1])


# Fewest hull LPs worth a process of their own.  On 2 cores with one BLAS
# thread one LP takes about 2 ms, and a one-worker fork pool of the loaded
# (80 MB) interpreter that solves one LP about 16 ms, so 64 LPs make that
# overhead about a tenth of a worker's share; runs below 2 * 64 rows, whose
# whole LP phase is near the noise of a run, stay in one process.
HULL_LP_GRAIN = 64


def _hull_violations_serial(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    return np.array([_hull_violation(points, x) for x in xs], dtype=float)


def _hull_violations(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``_hull_violation`` of every row of ``xs``, one LP per row.

    The rows are cut into k = min(usable CPUs, rows // HULL_LP_GRAIN)
    contiguous slices; k - 1 forked pool workers solve all but the first,
    which this process solves meanwhile.  The values are those of the
    serial loop, bit for bit.  A worker's exception is raised here as
    itself and a worker that dies raises BrokenProcessPool; every worker
    has exited and been reaped before this returns or raises.
    """
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    k = min(len(os.sched_getaffinity(0)), len(xs) // HULL_LP_GRAIN) if forkable else 1
    if k < 2:
        return _hull_violations_serial(points, xs)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import scipy.optimize  # noqa: F401 -- loaded before the fork, so the workers inherit it

    cuts = [len(xs) * i // k for i in range(k + 1)]
    with ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        rest = [pool.submit(_hull_violations_serial, points, xs[lo:hi])
                for lo, hi in zip(cuts[1:-1], cuts[2:])]
        first = _hull_violations_serial(points, xs[:cuts[1]])
        return np.concatenate([first] + [future.result() for future in rest])


@dataclass
class LocationReport:
    """The atlas and its checks; the checks are None when a node failed to converge."""

    atlas: ParetoAtlas
    general_position: bool
    max_barycentric_error: float | None  # |x(w) - sum_i w_i p_i|, max over nodes
    max_hull_violation: float | None  # LP hull membership, max over nodes
    corank_certificate: CorankCertificate | None
    injectivity: InjectivityReport | None

    def as_dict(self) -> dict:
        return {
            "schema": "pareto-atlas/location-v1",
            "general_position": self.general_position,
            "max_barycentric_error": self.max_barycentric_error,
            "max_hull_violation": self.max_hull_violation,
            "corank": {
                "tolerance": self.corank_certificate.tolerance,
                "max_corank": self.corank_certificate.max_corank,
                "witnesses": self.corank_certificate.witnesses,
            },
            "injective_on_sample": self.injectivity.injective_on_sample,
            "summary": self.atlas.summary.as_dict(),
        }


def location_pareto_set(
    instance: LocationInstance,
    resolution: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> LocationReport:
    """Atlas for a location instance, checked two independent ways.

    The minimizer for weight w has the closed form sum_i w_i p_i, so every
    atlas point is compared against that barycenter and, separately, run
    through an LP membership test for the convex hull of the demand points.
    If any node fails to converge the report stops at the atlas: no check
    is run and their fields are None.
    """
    problem = build_problem(DistanceSquared(instance.points))
    atlas = build_atlas(problem, resolution, config)
    report = LocationReport(atlas, instance.affinely_independent(config.rank_tol), None, None,
                            None, None)
    if atlas.failures:
        return report
    xs = atlas.x
    expected = atlas.grid.weights @ instance.points
    report.max_barycentric_error = float(np.linalg.norm(xs - expected, axis=1).max())
    report.max_hull_violation = max(_hull_violations(instance.points, xs).tolist())
    report.corank_certificate = certify_corank_on_atlas(atlas)
    report.injectivity = injectivity_scan(atlas)
    return report


# ---------------------------------------------------------------------------
# Ridge regularization paths
# ---------------------------------------------------------------------------


def read_ridge_csv(path, mu: float) -> RidgePair:
    """The ridge family of a numeric CSV: feature columns, then the response.

    Empty lines and a non-numeric first row (a header) are skipped.  A row
    with another field count than the first data row's, or a non-number,
    is an error that names its line.
    """
    with open(path, newline="") as fh:
        rows = [(k, row) for k, row in enumerate(csv.reader(fh), 1) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    try:
        float(rows[0][1][0])
    except ValueError:
        del rows[0]
    width = len(rows[0][1]) if rows else 0
    if width < 2:
        raise ValueError(f"{path}: need at least one feature column plus a response")
    data = np.empty((len(rows), width))
    for i, (k, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {k} has {len(row)} fields, expected {width}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: row {k}: {exc}") from None
    return RidgePair(data[:, :-1], data[:, -1], mu)


def ridge_lambda(w1, w2, mu: float):
    """Regularization strength mu + w2/w1, with w1 clamped at machine epsilon
    (elementwise for arrays of weights)."""
    return mu + w2 / np.maximum(w1, np.finfo(float).eps)


@dataclass
class RidgePathReport:
    """One array per field, row-aligned with the path rows."""

    mu: float
    resolution: int
    weights: np.ndarray  # (N, 2) rows (w1, w2)
    lam: np.ndarray  # (N,) mu + w2/w1, inf at the w1 = 0 vertex
    theta: np.ndarray  # (N, p) solved coefficients
    residual: np.ndarray  # (N,) KKT residual of each solve
    oracle_gap: np.ndarray  # (N,) distance to the normal-equations solution

    @property
    def max_oracle_gap(self) -> float:
        return float(self.oracle_gap.max())


def ridge_path(
    pair: RidgePair,
    resolution: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> RidgePathReport:
    """Sweep the two-objective trade-off of ``pair`` from pure fit to pure shrinkage.

    Rows go from w = (1, 0) to w = (1/r, 1 - 1/r), then the w1 = 0 vertex
    with lambda = inf and theta = 0; all rows are one ``solve_grid`` call.  Every
    solved theta is compared against an independent normal-equations solve
    of (X^T X + lambda I) theta = X^T y, one row at a time.  Raises
    ValueError for a resolution below 1, which would leave only the w1 = 0
    vertex.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    problem = build_problem(pair)
    xtx = pair.x_data.T @ pair.x_data
    xty = pair.x_data.T @ pair.y_data
    w1 = np.append(np.arange(resolution, 0, -1) / resolution, 0.0)
    weights = np.column_stack([w1, 1.0 - w1])
    solved = solve_grid(problem, weights, config)
    raise_unconverged(solved)
    lam = np.append(ridge_lambda(w1[:-1], weights[:-1, 1], pair.mu), np.inf)
    oracle = np.zeros_like(solved.x)  # theta = 0 at the w1 = 0 vertex
    for k, shift in enumerate(lam[:-1]):
        oracle[k] = np.linalg.solve(xtx + shift * np.eye(problem.n), xty)
    return RidgePathReport(pair.mu, resolution, weights, lam, solved.x, solved.residual,
                           row_norms(solved.x - oracle))


def write_ridge_csv(report: RidgePathReport, path) -> None:
    """Columns: w1, w2, lambda, theta_1..theta_p, residual."""
    p = report.theta.shape[1]
    header = ["w1", "w2", "lambda"] + [f"theta_{i + 1}" for i in range(p)] + ["residual"]
    table = np.column_stack([report.weights, report.lam, report.theta, report.residual])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in table.tolist())
