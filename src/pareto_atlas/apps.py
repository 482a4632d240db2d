"""Application instances: facility location, anisotropic traits, ridge paths.

These wire the atlas machinery to families with known structure, and check
the computed sets against independent routes (closed forms, hull membership
by linear programming, normal-equation solves).  A ridge path runs on a
``problems.RidgePair``; ``read_ridge_csv`` reads one from a CSV file.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .atlas import (
    FaceConsistencyReport,
    InjectivityReport,
    ParetoAtlas,
    build_atlas,
    face_consistency,
    injectivity_scan,
    solve_grid,
)
from .diagnostics import CorankCertificate, certify_corank_on_atlas, numerical_rank
from .problems import DistanceSquared, Phenotypic, RidgePair, build_problem
from .solver import DEFAULT_CONFIG, SolverConfig, raise_unconverged

__all__ = [
    "LocationInstance",
    "LocationReport",
    "location_pareto_set",
    "PhenotypicReport",
    "phenotypic_pareto_set",
    "read_ridge_csv",
    "RidgePathRow",
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

    @property
    def general_position(self) -> bool:
        """Affine independence of the demand points at the default ``rank_tol``."""
        return self.affinely_independent(DEFAULT_CONFIG.rank_tol)

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
# Anisotropic squared distances
# ---------------------------------------------------------------------------


@dataclass
class PhenotypicReport:
    atlas: ParetoAtlas
    corank_certificate: CorankCertificate
    face_report: FaceConsistencyReport
    weakly_simplicial_on_sample: bool

    def as_dict(self) -> dict:
        return {
            "schema": "pareto-atlas/phenotypic-v1",
            "weakly_simplicial_on_sample": self.weakly_simplicial_on_sample,
            "corank": {
                "tolerance": self.corank_certificate.tolerance,
                "max_corank": self.corank_certificate.max_corank,
                "witnesses": self.corank_certificate.witnesses,
            },
            "face_consistency": {
                "consistent": self.face_report.consistent,
                "max_discrepancy": self.face_report.max_discrepancy,
                "tolerance": self.face_report.tolerance,
                "checked": self.face_report.checked,
            },
            "summary": self.atlas.summary.as_dict(),
        }


def phenotypic_pareto_set(
    mats,
    points,
    resolution: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> PhenotypicReport:
    """Atlas plus per-instance certificates for anisotropic distances.

    The verdict is sampled: corank <= 1 at every node and face-nesting
    consistency on every boundary node.  It holds for the instance at this
    resolution; it is not a statement about the family.
    """
    problem = build_problem(Phenotypic(mats, points))
    atlas = build_atlas(problem, resolution, config)
    cert = certify_corank_on_atlas(atlas)
    faces = face_consistency(atlas)
    return PhenotypicReport(
        atlas=atlas,
        corank_certificate=cert,
        face_report=faces,
        weakly_simplicial_on_sample=cert.simplicial_on_sample and faces.consistent,
    )


# ---------------------------------------------------------------------------
# Ridge regularization paths
# ---------------------------------------------------------------------------


def read_ridge_csv(path, mu: float) -> RidgePair:
    """The ridge family of a numeric CSV: feature columns, then the response.

    A non-numeric first row is treated as a header and skipped.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1
    data = np.array([[float(v) for v in row] for row in rows[start:] if row])
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a response")
    return RidgePair(data[:, :-1], data[:, -1], mu)


def ridge_lambda(w1: float, w2: float, mu: float) -> float:
    """Regularization strength mu + w2/w1, with w1 clamped at machine epsilon."""
    return mu + w2 / max(w1, np.finfo(float).eps)


@dataclass
class RidgePathRow:
    w1: float
    w2: float
    lam: float
    theta: np.ndarray
    kkt_residual: float
    oracle_gap: float  # distance to the normal-equations solution


@dataclass
class RidgePathReport:
    mu: float
    resolution: int
    rows: list[RidgePathRow]
    max_oracle_gap: float

    def theta_norms(self) -> np.ndarray:
        return np.array([np.linalg.norm(r.theta) for r in self.rows])

    def lambdas(self) -> np.ndarray:
        return np.array([r.lam for r in self.rows])


def ridge_path(
    pair: RidgePair,
    resolution: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> RidgePathReport:
    """Sweep the two-objective trade-off of ``pair`` from pure fit to pure shrinkage.

    Rows go from w = (1, 0) to w = (1/r, 1 - 1/r), then the w1 = 0 vertex
    with lambda = inf and theta = 0; all rows are one ``solve_grid`` call.  Every
    solved theta is compared against an independent normal-equations solve
    of (X^T X + lambda I) theta = X^T y.  Raises ValueError for a resolution
    below 1, which would leave only the w1 = 0 vertex.
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
    rows: list[RidgePathRow] = []
    for (a, b), theta, residual in zip(weights, solved.x, solved.residual):
        lam = ridge_lambda(a, b, pair.mu) if a > 0.0 else np.inf
        oracle = np.linalg.solve(xtx + lam * np.eye(problem.n), xty) if a > 0.0 else 0.0
        rows.append(
            RidgePathRow(
                w1=float(a),
                w2=float(b),
                lam=float(lam),
                theta=theta,
                kkt_residual=float(residual),
                oracle_gap=float(np.linalg.norm(theta - oracle)),
            )
        )
    return RidgePathReport(
        mu=pair.mu,
        resolution=resolution,
        rows=rows,
        max_oracle_gap=max(r.oracle_gap for r in rows),
    )


def write_ridge_csv(report: RidgePathReport, path) -> None:
    """Columns: w1, w2, lambda, theta_1..theta_p, residual."""
    p = report.rows[0].theta.size
    header = ["w1", "w2", "lambda"] + [f"theta_{i + 1}" for i in range(p)] + ["residual"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in report.rows:
            writer.writerow(
                [f"{r.w1:.17g}", f"{r.w2:.17g}", f"{r.lam:.17g}"]
                + [f"{v:.17g}" for v in r.theta]
                + [f"{r.kkt_residual:.17g}"]
            )
