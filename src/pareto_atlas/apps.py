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
)
from .diagnostics import CorankCertificate, certify_corank_on_atlas
from .problems import DistanceSquared, Phenotypic, RidgePair, build_problem
from .solver import DEFAULT_CONFIG, SolverConfig, minimize_weighted, raise_unconverged

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
        """Affine independence of the demand points."""
        p = self.points
        if p.shape[0] == 1:
            return True
        span = p[1:] - p[0]
        sv = np.linalg.svd(span, compute_uv=False)
        return bool(sv.size == p.shape[0] - 1 and sv[-1] > 1e-9 * max(sv[0], 1.0))


def _hull_violation(points: np.ndarray, x: np.ndarray) -> float:
    """Distance (inf-norm) from x to the convex hull of the rows, by LP.

    Minimizes t subject to |P^T lam - x|_inf <= t over barycentric lam.
    """
    from scipy.optimize import linprog

    m, n = points.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    rows = []
    rhs = []
    for j in range(n):
        rows.append(np.concatenate([points[:, j], [-1.0]]))
        rhs.append(x[j])
        rows.append(np.concatenate([-points[:, j], [-1.0]]))
        rhs.append(-x[j])
    a_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [(0.0, None)],
        method="highs",
    )
    if res.status != 0:
        return np.inf
    return float(res.x[-1])


# Fewest hull LPs worth a process of their own.  Measured on 2 cores with one
# BLAS thread: one LP takes about 1.8 ms, and a fork of the loaded (80 MB)
# interpreter that solves one LP and pipes it back takes about 12 ms, of which
# 4.5 ms is the bare fork round trip and the rest copy-on-write faults.  64
# LPs (about 0.12 s) make that overhead a tenth of a process's share, and
# runs with fewer than 2 * 64 rows, whose whole LP phase is near the noise
# of a run, stay in one process.
HULL_LP_GRAIN = 64


def _hull_violations_serial(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    return np.array([_hull_violation(points, x) for x in xs], dtype=float)


def _fork_hull_violations(points: np.ndarray, xs: np.ndarray):
    """Fork a child that solves the rows of ``xs``; return its pid and the
    read end of the pipe that carries its float64 values."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # child: never return, flush no inherited buffer, run no CLI code
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_hull_violations_serial(points, xs).tobytes())
            status = 0
        except BaseException:
            import traceback
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _hull_violations(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``_hull_violation`` of every row of ``xs``, one LP per row.

    The rows are cut into k = min(usable CPUs, rows // HULL_LP_GRAIN)
    contiguous slices; k - 1 forked children solve all but the first, which
    this process solves.  The values are those of the serial loop, bit for
    bit.  Every child is reaped before this returns or raises, and a child
    that fails or sends short data raises RuntimeError.
    """
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    k = min(len(os.sched_getaffinity(0)), len(xs) // HULL_LP_GRAIN) if forkable else 1
    if k < 2:
        return _hull_violations_serial(points, xs)
    cuts = [len(xs) * i // k for i in range(k + 1)]
    children = []  # (pid, read end of its pipe)
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork_hull_violations(points, xs[lo:hi]))
        first = _hull_violations_serial(points, xs[:cuts[1]])
        sent = [pipe.read() for _, pipe in children]
    except BaseException:  # the children's values are of no use now
        import signal
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), status, data, lo, hi in zip(children, statuses, sent, cuts[1:], cuts[2:]):
        if status != 0 or len(data) != 8 * (hi - lo):
            raise RuntimeError(f"hull LP child {pid} exited with status {status} after "
                               f"sending {len(data)} of {8 * (hi - lo)} bytes")
    return np.concatenate([first] + [np.frombuffer(data) for data in sent])


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
    report = LocationReport(atlas, instance.general_position, None, None, None, None)
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
    with lambda = inf and theta = 0; all rows are one Newton batch.  Every
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
    solved = minimize_weighted(problem, weights, config)
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
