"""Objective mappings: families of strongly convex C^2 functions on R^n.

Every family evaluates values, gradients and Hessians analytically (all
built-in families are quadratic polynomials, so the derivatives are exact),
for a whole stack of points in one ``evaluate`` call.  A problem is the
mapping f = (f_1, ..., f_m); the solver and atlas modules only ever touch it
through ``evaluate``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
import numpy as np

__all__ = [
    "ProblemFormatError",
    "Weight",
    "GenericQuadratic",
    "Example31",
    "Example31Perturbed",
    "Example32",
    "RemarkG",
    "DistanceSquared",
    "Phenotypic",
    "RidgePair",
    "Problem",
    "ConvexityCertificate",
    "build_problem",
    "restrict",
    "with_linear",
    "check_strong_convexity",
    "serialize_problem",
    "parse_problem",
    "builtin_problem",
    "BUILTIN_NAMES",
]

WEIGHT_SUM_TOL = 1e-12


class ProblemFormatError(ValueError):
    """Malformed problem description (bad shapes, non-PD matrix, bad JSON)."""


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ProblemFormatError(f"{name} must be a 2-d array, got shape {arr.shape}")
    return arr


def _require_symmetric_pd(mat: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.abs(mat).max()))
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * scale):
        raise ProblemFormatError(f"{name} must be symmetric")
    eigmin = float(np.linalg.eigvalsh(mat).min())
    if eigmin <= 0.0:
        raise ProblemFormatError(
            f"{name} must be positive definite (min eigenvalue {eigmin:.3e})"
        )


# ---------------------------------------------------------------------------
# Weights on the standard simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """A point of the weight simplex, optionally pinned to a face.

    ``coordinates`` is a length-m vector with nonnegative entries summing to
    one.  ``face`` is the sorted tuple of 0-based indices allowed to be
    nonzero; entries outside the face must be exactly zero.
    """

    coordinates: np.ndarray
    face: tuple[int, ...]

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "face", tuple(sorted(self.face)))
        if coords.ndim != 1 or coords.size == 0:
            raise ValueError("weight coordinates must be a nonempty vector")
        if not np.isfinite(coords).all():
            raise ValueError("weight coordinates must be finite")
        if abs(coords.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weight coordinates must sum to 1, got {coords.sum()!r}")
        if (coords < 0.0).any():
            raise ValueError("weight coordinates must be nonnegative")
        m = coords.size
        if any(i < 0 or i >= m for i in self.face):
            raise ValueError("face indices out of range")
        off_face = [i for i in range(m) if i not in self.face]
        if any(coords[i] != 0.0 for i in off_face):
            raise ValueError("coordinates outside the face must be zero")

    @classmethod
    def of(cls, coords) -> "Weight":
        """Build a weight whose face is the support of ``coords``."""
        arr = np.asarray(coords, dtype=float)
        support = tuple(int(i) for i in np.nonzero(arr)[0])
        return cls(arr, support if support else (0,))

    @property
    def m(self) -> int:
        return self.coordinates.size


# ---------------------------------------------------------------------------
# Problem families: each has one ``evaluate(X)`` (see Problem)
# ---------------------------------------------------------------------------


def _rowwise(mat: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """mat @ xs[k] for each row k, with ``mat`` one matrix or an (N, ...) stack
    of one per row; one product per row, so rows round alike in any batch."""
    return np.matmul(mat, xs[:, :, None])[:, :, 0]


def _constant(hessians) -> np.ndarray:
    """Read-only (1, m, n, n) view of Hessians that do not depend on x."""
    hessians = np.asarray(hessians, dtype=float)
    return np.broadcast_to(hessians, (1,) + hessians.shape)


@dataclass(frozen=True)
class GenericQuadratic:
    """Objectives f_i(x) = x.Q_i x / 2 + b_i.x + c_i with Q_i symmetric PD."""

    qs: np.ndarray  # (m, n, n)
    bs: np.ndarray  # (m, n)
    cs: np.ndarray  # (m,)

    tag = "generic_quadratic"

    def __post_init__(self):
        object.__setattr__(self, "qs", np.asarray(self.qs, dtype=float))
        object.__setattr__(self, "bs", np.asarray(self.bs, dtype=float))
        object.__setattr__(self, "cs", np.asarray(self.cs, dtype=float))

    @property
    def n(self) -> int:
        return self.qs.shape[-1]

    @property
    def m(self) -> int:
        return self.qs.shape[0]

    def validate(self):
        if self.qs.ndim != 3 or self.qs.shape[1] != self.qs.shape[2]:
            raise ProblemFormatError("q must have shape (m, n, n)")
        if self.bs.shape != (self.m, self.n) or self.cs.shape != (self.m,):
            raise ProblemFormatError("dimension mismatch between q, b and c")
        for i, q in enumerate(self.qs):
            _require_symmetric_pd(q, f"q[{i}]")

    def evaluate(self, xs):
        qx = np.einsum("kij,Nj->Nki", self.qs, xs)
        values = 0.5 * np.einsum("Ni,Nki->Nk", xs, qx) + _rowwise(self.bs, xs) + self.cs
        return values, qx + self.bs, _constant(self.qs)

    def payload(self) -> dict:
        return {"q": self.qs.tolist(), "b": self.bs.tolist(), "c": self.cs.tolist()}

    @classmethod
    def from_payload(cls, data: dict) -> "GenericQuadratic":
        return cls(
            _field(data, "q", "generic_quadratic"),
            _field(data, "b", "generic_quadratic"),
            _field(data, "c", "generic_quadratic"),
        )


class _FixedQuadratic:
    """A parameter-free quadratic family: ``_quadratic`` holds its data, so
    its JSON payload is empty and there is nothing to validate."""

    _quadratic: GenericQuadratic

    def validate(self):
        pass

    def evaluate(self, xs):
        return self._quadratic.evaluate(xs)

    def payload(self) -> dict:
        return {}

    @classmethod
    def from_payload(cls, data: dict):
        return cls()


@dataclass(frozen=True)
class Example31(_FixedQuadratic):
    """Three quadratics on R^3 whose optimal set pinches to a point.

    f_1 = |x|^2, f_2 = x_1 + x_2 + |x|^2, f_3 = -(x_1 + x_2) + |x|^2 + x_2^2.
    The weight-to-minimizer map collapses a whole line of weights to the
    origin, where the Jacobian of the mapping drops to corank 2.  Closed
    form of the scalarized minimizer: with d = w2 - w3,

        x(w) = (-d/2, -d / (2 (1 + w3)), 0).
    """

    tag = "example31"
    n = 3
    m = 3

    _quadratic = GenericQuadratic(
        [np.diag([2.0, 2.0, 2.0]), np.diag([2.0, 2.0, 2.0]), np.diag([2.0, 4.0, 2.0])],
        [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]],
        np.zeros(3),
    )

    def minimizer(self, w2: float, w3: float) -> np.ndarray:
        """Closed-form scalarized minimizer, parametrized by (w2, w3)."""
        d = w2 - w3
        return np.array([-d / 2.0, -d / (2.0 * (1.0 + w3)), 0.0])


@dataclass(frozen=True)
class Example31Perturbed:
    """The pinch family with a linear term eps*z added to the first objective.

    Any nonzero ``epsilon`` removes the corank-2 point: the minimizer map
    becomes injective with corank 1 everywhere.
    """

    epsilon: float

    tag = "example31_perturbed"
    n = 3
    m = 3

    _base = Example31()

    def validate(self):
        if self.epsilon == 0.0:
            raise ProblemFormatError("epsilon must be nonzero")

    def evaluate(self, xs):
        values, jac, hess = self._base.evaluate(xs)
        values[:, 0] += self.epsilon * xs[:, 2]
        jac[:, 0, 2] += self.epsilon
        return values, jac, hess

    def payload(self) -> dict:
        return {"epsilon": self.epsilon}

    @classmethod
    def from_payload(cls, data: dict) -> "Example31Perturbed":
        return cls(float(_field(data, "epsilon", "example31_perturbed")))


@dataclass(frozen=True)
class Example32(_FixedQuadratic):
    """Three coupled quadratics on R^3 with corank 1 along the whole optimal set.

    f_1 = x_1^2 + (x_1 - x_2)^2 + x_3^2, f_2 = 2 (x_1 - 1)^2 + (x_1 - x_2 - 1)^2
    + x_3^2, f_3 = (x_1 - 2)^2 + (x_1 + x_2 - 2)^2 + x_3^2.  The individual
    minimizers are collinear, yet the weight-to-minimizer map is injective;
    rank never drops below 2 on the optimal set.
    """

    tag = "example32"
    n = 3
    m = 3

    _quadratic = GenericQuadratic(
        [
            [[4.0, -2.0, 0.0], [-2.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
            [[6.0, -2.0, 0.0], [-2.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
            [[4.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
        ],
        [[0.0, 0.0, 0.0], [-6.0, 2.0, 0.0], [-8.0, -4.0, 0.0]],
        [0.0, 3.0, 8.0],
    )


@dataclass(frozen=True)
class RemarkG(_FixedQuadratic):
    """Square 4 -> 4 strongly convex map with a persistent corank-2 point.

    Built from two coupled quadratics
    g1 = x1^2 + x2 x3 + (x2^2 + x1 x4)/2 + x3^2 + x4^2 (Hessian h1) and
    g2 = x2^2 + x1 x4 + (x1^2 + x2 x3)/2 + x3^2 + x4^2 (Hessian h2) as
    (g1 - x3, g2 - x4, g1 + x3, g2 + x4).  The Jacobian at the origin has
    rank 2, and the corank-2 point survives small linear perturbations
    (tracked by ``perturb.corank2_tracker``).
    """

    tag = "remark_g"
    n = 4
    m = 4

    _h1 = [[2.0, 0.0, 0.0, 0.5], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 0.0], [0.5, 0.0, 0.0, 2.0]]
    _h2 = [[1.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.5, 0.0], [0.0, 0.5, 2.0, 0.0], [1.0, 0.0, 0.0, 2.0]]
    _quadratic = GenericQuadratic(
        [_h1, _h2, _h1, _h2],
        [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        np.zeros(4),
    )


@dataclass(frozen=True)
class DistanceSquared:
    """Squared Euclidean distances to demand points: f_i(x) = |x - p_i|^2."""

    points: np.ndarray  # (m, n)

    tag = "distance_squared"

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def validate(self):
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ProblemFormatError("points must have shape (m, n) with m >= 1")

    def evaluate(self, xs):
        diff = xs[:, None, :] - self.points
        eye = 2.0 * np.eye(self.n)
        hess = _constant(np.repeat(eye[None, :, :], self.m, axis=0))
        return np.einsum("Nki,Nki->Nk", diff, diff), 2.0 * diff, hess

    def payload(self) -> dict:
        return {"points": self.points.tolist()}

    @classmethod
    def from_payload(cls, data: dict) -> "DistanceSquared":
        return cls(_as_matrix(_field(data, "points", "distance_squared"), "points"))


@dataclass(frozen=True)
class Phenotypic:
    """Squared anisotropic distances f_i(x) = |A_i (x - p_i)|^2, A_i symmetric PD."""

    mats: np.ndarray  # (m, n, n)
    points: np.ndarray  # (m, n)

    tag = "phenotypic"

    def __post_init__(self):
        object.__setattr__(self, "mats", np.asarray(self.mats, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def n(self) -> int:
        return self.mats.shape[-1]

    @property
    def m(self) -> int:
        return self.mats.shape[0]

    def validate(self):
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise ProblemFormatError("matrices must have shape (m, n, n)")
        if self.points.shape != (self.m, self.n):
            raise ProblemFormatError("dimension mismatch between matrices and points")
        for i, a in enumerate(self.mats):
            _require_symmetric_pd(a, f"matrices[{i}]")

    def evaluate(self, xs):
        diff = xs[:, None, :] - self.points
        resid = np.einsum("kij,Nkj->Nki", self.mats, diff)
        gram = np.einsum("kji,kjl->kil", self.mats, self.mats)
        jac = 2.0 * np.einsum("kil,Nkl->Nki", gram, diff)
        return np.einsum("Nki,Nki->Nk", resid, resid), jac, _constant(2.0 * gram)

    def payload(self) -> dict:
        return {"matrices": self.mats.tolist(), "points": self.points.tolist()}

    @classmethod
    def from_payload(cls, data: dict) -> "Phenotypic":
        return cls(
            np.asarray(_field(data, "matrices", "phenotypic"), dtype=float),
            np.asarray(_field(data, "points", "phenotypic"), dtype=float),
        )


@dataclass(frozen=True)
class RidgePair:
    """Penalized least squares paired with the penalty itself.

    f_1(theta) = |X theta - y|^2 + mu |theta|^2   (mu > 0 for strong convexity)
    f_2(theta) = |theta|^2

    Scalarizing with weight (w1, w2), w1 > 0, minimizes the ridge objective
    with regularization strength lambda = mu + w2 / w1.
    """

    x_data: np.ndarray  # (n_obs, p)
    y_data: np.ndarray  # (n_obs,)
    mu: float

    tag = "ridge_pair"
    m = 2

    def __post_init__(self):
        object.__setattr__(self, "x_data", np.asarray(self.x_data, dtype=float))
        object.__setattr__(self, "y_data", np.asarray(self.y_data, dtype=float))
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def n(self) -> int:
        return self.x_data.shape[1]

    def validate(self):
        if self.x_data.ndim != 2:
            raise ProblemFormatError("X must be a 2-d array")
        if self.y_data.shape != (self.x_data.shape[0],):
            raise ProblemFormatError("dimension mismatch between X and y")
        if not self.mu > 0.0:
            raise ProblemFormatError("mu must be positive")

    def evaluate(self, xs):
        resid = _rowwise(self.x_data, xs) - self.y_data
        sq = np.einsum("Ni,Ni->N", xs, xs)
        values = np.stack([np.einsum("Ni,Ni->N", resid, resid) + self.mu * sq, sq], axis=1)
        jac = np.stack([2.0 * (_rowwise(self.x_data.T, resid) + self.mu * xs), 2.0 * xs], axis=1)
        eye = np.eye(self.n)
        h1 = 2.0 * (self.x_data.T @ self.x_data) + 2.0 * self.mu * eye
        return values, jac, _constant([h1, 2.0 * eye])

    def payload(self) -> dict:
        return {"X": self.x_data.tolist(), "y": self.y_data.tolist(), "mu": self.mu}

    @classmethod
    def from_payload(cls, data: dict) -> "RidgePair":
        return cls(
            _as_matrix(_field(data, "X", "ridge_pair"), "X"),
            np.asarray(_field(data, "y", "ridge_pair"), dtype=float),
            float(_field(data, "mu", "ridge_pair")),
        )


_FAMILIES = {
    cls.tag: cls
    for cls in (
        GenericQuadratic,
        Example31,
        Example31Perturbed,
        Example32,
        RemarkG,
        DistanceSquared,
        Phenotypic,
        RidgePair,
    )
}


def _field(data: dict, name: str, family: str):
    if name not in data:
        raise ProblemFormatError(f"family '{family}' requires field '{name}'")
    return data[name]


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


def with_linear(values: np.ndarray, jac: np.ndarray, linear: np.ndarray, xs: np.ndarray):
    """Values and Jacobians of f_i + pi_i . x, given those of f at the rows of ``xs``.

    ``linear`` is one (m, n) matrix pi for every row or an (N, m, n) stack,
    one per row; either way each product pi x is taken row by row, so the
    two forms round alike.
    """
    return values + _rowwise(linear, xs), jac + linear


class Problem:
    """An m-tuple of strongly convex objectives, or a view derived from one.

    ``base`` is a family spec or another Problem.  ``linear``, an (m, n)
    matrix pi at the base's width, adds pi_i . x to objective i (a linear
    perturbation); ``indices`` keeps only those objectives (a subproblem).
    ``evaluate(X)`` takes an (N, n) stack of points and returns F (N, m),
    J (N, m, n) with J[k, i] the gradient of f_i at X[k], and Hessians of
    shape (N, m, n, n) or, when they do not depend on x, (1, m, n, n).
    ``family`` is the spec of an underived problem and None for a derived
    one.  Evaluation is pure and reentrant; instances carry no mutable state.
    """

    def __init__(self, base, indices: tuple[int, ...] | None = None, linear=None):
        self.base = base
        self.indices = indices
        self.linear = linear
        derived = isinstance(base, Problem) or indices is not None or linear is not None
        self.family = None if derived else base
        self.n = int(base.n)
        self.m = int(base.m) if indices is None else len(indices)

    def evaluate(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"expected points of shape (N, {self.n}), got {xs.shape}")
        values, jac, hess = self.base.evaluate(xs)
        if self.linear is not None:
            values, jac = with_linear(values, jac, self.linear, xs)
        if self.indices is None:
            return values, jac, hess
        keep = list(self.indices)
        return values[:, keep], jac[:, keep], hess[:, keep]

    def _at(self, x, part: int) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"expected point of shape ({self.n},), got {arr.shape}")
        return np.array(self.evaluate(arr[None, :])[part][0])

    def values(self, x) -> np.ndarray:
        return self._at(x, 0)

    def gradients(self, x) -> np.ndarray:
        """Jacobian of the mapping: row i is the gradient of f_i at x."""
        return self._at(x, 1)

    def hessians(self, x) -> np.ndarray:
        return self._at(x, 2)

    def __repr__(self):
        base = getattr(self.base, "tag", self.base)
        return (f"Problem({base!r}, n={self.n}, m={self.m}, indices={self.indices}, "
                f"linear={self.linear is not None})")


def _validate(spec) -> None:
    """Checks shared by ``build_problem`` and ``parse_problem``.

    Non-finite numbers (JSON ``NaN``/``Infinity``, or ``1e400``, which
    overflows) are rejected before the family's own checks run on them.
    """
    for name, value in spec.payload().items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ProblemFormatError(f"field '{name}' must be finite")
    spec.validate()


def build_problem(spec) -> Problem:
    """Validate a family spec and wrap it as an underived problem.

    Raises ProblemFormatError for non-finite numbers, non-PD matrices,
    nonpositive ridge penalties, or inconsistent shapes.
    """
    _validate(spec)
    return Problem(spec)


def restrict(problem, indices) -> Problem:
    """Subproblem keeping objectives ``indices`` (0-based, deduplicated, sorted)."""
    idx = tuple(sorted(set(int(i) for i in indices)))
    if not idx:
        raise ValueError("indices must be nonempty")
    if idx[0] < 0 or idx[-1] >= problem.m:
        raise ValueError(f"objective indices out of range for m={problem.m}")
    return Problem(problem, idx)


# ---------------------------------------------------------------------------
# Sampled strong-convexity certificate
# ---------------------------------------------------------------------------


SAMPLE_RADIUS = 2.0  # scale of the strong-convexity sample points


@dataclass
class ConvexityCertificate:
    """Sampled lower bound on Hessian eigenvalues.  A spot check, not a proof."""

    beta_min: float
    ok: bool
    witness_point: np.ndarray
    witness_objective: int
    count: int

    def describe(self) -> str:
        status = "positive" if self.ok else "FAILED (non-convex sample)"
        return (
            f"sampled strong-convexity certificate: beta_min={self.beta_min:.6g} "
            f"over {self.count} points (radius {SAMPLE_RADIUS:g}) -- {status}; "
            "sampled, not a proof"
        )


def check_strong_convexity(problem, count: int = 1000, seed: int = 0) -> ConvexityCertificate:
    """Minimal Hessian eigenvalue over all objectives at sampled points.

    The points are centered normal draws scaled by ``SAMPLE_RADIUS``.  The
    certificate flags failure when the sampled minimum is <= 0.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    pts = SAMPLE_RADIUS * rng.standard_normal((count, problem.n))
    # lowest eigenvalue per (point, objective); constant Hessians give one row
    lowest = np.linalg.eigvalsh(problem.evaluate(pts)[2])[..., 0]
    point, objective = np.unravel_index(np.argmin(lowest), lowest.shape)
    beta_min = float(lowest[point, objective])
    return ConvexityCertificate(
        beta_min=beta_min,
        ok=beta_min > 0.0,
        witness_point=np.array(pts[point]),
        witness_objective=int(objective),
        count=count,
    )


# ---------------------------------------------------------------------------
# Serialization (JSON problem format, matrices row-major)
# ---------------------------------------------------------------------------


def serialize_problem(spec_or_problem) -> str:
    """Render a family spec (or a problem built from one) as JSON text."""
    spec = getattr(spec_or_problem, "family", spec_or_problem)
    tag = getattr(spec, "tag", None)
    if tag not in _FAMILIES:
        raise ProblemFormatError(f"cannot serialize problem of type {type(spec).__name__}")
    doc = {"family": tag, "n": int(spec.n), "m": int(spec.m)}
    doc.update(spec.payload())
    return json.dumps(doc, indent=2)


def parse_problem(text: str):
    """Parse the JSON problem format back into a validated family spec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    tag = data.get("family")
    if tag not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ProblemFormatError(f"unknown family {tag!r} (known: {known})")
    try:
        spec = _FAMILIES[tag].from_payload(data)
    except ProblemFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"bad field in family '{tag}': {exc}") from exc
    _validate(spec)
    for dim in ("n", "m"):
        if dim in data and int(data[dim]) != getattr(spec, dim):
            raise ProblemFormatError(
                f"dimension mismatch: document says {dim}={data[dim]}, "
                f"family implies {dim}={getattr(spec, dim)}"
            )
    return spec


BUILTIN_NAMES = ("example31", "example31_perturbed", "example32", "remark_g")


def builtin_problem(name: str, epsilon: float = 0.1) -> Problem:
    """Fixture problems addressable by name (CLI ``--builtin``)."""
    if name == "example31":
        return build_problem(Example31())
    if name == "example31_perturbed":
        return build_problem(Example31Perturbed(epsilon))
    if name == "example32":
        return build_problem(Example32())
    if name == "remark_g":
        return build_problem(RemarkG())
    raise ProblemFormatError(f"unknown builtin {name!r} (known: {', '.join(BUILTIN_NAMES)})")
