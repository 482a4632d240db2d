"""Objective mappings: families of strongly convex C^2 functions on R^n.

Every family evaluates values, gradients and Hessians analytically (all
built-in families are quadratic polynomials, so the derivatives are exact),
for a whole stack of points in one ``evaluate`` call.  A problem is the
mapping f = (f_1, ..., f_m); the solver and atlas modules only ever touch it
through ``evaluate``.  A weight on the simplex is a plain coordinate array;
``simplex_weight`` checks a single one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
import numpy as np

from .diagnostics import numerical_rank

__all__ = [
    "ProblemFormatError",
    "simplex_weight",
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
    "strong_convexity_constant",
    "serialize_problem",
    "parse_problem",
    "builtin_problem",
    "BUILTIN_NAMES",
]

WEIGHT_SUM_TOL = 1e-12


def simplex_weight(coords) -> np.ndarray:
    """``coords`` as a new float array, checked to be a point of the weight
    simplex: a nonempty finite vector of nonnegative entries summing to 1."""
    w = np.array(coords, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weight coordinates must be a nonempty vector")
    if not np.isfinite(w).all():
        raise ValueError("weight coordinates must be finite")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weight coordinates must sum to 1, got {total!r}")
    if (w < 0.0).any():
        raise ValueError("weight coordinates must be nonnegative")
    return w


class ProblemFormatError(ValueError):
    """Malformed problem description (bad shapes, non-PD matrix, bad JSON)."""


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


def _numeric(value) -> bool:
    """A JSON number or a nested list of them of one shape; booleans are not
    numbers, and a ragged or over-deep list leaves a list among the leaves."""
    return all(type(x) in (int, float) for x in np.array(value, dtype=object).reshape(-1))


class _Family:
    """Reader, payload and shape check shared by every family spec.

    ``fields`` maps each JSON key to (attribute, shape), the shape spelled in
    dimension letters: "mnn" is an (m, n, n) array and "" a number, kept as
    a Python float.  Every value must be finite, equal letters must give
    equal sizes and every size is at least 1.  ``n`` and ``m`` come from the
    fields unless the class fixes them.  Families with semantic checks
    extend ``validate``; a spec of another class checks its own values.
    """

    tag: str  # the document's "family"
    fields: dict[str, tuple[str, str]] = {}

    def __post_init__(self):
        for attr, dims in self.fields.values():
            value = np.asarray(getattr(self, attr), dtype=float)
            object.__setattr__(self, attr, float(value) if not dims and value.ndim == 0 else value)

    def _size(self, letter: str) -> int:
        attr, dims = next((a, d) for a, d in self.fields.values() if letter in d)
        return getattr(self, attr).shape[dims.index(letter)]

    @property
    def n(self) -> int:
        return self._size("n")

    @property
    def m(self) -> int:
        return self._size("m")

    def validate(self):
        sizes = {}  # letter -> (its size, the first key that has it)
        for key, (attr, dims) in self.fields.items():
            value = getattr(self, attr)
            if not np.isfinite(value).all():  # NaN, Infinity or 1e400
                raise ProblemFormatError(f"field '{key}' must be finite")
            shape = np.shape(value)
            expected = f"an array of shape ({', '.join(dims)})" if dims else "a number"
            bad_shape = f"{key} must be {expected}, got shape {shape}"
            if len(shape) != len(dims):
                raise ProblemFormatError(bad_shape)
            for letter, size in zip(dims, shape):
                if size < 1:
                    raise ProblemFormatError(f"{key} has an empty dimension: shape {shape}")
                seen, where = sizes.setdefault(letter, (size, key))
                if size != seen:
                    raise ProblemFormatError(bad_shape if where == key else (
                        f"dimension mismatch: {key} has {letter}={size} "
                        f"but {where} has {letter}={seen}"))

    def payload(self) -> dict:
        return {key: np.asarray(getattr(self, attr)).tolist()
                for key, (attr, _) in self.fields.items()}

    @classmethod
    def from_payload(cls, data: dict):
        values = {}
        for key, (attr, _) in cls.fields.items():
            if key not in data:
                raise ProblemFormatError(f"family '{cls.tag}' requires field '{key}'")
            if not _numeric(data[key]):
                raise ProblemFormatError(f"field '{key}' must be a JSON number "
                                         "or a nested list of numbers of one shape")
            values[attr] = data[key]
        try:
            return cls(**values)
        except OverflowError as exc:  # an integer beyond the float range
            raise ProblemFormatError(f"bad field in family '{cls.tag}': {exc}") from exc


@dataclass(frozen=True)
class GenericQuadratic(_Family):
    """Objectives f_i(x) = x.Q_i x / 2 + b_i.x + c_i with Q_i symmetric PD."""

    qs: np.ndarray
    bs: np.ndarray
    cs: np.ndarray

    tag = "generic_quadratic"
    fields = {"q": ("qs", "mnn"), "b": ("bs", "mn"), "c": ("cs", "m")}

    def validate(self):
        super().validate()
        for i, q in enumerate(self.qs):
            _require_symmetric_pd(q, f"q[{i}]")

    def evaluate(self, xs):
        qx = np.einsum("kij,Nj->Nki", self.qs, xs)
        values = 0.5 * np.einsum("Ni,Nki->Nk", xs, qx) + _rowwise(self.bs, xs) + self.cs
        return values, qx + self.bs, _constant(self.qs)


class _FixedQuadratic(_Family):
    """A parameter-free quadratic family: ``_quadratic`` holds its data."""

    _quadratic: GenericQuadratic

    def evaluate(self, xs):
        return self._quadratic.evaluate(xs)


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
class Example31Perturbed(_Family):
    """The pinch family with a linear term eps*z added to the first objective.

    Any nonzero ``epsilon`` removes the corank-2 point: the minimizer map
    becomes injective with corank 1 everywhere.
    """

    epsilon: float

    tag = "example31_perturbed"
    fields = {"epsilon": ("epsilon", "")}
    n = 3
    m = 3

    def validate(self):
        super().validate()
        if self.epsilon == 0.0:
            raise ProblemFormatError("epsilon must be nonzero")

    def evaluate(self, xs):
        values, jac, hess = Example31().evaluate(xs)
        linear = np.zeros((self.m, self.n))
        linear[0, 2] = self.epsilon
        return (*with_linear(values, jac, linear, xs), hess)


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
class DistanceSquared(_Family):
    """Squared Euclidean distances to demand points: f_i(x) = |x - p_i|^2."""

    points: np.ndarray

    tag = "distance_squared"
    fields = {"points": ("points", "mn")}

    def evaluate(self, xs):
        diff = xs[:, None, :] - self.points
        eye = 2.0 * np.eye(self.n)
        hess = _constant(np.repeat(eye[None, :, :], self.m, axis=0))
        return np.einsum("Nki,Nki->Nk", diff, diff), 2.0 * diff, hess

    def affinely_independent(self, rank_tol: float) -> bool:
        """The differences p_i - p_1 have numerical rank m - 1 at ``rank_tol``."""
        span = self.points[1:] - self.points[0]
        return bool(numerical_rank(np.linalg.svd(span, compute_uv=False), rank_tol) == len(span))


@dataclass(frozen=True)
class Phenotypic(_Family):
    """Squared anisotropic distances f_i(x) = |A_i (x - p_i)|^2, A_i symmetric PD."""

    mats: np.ndarray
    points: np.ndarray

    tag = "phenotypic"
    fields = {"matrices": ("mats", "mnn"), "points": ("points", "mn")}

    def validate(self):
        super().validate()
        for i, a in enumerate(self.mats):
            _require_symmetric_pd(a, f"matrices[{i}]")

    def evaluate(self, xs):
        diff = xs[:, None, :] - self.points
        resid = np.einsum("kij,Nkj->Nki", self.mats, diff)
        gram = np.einsum("kji,kjl->kil", self.mats, self.mats)
        jac = 2.0 * np.einsum("kil,Nkl->Nki", gram, diff)
        return np.einsum("Nki,Nki->Nk", resid, resid), jac, _constant(2.0 * gram)


@dataclass(frozen=True)
class RidgePair(_Family):
    """Penalized least squares paired with the penalty itself.

    f_1(theta) = |X theta - y|^2 + mu |theta|^2   (mu > 0 for strong convexity)
    f_2(theta) = |theta|^2

    Scalarizing with weight (w1, w2), w1 > 0, minimizes the ridge objective
    with regularization strength lambda = mu + w2 / w1.  ``X`` has one row
    per observation (k of them) and one column per coefficient (n).
    """

    x_data: np.ndarray
    y_data: np.ndarray
    mu: float

    tag = "ridge_pair"
    fields = {"X": ("x_data", "kn"), "y": ("y_data", "k"), "mu": ("mu", "")}
    m = 2

    def validate(self):
        super().validate()
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


def build_problem(spec) -> Problem:
    """Validate a family spec and wrap it as an underived problem.

    Raises ProblemFormatError for non-finite numbers, non-PD matrices,
    nonpositive ridge penalties, or inconsistent shapes.
    """
    spec.validate()
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


def strong_convexity_constant(problem) -> float | None:
    """beta with every weighted sum of the objectives beta-strongly convex, or
    None if the Hessians depend on x (``evaluate`` gives two rows for two
    points) or beta is not positive.  lambda_min is concave in the weight, so
    beta = min_i lambda_min(Q_i), lowered by n eps |Q_i| (``eigvalsh``)."""
    hessians = problem.evaluate(np.zeros((2, problem.n)))[2]
    if len(hessians) != 1:
        return None
    eig = np.linalg.eigvalsh(hessians[0])
    beta = float((eig[:, 0] - problem.n * np.finfo(float).eps * np.abs(eig).max(axis=1)).min())
    return beta if beta > 0.0 else None


# ---------------------------------------------------------------------------
# Serialization (JSON problem format, matrices row-major)
# ---------------------------------------------------------------------------


def serialize_problem(spec_or_problem) -> str:
    """Render a family spec (or a problem built from one) as JSON text.

    Raises ProblemFormatError for a derived problem and for a spec that
    ``build_problem`` would reject.
    """
    spec = getattr(spec_or_problem, "family", spec_or_problem)
    if spec is None:
        raise ProblemFormatError(
            "cannot serialize a derived problem (a subproblem or a linear perturbation)")
    tag = getattr(spec, "tag", None)
    if tag not in _FAMILIES:
        raise ProblemFormatError(f"cannot serialize problem of type {type(spec).__name__}")
    spec.validate()
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
    except RecursionError as exc:  # the C scanner's nesting limit
        raise ProblemFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    tag = data.get("family")
    if not isinstance(tag, str) or tag not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ProblemFormatError(f"unknown family {tag!r} (known: {known})")
    spec = _FAMILIES[tag].from_payload(data)
    spec.validate()
    for dim in ("n", "m"):
        value = data.get(dim, getattr(spec, dim))
        if type(value) is not int:  # a JSON integer; true and 3.0 are not
            raise ProblemFormatError(
                f"document says {dim}={json.dumps(value)}, which is not an integer")
        if value != getattr(spec, dim):
            raise ProblemFormatError(
                f"dimension mismatch: document says {dim}={value}, "
                f"family implies {dim}={getattr(spec, dim)}"
            )
    return spec


BUILTIN_NAMES = ("example31", "example31_perturbed", "example32", "remark_g")


def builtin_problem(name: str, epsilon: float = 0.1) -> Problem:
    """Fixture problems addressable by name (CLI ``--builtin``); each name is
    its family's tag, and only ``example31_perturbed`` takes a parameter."""
    if name not in BUILTIN_NAMES:
        raise ProblemFormatError(f"unknown builtin {name!r} (known: {', '.join(BUILTIN_NAMES)})")
    if name == "example31_perturbed":
        return build_problem(Example31Perturbed(epsilon))
    return build_problem(_FAMILIES[name]())
