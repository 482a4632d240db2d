"""Damped Newton solver for weighted scalarizations.

For a weight w on the simplex the scalarized objective g = sum_i w_i f_i is
strongly convex, so the mixed Hessian sum_i w_i H(f_i) is positive definite
wherever at least one weight is positive and Newton steps (with Armijo
backtracking) converge to the unique minimizer, which is the Pareto point
attached to w.  The solver runs a whole stack of weights as one batch: every
node takes its own steps and stops on its own tolerance.  Weights are plain
coordinate arrays: an (N, m) stack for ``minimize_weighted``, one vector for
``scalarize``, which checks it with ``problems.simplex_weight``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import DEFAULT_RANK_TOL, numerical_rank
from .problems import simplex_weight, with_linear

__all__ = [
    "SolverConfig",
    "SolverError",
    "SingularNewtonSystem",
    "MaxIterExceeded",
    "ParetoPoint",
    "NewtonResult",
    "minimize_weighted",
    "raise_unconverged",
    "scalarize",
    "x_star_derivative",
]


class SolverError(RuntimeError):
    pass


class SingularNewtonSystem(SolverError):
    """Mixed Hessian failed its Cholesky factorization."""


class MaxIterExceeded(SolverError):
    """Iteration budget exhausted; carries the best iterate seen."""

    def __init__(self, x: np.ndarray, residual: float, iterations: int, tol: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e}, tol {tol:.3e})"
        )
        self.x = x
        self.residual = residual
        self.iterations = iterations
        self.tol = tol


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-10  # scaled by max(1, initial gradient norm)
    max_iter: int = 200
    rank_tol: float = DEFAULT_RANK_TOL  # every rank decision made on a run's output


DEFAULT_CONFIG = SolverConfig()
_EPS = np.finfo(float).eps
ARMIJO_C = 1e-4  # sufficient-decrease fraction of the directional derivative
ARMIJO_SHRINK = 0.5  # step-length factor per rejected trial


@dataclass
class ParetoPoint:
    """A solved scalarization: weight, minimizer, values and rank data."""

    weight: np.ndarray  # the simplex weight's coordinates
    x: np.ndarray
    fx: np.ndarray
    kkt_residual: float
    jacobian_sv: np.ndarray
    corank: int
    iterations: int
    grad_tol: float  # the effective (scaled) tolerance this solve used
    converged: bool = True


class NewtonResult(NamedTuple):
    """Minimizers with their final residuals, iteration counts and tolerances."""

    x: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    tol: np.ndarray


# Row-wise products as stacked matmuls with a unit axis, so that each row is
# rounded exactly as the 1-d product ``a[k] @ b[k]`` would be.
def _weighted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b)[:, 0, :]  # (N, m) x (N or 1, m, p) -> (N, p)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as ``np.linalg.norm`` of the row."""
    return np.sqrt(_dot(a, a))


def _scalarized(problem, weights: np.ndarray, xs: np.ndarray, linear: np.ndarray | None = None):
    """Value, gradient and Hessian of sum_i w_i (f_i + pi_i . x) at each row of
    ``xs``, with pi = ``linear[k]`` for row k (no linear term when None)."""
    values, jac, hess = problem.evaluate(xs)
    if linear is not None:
        values, jac = with_linear(values, jac, linear, xs)
    flat = hess.reshape(len(hess), problem.m, problem.n * problem.n)
    mixed = _weighted(weights, flat).reshape(len(xs), problem.n, problem.n)
    return _dot(weights, values), _weighted(weights, jac), mixed


def _spd_solve(mats: np.ndarray, rhs: np.ndarray, where: str = "") -> np.ndarray:
    """Solve mats @ y = rhs; a Cholesky factorization certifies that mats is SPD."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise SingularNewtonSystem(f"mixed Hessian not positive definite{where}") from exc
    return np.linalg.solve(mats, rhs)


def minimize_weighted(problem, weights, config: SolverConfig = DEFAULT_CONFIG, x0=None,
                      linear=None):
    """Minimize sum_i weights_i f_i by damped Newton for each row of a stack.

    ``weights`` is an (N, m) stack of nonnegative, nonzero weights (each
    minimizer is invariant under positive scaling of its row; ``scalarize``
    takes a single weight).  ``x0`` is one start point or one per row,
    default the origin.  ``linear``, an (N, m, n) stack, gives node k its
    own problem f_i + linear[k, i] . x, so nodes of differently perturbed
    problems share one batch.  Every node stops on its own tolerance,
    ``grad_tol`` scaled by max(1, its initial gradient norm).

    Returns a NewtonResult of stacked fields.  A node converged exactly when
    residual <= tol; one that did not carries its best iterate and
    ``max_iter`` iterations (``raise_unconverged`` turns that into
    MaxIterExceeded).  Raises SingularNewtonSystem when a mixed Hessian is
    not positive definite.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != problem.m:
        raise ValueError(f"expected an (N, {problem.m}) stack of weights, got shape {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any() or not w.any(axis=1).all():
        raise ValueError("weights must be finite, nonnegative and not all zero")

    count = len(w)
    if linear is not None and np.shape(linear) != (count, problem.m, problem.n):
        raise ValueError(f"expected linear terms of shape {(count, problem.m, problem.n)}, "
                         f"got {np.shape(linear)}")
    # C order whatever the start's shape: stacked products round by layout,
    # and a row must round alike in every batch.
    x = np.array(np.broadcast_to(0.0 if x0 is None else x0, (count, problem.n)), float, order="C")

    value, grad, hess = _scalarized(problem, w, x, linear)
    res = row_norms(grad)
    tol = config.grad_tol * np.maximum(1.0, res)
    best_x, best_res = x.copy(), res.copy()
    iterations = np.full(count, config.max_iter)
    running = np.ones(count, dtype=bool)
    for iteration in range(config.max_iter):
        better = running & (res < best_res)
        best_x[better], best_res[better] = x[better], res[better]
        done = running & (res <= tol)
        iterations[done] = iteration
        running &= ~done
        active = np.flatnonzero(running)
        if not active.size:
            break
        step = _spd_solve(hess[active], -grad[active][:, :, None],
                          f" at iteration {iteration}")[:, :, 0]
        slope = _dot(grad[active], step)

        # Armijo backtracking, one step length per node.  A node whose step
        # shrinks to rounding stops where it is; the final check decides it.
        # Where the required decrease is below the rounding of the value,
        # the values cannot tell the trial apart, so a smaller gradient norm
        # decides instead.
        alpha = np.ones(active.size)
        searching = np.ones(active.size, dtype=bool)
        while True:
            searching &= alpha > 1e-14
            trying = np.flatnonzero(searching)
            if not trying.size:
                break
            nodes = active[trying]
            trial = x[nodes] + alpha[trying, None] * step[trying]
            t_value, t_grad, t_hess = _scalarized(
                problem, w[nodes], trial, None if linear is None else linear[nodes])
            t_res = row_norms(t_grad)
            decrease = ARMIJO_C * alpha[trying] * slope[trying]
            unresolved = np.abs(decrease) <= 8.0 * _EPS * np.maximum(1.0, np.abs(value[nodes]))
            ok = np.where(unresolved, t_res < res[nodes], t_value <= value[nodes] + decrease)
            moved = nodes[ok]
            x[moved], value[moved], grad[moved], hess[moved] = (
                trial[ok], t_value[ok], t_grad[ok], t_hess[ok])
            res[moved] = t_res[ok]
            searching[trying[ok]] = False
            alpha[trying[~ok]] *= ARMIJO_SHRINK
        running[active[alpha <= 1e-14]] = False  # no acceptable step

    failed = res > tol
    x[failed], res[failed] = best_x[failed], best_res[failed]
    return NewtonResult(x, res, iterations, tol)


def raise_unconverged(result: NewtonResult) -> None:
    """Raise MaxIterExceeded for the first unconverged node of a stacked result."""
    failed = np.flatnonzero(result.residual > result.tol)
    if failed.size:
        i = failed[0]
        raise MaxIterExceeded(result.x[i], float(result.residual[i]),
                              int(result.iterations[i]), float(result.tol[i]))


def pareto_columns(problem, result: NewtonResult, rank_tol: float):
    """Values, Jacobian singular values, coranks and convergence flags of a
    stacked result, from one batched evaluate and one batched SVD.

    A node that did not converge gets corank -1.
    """
    values, jac, _ = problem.evaluate(result.x)
    sv = np.linalg.svd(jac, compute_uv=False)
    converged = result.residual <= result.tol
    coranks = np.where(converged, min(problem.m, problem.n) - numerical_rank(sv, rank_tol), -1)
    return values, sv, coranks, converged


def scalarize(problem, weight, config: SolverConfig = DEFAULT_CONFIG) -> ParetoPoint:
    """Pareto point for a simplex weight, solved from the origin.

    ``weight`` is a coordinate vector, checked by ``simplex_weight``.  The
    returned point stores the Jacobian singular values and corank at the
    minimizer so downstream certificates can reuse or recompute them.
    """
    weight = simplex_weight(weight)
    if weight.size != problem.m:
        raise ValueError(f"weight has {weight.size} coordinates, problem has m={problem.m}")
    result = minimize_weighted(problem, weight[None, :], config)
    raise_unconverged(result)
    values, sv, coranks, _ = pareto_columns(problem, result, config.rank_tol)
    return ParetoPoint(weight, result.x[0], values[0], float(result.residual[0]), sv[0],
                       int(coranks[0]), int(result.iterations[0]), float(result.tol[0]))


def x_star_derivative(problem, point: ParetoPoint) -> np.ndarray:
    """Derivative of the minimizer map in simplex chart coordinates.

    The chart takes the first m-1 weight coordinates z = (w_1, ..., w_{m-1})
    as free parameters with w_m = 1 - sum(z).  Column j (0-based) is

        d x*(z) / d z_j = -A (grad f_{j+1} - grad f_m)

    where A is the inverse of the mixed Hessian at the minimizer.  Shape
    (n, m-1); for a single objective the chart is empty.
    """
    if problem.m == 1:
        return np.zeros((problem.n, 0))
    w = point.weight[None, :]
    _, _, mixed = _scalarized(problem, w, point.x[None, :])
    grads = problem.gradients(point.x)
    rhs = (grads[:-1] - grads[-1]).T  # (n, m-1)
    return -_spd_solve(mixed[0], rhs)
