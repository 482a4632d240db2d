"""Rank certificates and the fold criterion for objective mappings.

Everything here works on the Jacobian J of the mapping at a point (row i is
the gradient of objective i).  Numerical rank uses a relative singular value
threshold: rank = #{sigma_i > tol * sigma_max}.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "RankReport",
    "CorankCertificate",
    "FoldReport",
    "NotCorankOne",
    "NoRegularMinor",
    "numerical_rank",
    "rank_report",
    "corank_at",
    "corank_certificate",
    "certify_corank_on_atlas",
    "fold_check",
    "cokernel_basis",
    "cokernel_alignment",
]

DEFAULT_RANK_TOL = 1e-8


class NotCorankOne(RuntimeError):
    """Fold test applied at a point whose Jacobian corank is not 1."""

    def __init__(self, report: "RankReport"):
        super().__init__(f"fold test needs corank 1, got corank {report.corank}")
        self.report = report


class NoRegularMinor(RuntimeError):
    """No variable permutation makes the leading (m-1)-minor regular."""


@dataclass
class RankReport:
    """Numerical rank of a Jacobian.  Corank is against min(n, m)."""

    singular_values: np.ndarray
    rank: int
    corank: int
    tolerance: float

    @property
    def gap(self) -> float:
        """Smallest retained singular value over the largest (margin vs tol)."""
        if self.rank == 0:
            return np.inf
        return float(self.singular_values[self.rank - 1] / self.singular_values[0])


def numerical_rank(singular_values: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """Count of descending singular values above ``tol`` times the largest (last axis)."""
    sv = np.asarray(singular_values)
    return np.count_nonzero(sv > tol * sv[..., :1], axis=-1)


def rank_report(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    rank = int(numerical_rank(sv, tol))
    return RankReport(sv, rank, min(matrix.shape) - rank, tol)


def corank_at(problem, x, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank report of the problem Jacobian at x."""
    return rank_report(problem.gradients(x), tol)


@dataclass
class CorankCertificate:
    """Corank sweep over an atlas sample of the optimal set."""

    tolerance: float
    coranks: np.ndarray  # (N,) int
    max_corank: int
    witnesses: list[int]  # node indices with corank >= 2
    simplicial_on_sample: bool
    min_gap: float  # worst retained-singular-value margin across nodes


def corank_certificate(sv: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> CorankCertificate:
    """Corank certificate from each node's Jacobian singular values.

    ``sv`` is (N, k), one descending row per node, k = min(m, n).
    """
    rank = numerical_rank(sv, tol)
    coranks = sv.shape[1] - rank
    retained = np.take_along_axis(sv, np.maximum(rank - 1, 0)[:, None], axis=1)[:, 0]
    gaps = np.full(len(rank), np.inf)
    gaps[rank > 0] = retained[rank > 0] / sv[rank > 0, 0]
    max_corank = int(coranks.max()) if coranks.size else 0
    witnesses = [int(i) for i in np.nonzero(coranks >= 2)[0]]
    return CorankCertificate(
        tolerance=tol,
        coranks=coranks,
        max_corank=max_corank,
        witnesses=witnesses,
        simplicial_on_sample=max_corank <= 1,
        min_gap=float(gaps.min()),
    )


def certify_corank_on_atlas(atlas) -> CorankCertificate:
    """Corank certificate over every atlas node at ``atlas.config.rank_tol``.

    Evaluates the Jacobians at the stored minimizers and takes their SVDs,
    all nodes in one batch: the same evaluate and SVD that filled
    ``atlas.sv``, so its coranks equal ``atlas.corank`` at every converged
    node.
    """
    jac = atlas.problem.evaluate(atlas.x)[1]
    return corank_certificate(np.linalg.svd(jac, compute_uv=False), atlas.config.rank_tol)


# ---------------------------------------------------------------------------
# Null spaces and cokernel alignment
# ---------------------------------------------------------------------------


def _svd_spaces(matrix: np.ndarray, tol: float):
    u, sv, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=True)
    return u, sv, vt, int(numerical_rank(sv, tol))


def null_basis(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal columns spanning the (right) null space."""
    _, _, vt, rank = _svd_spaces(matrix, tol)
    return vt[rank:].T


def cokernel_basis(problem, x, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal columns spanning {v : v . rows(J) = 0} at x.

    This is the left null space of the Jacobian, i.e. the orthogonal
    complement of the image of the differential.
    """
    u, _, _, rank = _svd_spaces(problem.gradients(x), tol)
    return u[:, rank:]

def cokernel_alignment(problem, x, weight, tol: float = DEFAULT_RANK_TOL) -> float:
    """Norm of the projection of the unit weight onto the image of the differential.

    Zero (to solver accuracy) exactly when the weight annihilates the
    Jacobian rows, which is the first-order optimality condition at a
    scalarized minimizer.
    """
    w = np.asarray(weight, dtype=float)
    w_hat = w / np.linalg.norm(w)
    u, _, _, rank = _svd_spaces(problem.gradients(x), tol)
    return float(np.linalg.norm(u[:, :rank].T @ w_hat))


# ---------------------------------------------------------------------------
# Fold criterion
# ---------------------------------------------------------------------------


@dataclass
class FoldReport:
    """Outcome of the fold test at a corank-1 critical point.

    ``minors`` are the n-m+1 maximal-minor determinants (all ~0 at a
    critical point); ``lambda_jacobian`` is their analytic derivative.  The
    point is a fold when that derivative is surjective and its kernel is
    complementary to the kernel of the differential.
    """

    is_fold: bool
    lambda_jacobian: np.ndarray  # (n-m+1, n)
    lambda_rank: int
    minors: np.ndarray  # (n-m+1,)
    lead_variables: tuple[int, ...]
    tail_variables: tuple[int, ...]
    kernel_df: np.ndarray  # (n, n-m+1)
    kernel_dlambda: np.ndarray  # (n, m-1)
    direct_sum: bool
    pivot_margin: float  # sigma_min of the chosen leading minor
    fd_error: float | None = None


def _minor_values(jac: np.ndarray, lead: tuple[int, ...], tails: tuple[int, ...]):
    return np.array(
        [np.linalg.det(jac[:, list(lead) + [t]]) for t in tails]
    )


def _pick_lead_variables(jac: np.ndarray, m: int, n: int, tol: float):
    """Variable subset maximizing the smallest singular value of the
    (m-1) x (m-1) block formed with the first m-1 objective rows."""
    top = jac[: m - 1, :]
    best, best_sigma = None, -1.0
    for subset in combinations(range(n), m - 1):
        sigma = np.linalg.svd(top[:, subset], compute_uv=False)[-1]
        if sigma > best_sigma:
            best, best_sigma = subset, float(sigma)
    smax = np.linalg.svd(jac, compute_uv=False)[0]
    if best_sigma <= tol * smax:
        raise NoRegularMinor(
            f"no regular leading minor: best pivot margin {best_sigma:.3e} "
            f"against scale {smax:.3e}"
        )
    return best, best_sigma


def fold_check(problem, x, tol: float = DEFAULT_RANK_TOL, fd_step: float | None = None) -> FoldReport:
    """Decide whether a corank-1 critical point is a fold point.

    Forms the vector of maximal minors after a variable permutation that
    keeps the leading block regular, differentiates it analytically through
    the cofactor expansion, and checks (a) the derivative has full rank
    n-m+1 and (b) its kernel is a direct-sum complement of the kernel of
    the differential.  ``fd_step`` enables a central-difference cross-check
    of the analytic derivative (returned as ``fd_error``).

    Raises NotCorankOne away from the corank-1 stratum and NoRegularMinor
    when no variable choice is regular.
    """
    x = np.asarray(x, dtype=float)
    n, m = problem.n, problem.m
    if n < m:
        raise ValueError(f"fold test requires n >= m, got n={n}, m={m}")
    if m < 2:
        raise ValueError("fold test requires at least two objectives")
    jac = problem.gradients(x)
    rep = rank_report(jac, tol)
    if rep.corank != 1:
        raise NotCorankOne(rep)

    lead, pivot_margin = _pick_lead_variables(jac, m, n, tol)
    tails = tuple(v for v in range(n) if v not in lead)
    minors = _minor_values(jac, lead, tails)

    # d(minor_i)/dx_l by cofactor expansion: replace one column of the m x m
    # block at a time with the corresponding Hessian column.
    hess = problem.hessians(x)
    k = len(tails)
    dlam = np.zeros((k, n))
    for i, t in enumerate(tails):
        sel = list(lead) + [t]
        block = jac[:, sel]
        for r in range(m):
            saved = block[:, r].copy()
            for l in range(n):
                block[:, r] = hess[:, sel[r], l]
                dlam[i, l] += np.linalg.det(block)
            block[:, r] = saved

    fd_error = None
    if fd_step is not None:
        fd = np.zeros_like(dlam)
        for l in range(n):
            step = np.zeros(n)
            step[l] = fd_step
            hi = _minor_values(problem.gradients(x + step), lead, tails)
            lo = _minor_values(problem.gradients(x - step), lead, tails)
            fd[:, l] = (hi - lo) / (2.0 * fd_step)
        fd_error = float(np.abs(dlam - fd).max())

    lam_rep = rank_report(dlam, tol)
    kernel_df = null_basis(jac, tol)
    kernel_dlam = null_basis(dlam, tol)
    stacked = np.hstack([kernel_df, kernel_dlam])
    spans = stacked.shape[1] == n and rank_report(stacked, tol).rank == n
    is_fold = lam_rep.rank == k and spans
    return FoldReport(
        is_fold=is_fold,
        lambda_jacobian=dlam,
        lambda_rank=lam_rep.rank,
        minors=minors,
        lead_variables=lead,
        tail_variables=tails,
        kernel_df=kernel_df,
        kernel_dlambda=kernel_dlam,
        direct_sum=spans,
        pivot_margin=pivot_margin,
        fd_error=fd_error,
    )
