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
    "CorankCertificate",
    "FoldReport",
    "NotCorankOne",
    "NoRegularMinor",
    "numerical_rank",
    "corank_at",
    "corank_certificate",
    "certify_corank_on_atlas",
    "fold_check",
    "cokernel_basis",
]

DEFAULT_RANK_TOL = 1e-8


class NotCorankOne(RuntimeError):
    """Fold test applied at a point whose Jacobian corank is not 1."""

    def __init__(self, corank: int):
        super().__init__(f"fold test needs corank 1, got corank {corank}")
        self.corank = corank


class NoRegularMinor(RuntimeError):
    """No variable permutation makes the leading (m-1)-minor regular."""


def numerical_rank(singular_values: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """Count of descending singular values above ``tol`` times the largest (last axis)."""
    sv = np.asarray(singular_values)
    return np.count_nonzero(sv > tol * sv[..., :1], axis=-1)


def corank_at(problem, x, tol: float = DEFAULT_RANK_TOL) -> int:
    """Corank of the problem Jacobian at x, against min(n, m)."""
    sv = np.linalg.svd(problem.gradients(x), compute_uv=False)
    return len(sv) - int(numerical_rank(sv, tol))


@dataclass
class CorankCertificate:
    """Corank sweep over an atlas sample of the optimal set."""

    tolerance: float
    coranks: np.ndarray  # (N,) int
    max_corank: int
    witnesses: list[int]  # node indices below rank m - 1
    simplicial_on_sample: bool  # no witness: rank m - 1 or more at every node
    min_gap: float  # worst retained-singular-value margin across nodes


def corank_certificate(sv: np.ndarray, tol: float = DEFAULT_RANK_TOL,
                       m: int | None = None) -> CorankCertificate:
    """Corank certificate from each node's Jacobian singular values.

    ``sv`` is (N, k), one descending row per node, k = min(m, n); ``m``
    defaults to k.  The hypothesis is rank m - 1 at every node, which for
    n >= m is corank at most 1.  For n < m - 1 no node can meet it: no
    subset of R^n is homeomorphic to the (m-1)-simplex.
    """
    rank = numerical_rank(sv, tol)
    coranks = sv.shape[1] - rank
    retained = np.take_along_axis(sv, np.maximum(rank - 1, 0)[:, None], axis=1)[:, 0]
    gaps = np.full(len(rank), np.inf)
    gaps[rank > 0] = retained[rank > 0] / sv[rank > 0, 0]
    max_corank = int(coranks.max()) if coranks.size else 0
    witnesses = np.flatnonzero(rank < (sv.shape[1] if m is None else m) - 1).tolist()
    return CorankCertificate(
        tolerance=tol,
        coranks=coranks,
        max_corank=max_corank,
        witnesses=witnesses,
        simplicial_on_sample=not witnesses,
        min_gap=float(gaps.min()),
    )


def certify_corank_on_atlas(atlas) -> CorankCertificate:
    """Corank certificate over every atlas node at ``atlas.config.rank_tol``,
    against rank ``atlas.grid.m`` - 1.

    Evaluates the Jacobians at the stored minimizers and takes their SVDs,
    all nodes in one batch: the same evaluate and SVD that filled
    ``atlas.sv``, so its coranks equal ``atlas.corank`` at every converged
    node.
    """
    jac = atlas.problem.evaluate(atlas.x)[1]
    return corank_certificate(np.linalg.svd(jac, compute_uv=False), atlas.config.rank_tol,
                              atlas.grid.m)


# ---------------------------------------------------------------------------
# Cokernels
# ---------------------------------------------------------------------------


def _svd_spaces(matrix: np.ndarray, tol: float):
    u, sv, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=True)
    return u, sv, vt, int(numerical_rank(sv, tol))


def cokernel_basis(problem, x, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal columns spanning {v : v . rows(J) = 0} at x.

    This is the left null space of the Jacobian, i.e. the orthogonal
    complement of the image of the differential.
    """
    u, _, _, rank = _svd_spaces(problem.gradients(x), tol)
    return u[:, rank:]


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


def _pick_lead_variables(jac: np.ndarray, m: int, n: int, tol: float, smax: float):
    """Variable subset maximizing the smallest singular value of the
    (m-1) x (m-1) block formed with the first m-1 objective rows; ``smax``
    is the largest singular value of ``jac``."""
    top = jac[: m - 1, :]
    best, best_sigma = None, -1.0
    for subset in combinations(range(n), m - 1):
        sigma = np.linalg.svd(top[:, subset], compute_uv=False)[-1]
        if sigma > best_sigma:
            best, best_sigma = subset, float(sigma)
    if best_sigma <= tol * smax:
        raise NoRegularMinor(
            f"no regular leading minor: best pivot margin {best_sigma:.3e} "
            f"against scale {smax:.3e}"
        )
    return best, best_sigma


def fold_check(problem, x, tol: float = DEFAULT_RANK_TOL) -> FoldReport:
    """Decide whether a corank-1 critical point is a fold point.

    Forms the vector of maximal minors after a variable permutation that
    keeps the leading block regular, differentiates it analytically through
    the cofactor expansion, and checks (a) the derivative has full rank
    n-m+1 and (b) its kernel is a direct-sum complement of the kernel of
    the differential.  One SVD of the Jacobian gives its corank, its
    largest singular value and the kernel of the differential.

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
    _, sv, vt, rank = _svd_spaces(jac, tol)
    if len(sv) - rank != 1:
        raise NotCorankOne(len(sv) - rank)

    lead, pivot_margin = _pick_lead_variables(jac, m, n, tol, sv[0])
    tails = tuple(v for v in range(n) if v not in lead)
    minors = np.array([np.linalg.det(jac[:, list(lead) + [t]]) for t in tails])

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

    kernel_df = vt[rank:].T
    _, _, lam_vt, lambda_rank = _svd_spaces(dlam, tol)
    kernel_dlam = lam_vt[lambda_rank:].T
    stacked = np.hstack([kernel_df, kernel_dlam])
    spans = stacked.shape[1] == n and numerical_rank(
        np.linalg.svd(stacked, compute_uv=False), tol) == n
    return FoldReport(
        is_fold=lambda_rank == k and spans,
        lambda_jacobian=dlam,
        lambda_rank=lambda_rank,
        minors=minors,
        lead_variables=lead,
        tail_variables=tails,
        kernel_df=kernel_df,
        kernel_dlambda=kernel_dlam,
        direct_sum=spans,
        pivot_margin=pivot_margin,
    )
