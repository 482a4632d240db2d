"""Rank certificates and cokernels for objective mappings.

Everything here works on the Jacobian J of the mapping at a point (row i is
the gradient of objective i).  Numerical rank uses a relative singular value
threshold: rank = #{sigma_i > tol * sigma_max}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "CorankCertificate",
    "numerical_rank",
    "corank_at",
    "corank_certificate",
    "certify_corank_on_atlas",
    "cokernel_basis",
]

DEFAULT_RANK_TOL = 1e-8


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
