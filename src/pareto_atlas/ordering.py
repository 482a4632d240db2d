"""Pareto dominance on objective vectors (componentwise, with tolerance)."""
from __future__ import annotations

import numpy as np

__all__ = ["dominates", "dominating_pairs", "mutually_nondominated"]

DOMINANCE_TOL = 1e-9
BLOCK_ELEMENTS = 1 << 22  # booleans per comparison block of dominating_pairs


def dominates(a, b, tol: float = DOMINANCE_TOL) -> bool:
    """True when ``a`` is <= ``b`` everywhere and strictly better somewhere.

    With a positive ``tol``, "<=" is relaxed to ``a_i <= b_i + tol`` and
    "strictly better" tightened to ``a_i < b_i - tol``, so vectors within
    ``tol`` of each other never dominate one another.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b + tol) and np.any(a < b - tol))


def dominating_pairs(values, tol: float = DOMINANCE_TOL) -> list[tuple[int, int]]:
    """All ordered index pairs (i, j) where row i dominates row j, sorted.

    Rows are compared a block at a time, one objective at a time, so memory
    stays at about ``BLOCK_ELEMENTS`` booleans instead of N x N x m.  A
    block is compared only with the rows not below its componentwise
    minimum (NaNs skipped) by more than ``tol``; no other row can be
    dominated by it.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 2:
        raise ValueError("values must be an (N, m) array")
    upper, lower = f + tol, f - tol
    height = max(1, BLOCK_ELEMENTS // max(1, len(f)))
    rows, cols = [], []
    for start in range(0, len(f), height):
        block = f[start:start + height]
        cand = np.flatnonzero((upper >= np.fmin.reduce(block, axis=0)).all(axis=1))
        le = np.ones((len(block), len(cand)), dtype=bool)
        lt = np.zeros_like(le)
        for c in range(f.shape[1]):
            le &= block[:, c, None] <= upper[None, cand, c]
            lt |= block[:, c, None] < lower[None, cand, c]
        r, c = np.nonzero(le & lt)
        keep = r + start != cand[c]
        rows.append(r[keep] + start)
        cols.append(cand[c[keep]])
    if not rows:
        return []
    return list(zip(np.concatenate(rows).tolist(), np.concatenate(cols).tolist()))


def mutually_nondominated(values, tol: float = DOMINANCE_TOL) -> bool:
    """True when no row of ``values`` dominates another."""
    return not dominating_pairs(values, tol)
