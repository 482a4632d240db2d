"""Pareto dominance on objective vectors (componentwise, with tolerance):
all pairs in bounded blocks, or candidate pairs found by the caller (the
atlas summary searches x within the strong-convexity radius)."""
from __future__ import annotations

import numpy as np

__all__ = ["dominates", "dominating_pairs"]

DOMINANCE_TOL = 1e-9
BLOCK_ELEMENTS = 1 << 22  # booleans per comparison block of dominating_pairs


def dominates(a, b, tol: float = DOMINANCE_TOL) -> bool:
    """True when ``a`` is <= ``b`` everywhere and strictly better somewhere.

    With a positive ``tol``, "<=" is relaxed to ``a_i <= b_i + tol`` and
    "strictly better" tightened to ``a_i < b_i - tol``, so vectors within
    ``tol`` of each other never dominate one another.  ``a`` and ``b`` must
    be 1-D vectors of equal length.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-D vectors of equal length, got shapes "
                         f"{a.shape} and {b.shape}")
    return bool(np.all(a <= b + tol) and np.any(a < b - tol))


def _blocked(f: np.ndarray, tol: float, rows: np.ndarray, cols: np.ndarray):
    """Codes i * N + j of the pairs where row i of ``rows`` dominates row j
    of ``cols``, in blocks of at most ``BLOCK_ELEMENTS`` booleans.  Both are
    sorted on the first objective, so a block meets only the j from one
    searchsorted column on that have ``f[j] + tol`` not below the block's
    componentwise minimum."""
    if not (f.shape[1] and len(rows) and len(cols)):
        return  # no pair without an objective (none is strictly better) or a row
    rows = rows[np.argsort(f[rows, 0], kind="stable")]
    cols = cols[np.argsort(f[cols, 0], kind="stable")]
    height = max(1, BLOCK_ELEMENTS // max(1, len(cols)))
    upper, lower = f[cols].T + tol, f[cols].T - tol
    for start in range(0, len(rows), height):
        block = f[rows[start:start + height]].T
        least = np.fmin.reduce(block, axis=1)
        first = np.searchsorted(upper[0], least[0])
        cand = first + np.flatnonzero((upper[:, first:] >= least[:, None]).all(axis=0))
        le = np.ones((block.shape[1], len(cand)), dtype=bool)
        lt = np.zeros_like(le)
        for c in range(f.shape[1]):
            le &= block[c, :, None] <= upper[c, cand]
            lt |= block[c, :, None] < lower[c, cand]
        p, q = np.nonzero(le & lt)
        yield rows[start + p] * len(f) + cols[cand[q]]


def dominating_pairs(values, tol: float = DOMINANCE_TOL, *, near=None,
                     everywhere=()) -> list[tuple[int, int]]:
    """All ordered index pairs (i, j) where row i dominates row j, sorted.

    Row i dominates row j when ``f[i] <= f[j] + tol`` in every objective and
    ``f[i] < f[j] - tol`` in one, as in :func:`dominates`; a comparison with
    NaN is false.  By default every row meets every row, in blocks, so memory
    stays linear in the number of rows.  A caller that knows where the pairs
    lie passes ``near``, index arrays (a, b) of candidates, each tested both
    ways, and ``everywhere``, the rows that meet every row, both ways.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 2:
        raise ValueError("values must be an (N, m) array")
    n, every = len(f), np.arange(len(f))
    if near is None:
        codes = [every[:0], *_blocked(f, tol, every, every)]
    else:
        i, j = np.concatenate(near), np.concatenate(near[::-1])
        hit = (f[i] <= f[j] + tol).all(axis=1) & (f[i] < f[j] - tol).any(axis=1)
        rows = np.asarray(everywhere, dtype=int)
        others = np.delete(every, rows)
        codes = [i[hit] * n + j[hit], *_blocked(f, tol, rows, every),
                 *_blocked(f, tol, others, rows)]
    code = np.unique(np.concatenate(codes))
    return list(zip((code // n).tolist(), (code % n).tolist()))

