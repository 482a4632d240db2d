"""Pareto dominance on objective vectors (componentwise, with tolerance)."""
from __future__ import annotations

import numpy as np

__all__ = ["dominates", "dominating_pairs", "mutually_nondominated"]

DOMINANCE_TOL = 1e-9
BLOCK_ELEMENTS = 1 << 22  # booleans per comparison block of dominating_pairs
LEAF_ROWS = 32  # most rows in one k-d leaf of dominating_pairs


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


def _kd_leaves(f: np.ndarray) -> np.ndarray:
    """Row indices of ``f`` in k-d order, as an (L, S) array of leaves.

    Every segment is split at the median of its widest objective (NaN
    ignored) until no leaf holds more than ``LEAF_ROWS`` rows.  Short
    leaves are padded with the index ``len(f)``.
    """
    n, m = f.shape
    rank = np.empty((n, m), dtype=np.intp)  # NaN ranks last
    rank[np.argsort(f, axis=0, kind="stable"), np.arange(m)] = np.arange(n)[:, None]
    order, starts = np.arange(n), np.zeros(1, dtype=np.intp)
    while -(-n // len(starts)) > LEAF_ROWS:
        rows = f[order]
        with np.errstate(invalid="ignore"):  # inf - inf where a column is all inf
            width = np.fmax.reduceat(rows, starts) - np.fmin.reduceat(rows, starts)
        seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
        axis = np.argmax(np.fmax(width, -1.0), axis=1)[seg]
        order = order[np.argsort(seg * n + rank[order, axis])]
        starts = np.column_stack([starts, (starts + np.append(starts[1:], n)) // 2]).ravel()
    sizes = np.diff(starts, append=n)
    slot = np.arange(sizes.max())
    return np.where(slot < sizes[:, None], order[np.minimum(starts[:, None] + slot, n - 1)], n)


def dominating_pairs(values, tol: float = DOMINANCE_TOL) -> list[tuple[int, int]]:
    """All ordered index pairs (i, j) where row i dominates row j, sorted.

    Row i dominates row j when ``f[i] <= f[j] + tol`` in every objective and
    ``f[i] < f[j] - tol`` in one, as in :func:`dominates`; a comparison with
    NaN is false.  On a sampled Pareto front a value can be dominated only
    by values close to it, so the rows are put in k-d order (Bentley 1975)
    and cut into leaves of at most ``LEAF_ROWS`` rows.  A pair of leaves
    (A, B) is compared row by row only when the componentwise minimum of
    ``f`` over A is <= the maximum of ``f + tol`` over B in every objective;
    no other pair of leaves can hold a dominating pair.  Both the leaf test
    and the row comparison run in blocks of at most ``BLOCK_ELEMENTS``
    booleans, so memory stays linear in the number of rows.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 2:
        raise ValueError("values must be an (N, m) array")
    n, m = f.shape
    if n < 2 or m == 0:
        return []
    leaves = _kd_leaves(f)
    value = np.vstack([f, np.full((1, m), np.nan)]).T[:, leaves]  # (m, L, S), NaN-padded
    lo, hi = np.fmin.reduce(value, axis=2), np.fmax.reduce(value + tol, axis=2)

    n_leaves, size = leaves.shape
    height = max(1, BLOCK_ELEMENTS // n_leaves)
    near = []
    for s in range(0, n_leaves, height):
        block = lo[:, s:s + height]
        ok = np.ones((block.shape[1], n_leaves), dtype=bool)
        for c in range(m):
            ok &= block[c, :, None] <= hi[c]
        near.append(np.argwhere(ok) + (s, 0))
    a_leaf, b_leaf = np.concatenate(near).T

    rows, cols = [], []
    chunk = max(1, BLOCK_ELEMENTS // (size * size))
    for s in range(0, len(a_leaf), chunk):
        a, b = a_leaf[s:s + chunk], b_leaf[s:s + chunk]
        le = np.ones((len(a), size, size), dtype=bool)
        lt = np.zeros_like(le)
        for c in range(m):
            fa, fb = value[c, a, :, None], value[c, b, None, :]
            le &= fa <= fb + tol
            lt |= fa < fb - tol
        p, r, q = np.nonzero(np.logical_and(le, lt, out=le))
        rows.append(leaves[a[p], r])
        cols.append(leaves[b[p], q])
    if not rows:
        return []
    i, j = np.concatenate(rows), np.concatenate(cols)
    keep = i != j
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return list(zip(i[order].tolist(), j[order].tolist()))


def mutually_nondominated(values, tol: float = DOMINANCE_TOL) -> bool:
    """True when no row of ``values`` dominates another."""
    return not dominating_pairs(values, tol)
