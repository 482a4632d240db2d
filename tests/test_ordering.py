"""Componentwise dominance: definition, tolerance band, order invariance."""
from __future__ import annotations

import numpy as np
import pytest

from pareto_atlas import dominates, dominating_pairs


def test_strict_improvement_everywhere():
    assert dominates([0.0, 0.0], [1.0, 1.0])
    assert not dominates([1.0, 1.0], [0.0, 0.0])


def test_weak_improvement_with_one_strict():
    assert dominates([0.0, 1.0], [1.0, 1.0])


def test_equal_vectors_do_not_dominate():
    assert not dominates([1.0, 2.0], [1.0, 2.0])


def test_incomparable_pair():
    assert not dominates([0.0, 1.0], [1.0, 0.0])
    assert not dominates([1.0, 0.0], [0.0, 1.0])


def test_tolerance_band_suppresses_noise():
    # a is better only by less than the tolerance: treated as a tie
    assert not dominates([0.0, 0.0], [5e-10, 5e-10], tol=1e-9)
    # worse by less than the tolerance in one entry does not block dominance
    assert dominates([1e-10, -1.0], [0.0, 0.0], tol=1e-9)


def test_dominating_pairs_known_answer():
    f = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 2.0], [2.0, 0.5]])
    # (1,1) is incomparable with both (0.5,2) and (2,0.5); only row 0 dominates
    assert dominating_pairs(f) == [(0, 1), (0, 2), (0, 3)]


def test_candidates_alone_sort_no_row(monkeypatch):
    """With no row that meets every row, only the candidate pairs are
    compared: nothing sorts or set-differences the rows."""
    f = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 2.0], [2.0, 0.5]])
    near = (np.array([0, 0, 1]), np.array([1, 3, 2]))

    def refuse(*args, **kwargs):
        raise AssertionError("the rows were sorted")

    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "setdiff1d", refuse)
    assert dominating_pairs(f, near=near, everywhere=[]) == [(0, 1), (0, 3)]


def test_front_sample_is_mutually_nondominated():
    t = np.linspace(0.0, np.pi / 2.0, 25)
    front = np.column_stack([np.cos(t), np.sin(t)])  # decreasing vs increasing
    assert not dominating_pairs(front)


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError, match="array"):
        dominating_pairs(np.zeros(4))


@pytest.mark.parametrize("a,b", [([0, 0], [1]), ([0.0], [1, 2, 3]),
                                 ([[0, 0], [0, 0]], [1, 1]), (0.0, 1.0)])
def test_dominates_rejects_vectors_that_do_not_match(a, b):
    """Broadcasting would compare these and answer True."""
    with pytest.raises(ValueError, match="1-D vectors of equal length"):
        dominates(a, b)


def test_invariance_under_increasing_transforms(rng):
    """Dominance only uses the order on each axis, so strictly increasing
    componentwise maps preserve it (the weakly-simplicial reparametrization
    argument relies on exactly this)."""
    transform = lambda v: v + v**3
    for _ in range(200):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        assert dominates(a, b, tol=0.0) == dominates(transform(a), transform(b), tol=0.0)
