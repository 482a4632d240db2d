"""Shared fixtures: fixture problems, seeded instances, and the acceptance
summary hook (one line per acceptance criterion at the end of the run)."""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import pareto_atlas
from pareto_atlas import (
    DistanceSquared,
    GenericQuadratic,
    LocationInstance,
    Phenotypic,
    Problem,
    RidgePair,
    build_problem,
    builtin_problem,
)


def child_env() -> dict:
    """Environment for a child that imports the package this test imported,
    also where only pytest's own pythonpath setting put it on the path."""
    src = str(Path(pareto_atlas.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def example31():
    return builtin_problem("example31")


@pytest.fixture
def example31_perturbed():
    return builtin_problem("example31_perturbed", epsilon=0.1)


@pytest.fixture
def example32():
    return builtin_problem("example32")


@pytest.fixture
def remark_g():
    return builtin_problem("remark_g")


def random_quadratic(seed: int, n: int = 3, m: int = 3):
    """Seeded strongly convex quadratic family (Hessian = A A^T + I)."""
    gen = np.random.default_rng(seed)
    qs = np.empty((m, n, n))
    for i in range(m):
        a = gen.normal(size=(n, n))
        qs[i] = a @ a.T + np.eye(n)
    bs = gen.normal(size=(m, n))
    cs = gen.normal(size=m)
    return build_problem(GenericQuadratic(qs, bs, cs))


@pytest.fixture
def quadratic():
    return random_quadratic(7)


@pytest.fixture
def triangle():
    return LocationInstance(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def ridge_instance(seed: int = 42, n_obs: int = 20, p: int = 5, mu: float = 0.1):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n_obs, p))
    theta = gen.normal(size=p)
    y = x @ theta + 0.1 * gen.normal(size=n_obs)
    return RidgePair(x, y, mu)


@pytest.fixture
def ridge20x5():
    return ridge_instance()


def interior_weights(m: int, count: int, seed: int) -> np.ndarray:
    """Seeded strictly positive simplex weights."""
    gen = np.random.default_rng(seed)
    w = gen.dirichlet(np.ones(m) * 5.0, size=count)
    return 0.9 * w + 0.1 / m  # keep clear of the boundary


def phenotypic_instance(seed: int = 7, m: int = 3, n: int = 2):
    gen = np.random.default_rng(seed)
    mats = np.empty((m, n, n))
    for i in range(m):
        a = gen.normal(size=(n, n))
        mats[i] = a @ a.T + 2.0 * np.eye(n)
    return build_problem(Phenotypic(mats, gen.normal(size=(m, n))))


def fixture_problems():
    """Every family once, for cross-cutting property tests."""
    ridge = ridge_instance()
    return [
        ("example31", builtin_problem("example31")),
        ("example31_perturbed", builtin_problem("example31_perturbed", epsilon=0.1)),
        ("example32", builtin_problem("example32")),
        ("remark_g", builtin_problem("remark_g")),
        ("generic_quadratic", random_quadratic(7)),
        ("distance_squared",
         build_problem(DistanceSquared(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))),
        ("phenotypic", phenotypic_instance()),
        ("ridge_pair", build_problem(RidgePair(ridge.x_data, ridge.y_data, ridge.mu))),
    ]


@dataclass(frozen=True)
class SoftplusFamily(Problem):
    """Non-quadratic, strongly convex test family: f_i(x) = softplus(a_i.x) + |x - p_i|^2.

    Its Hessians depend on x, so Newton needs several steps per node.
    """

    a: np.ndarray
    p: np.ndarray

    tag = "softplus"
    fields = {"a": ("a", "mn"), "p": ("p", "mn")}

    def _evaluate(self, xs):
        z = np.einsum("Ni,ki->Nk", xs, self.a)
        diff = xs[:, None, :] - self.p
        sig = 0.5 * (1.0 + np.tanh(0.5 * z))
        values = np.logaddexp(0.0, z) + np.einsum("Nki,Nki->Nk", diff, diff)
        jac = sig[:, :, None] * self.a + 2.0 * diff
        outer = np.einsum("ki,kj->kij", self.a, self.a)
        hess = (sig * (1.0 - sig))[:, :, None, None] * outer + 2.0 * np.eye(self.n)
        return values, jac, hess


def softplus_problem(seed: int = 0, n: int = 2, m: int = 3, steepness: float = 1.0):
    """A seeded SoftplusFamily; steepness scales the a_i (at 10, Armijo backtracks)."""
    gen = np.random.default_rng(seed)
    return build_problem(SoftplusFamily(steepness * gen.normal(size=(m, n)),
                                        gen.normal(size=(m, n))))


def fd_gradients(problem, x, h: float = 1e-6) -> np.ndarray:
    """Central differences of the values; rows are objective gradients."""
    x = np.asarray(x, dtype=float)
    out = np.empty((problem.m, problem.n))
    for l in range(problem.n):
        e = np.zeros(problem.n)
        e[l] = h
        out[:, l] = (problem.values(x + e) - problem.values(x - e)) / (2.0 * h)
    return out


def fd_hessians(problem, x, h: float = 1e-6) -> np.ndarray:
    """Central differences of the gradients, stacked per objective."""
    x = np.asarray(x, dtype=float)
    out = np.empty((problem.m, problem.n, problem.n))
    for l in range(problem.n):
        e = np.zeros(problem.n)
        e[l] = h
        out[:, :, l] = (problem.gradients(x + e) - problem.gradients(x - e)) / (2.0 * h)
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                name = nodeid.split("::")[-1]
                flag = "PASS" if status == "passed" else "FAIL"
                lines.append((name, flag))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, flag in sorted(lines):
            terminalreporter.write_line(f"[{flag}] {name}")
