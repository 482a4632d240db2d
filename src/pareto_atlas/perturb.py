"""Linear perturbations: genericity trials, corank-2 tracking, stability.

A linear perturbation adds pi_i . x to objective i, pi being a plain (m, n)
array.  Gradients shift by a constant, Hessians (hence strong convexity) are
untouched.  Draws are seeded and scale linearly: the same seed at a smaller
scale gives the same direction, shrunk.  ``GenericityReport`` and
``StabilityReport`` hold one array per field, row-aligned with the trials and
with the scales, as a ``ParetoAtlas`` holds one per node field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atlas import SimplexGrid, solve_grid
from .atlas import build_atlas  # noqa: F401 -- unused here; perfbench/tracing.py patches it
from .diagnostics import (
    certify_corank_on_atlas,  # noqa: F401 -- unused here; perfbench/tracing.py patches it
    cokernel_basis,
    numerical_rank,
)
from .problems import Problem
from .solver import DEFAULT_CONFIG, SolverConfig, SolverError, raise_unconverged, row_norms

__all__ = [
    "draw_perturbation",
    "perturb_problem",
    "GenericityReport",
    "genericity_experiment",
    "DBlockSingular",
    "TrackerDiverged",
    "TrackerReport",
    "corank2_system",
    "corank2_tracker",
    "StabilityReport",
    "stability_experiment",
]


def draw_perturbation(n: int, m: int, seed: int, scale: float) -> np.ndarray:
    """Linear terms pi (m, n) drawn uniformly from [-scale, scale]; all +0.0
    at scale 0 or -0.0.  Raises ValueError for a negative or non-finite scale."""
    if not np.isfinite(scale):
        raise ValueError(f"perturbation scale {scale:g} is not finite")
    if scale < 0:
        raise ValueError(f"perturbation scale {scale:g} is negative")
    return np.random.default_rng(seed).uniform(-scale, scale + 0.0, size=(m, n))


def perturb_problem(problem, pi) -> Problem:
    """The problem with pi_i . x added to objective i, for pi of shape (m, n)."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (problem.m, problem.n):
        raise ValueError(f"perturbation shape {pi.shape} does not match problem "
                         f"(m={problem.m}, n={problem.n})")
    return Problem(problem, linear=pi)


# ---------------------------------------------------------------------------
# Genericity experiment
# ---------------------------------------------------------------------------


@dataclass
class GenericityReport:
    """Coranks of randomly perturbed problems over an atlas sample.

    Trial t is the perturbation drawn with seed ``base_seed + t``.  Its
    nodes' ``residual``, ``converged`` and Jacobian singular values ``sv``
    are row t of the (trials, N) and (trials, N, min(m, n)) columns, named
    as on ``ParetoAtlas``; ``corank[i, t]`` holds trial t's node coranks at
    ``rank_tols[i]``.  For families below the dimension threshold, perturbed
    problems should show corank <= 1 everywhere; a corank-2 witness in any
    trial refutes genericity at the sampled resolution.  For n < m the
    hypothesis is rank m - 1, which ``trials_below_rank`` checks.
    """

    trials: int
    scale: float
    resolution: int
    base_seed: int
    rank_tols: tuple[float, ...]
    residual: np.ndarray  # (trials, N)
    converged: np.ndarray  # (trials, N) bool
    sv: np.ndarray  # (trials, N, min(m, n))
    corank: np.ndarray  # (len(rank_tols), trials, N)

    def corank2_trials(self, tol: float) -> list[int]:
        return self.trials_below_rank(tol, self.sv.shape[-1] - 1)

    def trials_below_rank(self, tol: float, rank: int) -> list[int]:
        """Trials with a node whose Jacobian has rank below ``rank`` at ``tol``."""
        peak = self.corank[self.rank_tols.index(tol)].max(axis=1)
        return np.flatnonzero(self.sv.shape[-1] - peak < rank).tolist()

    def as_dict(self) -> dict:
        tols = [str(tol) for tol in self.rank_tols]
        peak = self.corank.max(axis=2).tolist()
        worst = self.residual.max(axis=1).tolist()
        return {
            "schema": "pareto-atlas/genericity-v1",
            "trials": self.trials,
            "scale": self.scale,
            "resolution": self.resolution,
            "base_seed": self.base_seed,
            "rank_tols": list(self.rank_tols),
            "results": [
                {
                    "trial": t,
                    "seed": self.base_seed + t,
                    "max_corank": {tol: peak[i][t] for i, tol in enumerate(tols)},
                    "corank2_witnesses": {tol: np.flatnonzero(self.corank[i, t] >= 2).tolist()
                                          for i, tol in enumerate(tols)},
                    "max_kkt_residual": worst[t],
                }
                for t in range(self.trials)
            ],
            "corank2_trials": {str(tol): self.corank2_trials(tol) for tol in self.rank_tols},
        }


def genericity_experiment(
    problem,
    trials: int,
    scale: float,
    resolution: int,
    rank_tols=None,
    seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
) -> GenericityReport:
    """Atlas + corank sweep for ``trials`` seeded random perturbations.

    Trial t draws its perturbation with seed ``seed + t``, so runs are
    reproducible point by point.  One ``solve_grid`` call solves every
    trial's grid, each node cold, one SVD batch gives every node's singular
    values, and one ``numerical_rank`` call per tolerance of ``rank_tols``
    (default ``(config.rank_tol,)``, repeats dropped in order) gives every
    trial's coranks.  Raises ValueError for ``trials < 1`` or an empty
    ``rank_tols``: a sweep over no trials or no tolerance certifies nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rank_tols is None:
        rank_tols = (config.rank_tol,)
    tols = tuple(dict.fromkeys(float(t) for t in np.atleast_1d(rank_tols)))
    if not tols:
        raise ValueError("rank_tols must name at least one tolerance")
    pis = np.array([draw_perturbation(problem.n, problem.m, seed + t, scale)
                    for t in range(trials)])
    grid = SimplexGrid(problem.m, resolution)
    result = solve_grid(problem, grid.weights, config, pis)
    jac = problem.evaluate(result.x)[1] + np.repeat(pis, grid.node_count, axis=0)
    sv = np.linalg.svd(jac, compute_uv=False).reshape(trials, grid.node_count, -1)
    corank = np.array([sv.shape[-1] - numerical_rank(sv, tol) for tol in tols])
    return GenericityReport(trials, scale, resolution, seed, tols,
                            result.residual.reshape(trials, -1),
                            (result.residual <= result.tol).reshape(trials, -1), sv, corank)


# ---------------------------------------------------------------------------
# Corank-2 tracker for square (n = m = 4) mappings
# ---------------------------------------------------------------------------


E_TOL = 1e-12  # the tracker stops at |E| <= E_TOL


class DBlockSingular(SolverError):
    """Trailing 2x2 block of the transposed Jacobian is singular."""


class TrackerDiverged(SolverError):
    """Newton iteration on the reduced system failed to converge."""


def corank2_system(problem, x):
    """Schur complement E and its derivative for a square 4 -> 4 mapping.

    Splits the transposed Jacobian (rows = variables, columns = objectives)
    into 2x2 blocks [[A, B], [C, D]] and returns E = A - B D^-1 C together
    with dE (shape (4, 2, 2); dE[l] is the derivative in x_l).  Zeros of E
    are exactly the points where the Jacobian drops rank by 2, as long as D
    stays invertible.
    """
    x = np.asarray(x, dtype=float)
    if problem.n != 4 or problem.m != 4:
        raise ValueError("corank-2 tracking expects a square 4 -> 4 mapping")
    mt = problem.gradients(x).T
    a, b = mt[:2, :2], mt[:2, 2:]
    c, d = mt[2:, :2], mt[2:, 2:]
    try:
        y = np.linalg.solve(d, c)  # D^-1 C
        z = np.linalg.solve(d.T, b.T).T  # B D^-1
    except np.linalg.LinAlgError as exc:
        raise DBlockSingular(f"D block singular at x={x.tolist()}") from exc
    e = a - b @ y
    hess = problem.hessians(x)
    de = np.zeros((4, 2, 2))
    for l in range(4):
        dmt = hess[:, :, l].T  # (variables, objectives)
        da, db = dmt[:2, :2], dmt[:2, 2:]
        dc, dd = dmt[2:, :2], dmt[2:, 2:]
        de[l] = da - db @ y - z @ dc + z @ dd @ y
    return e, de


@dataclass
class TrackerReport:
    x_hat: np.ndarray
    e_norm: float
    iterations: int
    corank: int
    singular_values: np.ndarray
    cokernel: np.ndarray  # (4, k) orthonormal
    meets_simplex_interior: bool
    interior_margin: float
    interior_witness: np.ndarray | None
    perturbation: np.ndarray  # (m, n) linear terms pi

    def as_dict(self) -> dict:
        return {
            "schema": "pareto-atlas/tracker-v1",
            "x_hat": self.x_hat.tolist(),
            "e_norm": self.e_norm,
            "iterations": self.iterations,
            "corank": self.corank,
            "singular_values": self.singular_values.tolist(),
            "cokernel": self.cokernel.tolist(),
            "meets_simplex_interior": self.meets_simplex_interior,
            # -inf when the cokernel is empty or the LP fails, and JSON has no Infinity
            "interior_margin": self.interior_margin if np.isfinite(self.interior_margin) else None,
            "interior_witness": (
                None if self.interior_witness is None else self.interior_witness.tolist()
            ),
        }


def _interior_intersection(cok: np.ndarray):
    """Maximize t with K c >= t componentwise and sum(K c) = 1 (an LP).

    A positive optimum exhibits a cokernel vector inside the open simplex;
    infeasibility or t <= 0 means the cokernel misses the interior.
    """
    k = cok.shape[1]
    if k == 0:
        return False, -np.inf, None
    from scipy.optimize import linprog

    c_obj = np.zeros(k + 1)
    c_obj[-1] = -1.0  # maximize t
    a_ub = np.hstack([-cok, np.ones((cok.shape[0], 1))])
    b_ub = np.zeros(cok.shape[0])
    a_eq = np.concatenate([cok.sum(axis=0), [0.0]])[None, :]
    res = linprog(
        c_obj,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(None, None)] * (k + 1),
        method="highs",
    )
    if res.status != 0:
        return False, -np.inf, None
    margin = float(res.x[-1])
    witness = cok @ res.x[:-1]
    return margin > 1e-9, margin, (witness if margin > 1e-9 else None)


def corank2_tracker(
    problem,
    perturbation=None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> TrackerReport:
    """Track the corank-2 point of a square 4 -> 4 mapping under perturbation.

    Newton-solves E(x, pi) = 0 for the Schur complement of ``corank2_system``
    starting from the origin, for at most ``config.max_iter`` iterations; it
    stops at |E| <= ``E_TOL``, and ``config.grad_tol`` does not apply.
    Reports the corank (at ``config.rank_tol``) and cokernel at the root and
    whether the cokernel meets the open weight simplex, which is what makes
    the degenerate point a genuine obstruction rather than an invisible one.
    ``perturbation`` is the (m, n) array pi, zero when None.
    """
    if perturbation is None:
        perturbation = np.zeros((problem.m, problem.n))
    target = perturb_problem(problem, perturbation)
    x = np.zeros(4)
    e, de = corank2_system(target, x)
    iterations = 0
    while np.linalg.norm(e) > E_TOL and iterations < config.max_iter:
        jac = de.transpose(1, 2, 0).reshape(4, 4)
        try:
            step = np.linalg.solve(jac, -e.reshape(4))
        except np.linalg.LinAlgError as exc:
            raise TrackerDiverged("reduced Newton system singular") from exc
        x = x + step
        e, de = corank2_system(target, x)
        iterations += 1
    e_norm = float(np.linalg.norm(e))
    if e_norm > E_TOL:
        raise TrackerDiverged(
            f"no root after {config.max_iter} iterations (|E| = {e_norm:.3e})"
        )
    sv = np.linalg.svd(target.gradients(x), compute_uv=False)
    cok = cokernel_basis(target, x, config.rank_tol)
    meets, margin, witness = _interior_intersection(cok)
    return TrackerReport(
        x_hat=x,
        e_norm=e_norm,
        iterations=iterations,
        corank=len(sv) - int(numerical_rank(sv, config.rank_tol)),
        singular_values=sv,
        cokernel=cok,
        meets_simplex_interior=meets,
        interior_margin=margin,
        interior_witness=witness,
        perturbation=target.linear,
    )


# ---------------------------------------------------------------------------
# Stability under shrinking perturbations
# ---------------------------------------------------------------------------


@dataclass
class StabilityReport:
    """Displacement of the atlas at each perturbation scale, one entry per scale."""

    resolution: int
    seed: int
    scales: np.ndarray  # (k,)
    sup_displacement: np.ndarray  # (k,) max over nodes of |x_scale - x_0|
    mean_displacement: np.ndarray  # (k,)

    def as_dict(self) -> dict:
        columns = zip(self.scales.tolist(), self.sup_displacement.tolist(),
                      self.mean_displacement.tolist())
        return {
            "schema": "pareto-atlas/stability-v1",
            "resolution": self.resolution,
            "seed": self.seed,
            "rows": [{"scale": scale, "seed": self.seed, "sup_displacement": sup,
                      "mean_displacement": mean} for scale, sup, mean in columns],
        }


def stability_experiment(
    problem,
    scales,
    resolution: int,
    seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
) -> StabilityReport:
    """Sup-displacement of the solution map under one shrinking perturbation.

    All scales reuse the same seed, so they perturb along a single direction
    with decreasing magnitude; displacements should decrease accordingly.
    One ``solve_grid`` call solves the grid for the linear terms
    [0, pi_1, ..., pi_k], the unperturbed problem first, every node cold.
    """
    scales = np.array(scales, dtype=float)
    pis = np.array([draw_perturbation(problem.n, problem.m, seed, scale)
                    for scale in [0.0, *scales]])
    grid = SimplexGrid(problem.m, resolution)
    result = solve_grid(problem, grid.weights, config, pis)
    raise_unconverged(result)
    x = result.x.reshape(len(pis), grid.node_count, problem.n)
    gaps = row_norms((x[1:] - x[0]).reshape(-1, problem.n)).reshape(len(scales), grid.node_count)
    return StabilityReport(resolution, seed, scales, gaps.max(axis=1), gaps.mean(axis=1))
