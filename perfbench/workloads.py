"""Benchmark workloads: seeded inputs, CLI argument lists and output oracles.

Every oracle here is independent of the package under test.  It recomputes
what the output must be from closed forms (numpy and scipy.spatial only) and
returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

WORKLOADS = ("verify-large", "genericity-sweep", "locate-export")
VERIFY_N, VERIFY_M, VERIFY_R = 6, 3, 100
SWEEP_TRIALS, SWEEP_R, SWEEP_SCALE = 60, 20, 0.1  # SWEEP_SCALE is the CLI default --scale
LOCATE_N, LOCATE_M, LOCATE_R = 8, 4, 20
GRAD_TOL = 1e-10  # the CLI default --grad-tol
RANK_TOLS = (1e-7, 1e-8, 1e-9)


def grid_nodes(m: int, r: int) -> np.ndarray:
    """All integer compositions of r into m nonnegative parts (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(r + m - 1), m - 1)), dtype=int)
    bars = bars.reshape(-1, m - 1)
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), r + m - 1)])
    return np.diff(edges, axis=1) - 1


def adjacent_pairs(nodes: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of nodes one unit transposition k - e_a + e_b apart."""
    m = nodes.shape[1]
    radix = (r + 1) ** np.arange(m)
    codes = nodes @ radix
    order = np.argsort(codes)
    left, right = [], []
    for a, b in itertools.permutations(range(m), 2):
        src = np.nonzero(nodes[:, a] > 0)[0]
        moved = codes[src] - radix[a] + radix[b]
        left.append(src)
        right.append(order[np.searchsorted(codes[order], moved)])
    return np.concatenate(left), np.concatenate(right)


def quadratic_minimizers(qs: np.ndarray, bs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Closed form x*(w) = -(sum_i w_i Q_i)^-1 sum_i w_i b_i for every row w."""
    mixed = np.einsum("ki,ijl->kjl", weights, qs)
    rhs = -(weights @ bs)
    return np.linalg.solve(mixed, rhs[:, :, None])[:, :, 0]


def _rel_close(got, want, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def _parse_json(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


# ---------------------------------------------------------------------------
# verify-large
# ---------------------------------------------------------------------------


@dataclass
class VerifyExpectation:
    node_count: int
    min_pairwise_x_distance: float
    max_adjacent_x_distance: float


def verify_expectation(qs, bs, r: int) -> VerifyExpectation:
    m = qs.shape[0]
    nodes = grid_nodes(m, r)
    xs = quadratic_minimizers(qs, bs, nodes / r)
    dist, _ = cKDTree(xs).query(xs, k=2)
    left, right = adjacent_pairs(nodes, r)
    adjacent = np.linalg.norm(xs[left] - xs[right], axis=1)
    return VerifyExpectation(len(nodes), float(dist[:, 1].min()), float(adjacent.max()))


def check_verify(returncode: int, stdout: str, want: VerifyExpectation,
                 rtol: float = 1e-6) -> list[str]:
    """``verify --json``: exit 0, node count, no failures, closed-form distances."""
    problems = [] if returncode == 0 else [f"exit code {returncode}, expected 0"]
    doc = _parse_json(stdout, problems)
    summary = doc.get("summary") if isinstance(doc, dict) else None
    if not isinstance(summary, dict):
        return problems + ["no summary in the report"]
    for key, value in (("node_count", want.node_count), ("unconverged", 0),
                       ("dominance_violations", 0)):
        if summary.get(key) != value:
            problems.append(f"{key} = {summary.get(key)!r}, expected {value}")
    for key in ("min_pairwise_x_distance", "max_adjacent_x_distance"):
        got, expected = summary.get(key), getattr(want, key)
        if not isinstance(got, (int, float)) or not _rel_close(got, expected, rtol):
            problems.append(f"{key} = {got!r}, closed form gives {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# genericity-sweep
# ---------------------------------------------------------------------------

# example31's linear terms have norm at most sqrt(2) and a perturbation of
# scale s adds at most s*sqrt(3), which bounds the gradient norm every cold
# or warm start sees; the solver scales its tolerance by that norm.
EXAMPLE31_GRADIENT_BOUND = math.sqrt(2.0) + SWEEP_SCALE * math.sqrt(3.0)


def check_genericity(returncode: int, stdout: str, seed: int, trials: int,
                     rank_tols=RANK_TOLS) -> list[str]:
    """``perturb --json``: every seeded trial present, corank <= 1, KKT within tolerance."""
    problems = [] if returncode == 0 else [f"exit code {returncode}, expected 0"]
    doc = _parse_json(stdout, problems)
    results = doc.get("genericity", {}).get("results") if isinstance(doc, dict) else None
    if not isinstance(results, list):
        return problems + ["no genericity results in the report"]
    seeds = [row.get("seed") for row in results]
    if seeds != list(range(seed, seed + trials)):
        problems.append(f"trial seeds {seeds[:3]}... do not run {seed}..{seed + trials - 1}")
    kkt_bound = GRAD_TOL * max(1.0, EXAMPLE31_GRADIENT_BOUND)
    for row in results:
        coranks = {float(k): v for k, v in row.get("max_corank", {}).items()}
        for tol in rank_tols:
            if coranks.get(tol, 2) >= 2:
                problems.append(f"trial seed {row.get('seed')}: corank {coranks.get(tol)} at tol {tol:g}")
        kkt = row.get("max_kkt_residual")
        if not isinstance(kkt, (int, float)) or not math.isfinite(kkt) or kkt > kkt_bound:
            problems.append(f"trial seed {row.get('seed')}: max KKT residual {kkt!r} > {kkt_bound:.3g}")
    return problems


# ---------------------------------------------------------------------------
# locate-export
# ---------------------------------------------------------------------------


def check_locate(returncode: int, prefix: Path, points: np.ndarray, r: int,
                 atol: float = 1e-9) -> list[str]:
    """``locate --out prefix``: the CSV covers the grid and every x equals sum_i w_i p_i."""
    problems = [] if returncode == 0 else [f"exit code {returncode}, expected 0"]
    m, n = points.shape
    want_rows = math.comb(r + m - 1, m - 1)
    csv_path, json_path = Path(f"{prefix}.csv"), Path(f"{prefix}.json")
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = np.array([[float(v) for v in row[: m + n]] for row in reader])
    except (OSError, StopIteration, ValueError) as exc:
        return problems + [f"cannot read {csv_path.name}: {exc}"]
    expected_header = [f"w_{i + 1}" for i in range(m)] + [f"x_{i + 1}" for i in range(n)]
    if header[: m + n] != expected_header:
        return problems + [f"CSV header {header[: m + n]} is not {expected_header}"]
    if rows.shape != (want_rows, m + n):
        return problems + [f"CSV has {len(rows)} rows, expected C({r + m - 1}, {m - 1}) = {want_rows}"]
    ws, xs = rows[:, :m], rows[:, m:]
    ks = np.rint(ws * r).astype(int)
    if np.abs(ws * r - ks).max() > 1e-9 or (ks.sum(axis=1) != r).any() \
            or len({tuple(k) for k in ks.tolist()}) != want_rows:
        problems.append("CSV weights are not the resolution-r grid, one row per node")
    err = float(np.abs(xs - ws @ points).max())
    scale = max(1.0, float(np.abs(points).max()))
    if not err <= atol * scale:
        problems.append(f"max |x - sum_i w_i p_i| = {err:.3e} > {atol * scale:.3e}")
    try:
        nodes = json.loads(json_path.read_text()).get("nodes")
    except (OSError, json.JSONDecodeError, AttributeError) as exc:
        return problems + [f"cannot read {json_path.name}: {exc}"]
    if not isinstance(nodes, list) or len(nodes) != want_rows:
        problems.append(f"JSON export does not hold {want_rows} nodes")
    return problems


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """One benchmark workload: its CLI arguments and the oracle for its output.

    ``args`` follow ``pareto-atlas``; the run starts in a fresh directory,
    which ``check(returncode, stdout, workdir)`` reads exports from.
    """

    name: str
    seed: int
    nodes: int  # grid nodes one run solves and certifies
    args: list[str]
    check: Callable[[int, str, Path], list[str]]
    inputs: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.args[0]


def make_workload(name: str, seed: int, input_dir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and write them to ``input_dir``."""
    rng = np.random.default_rng(seed)
    if name == "verify-large":
        a = rng.standard_normal((VERIFY_M, VERIFY_N, VERIFY_N))
        qs = a @ a.transpose(0, 2, 1) + np.eye(VERIFY_N)
        bs = rng.standard_normal((VERIFY_M, VERIFY_N))
        cs = rng.standard_normal(VERIFY_M)
        path = input_dir / "verify-large.json"
        doc = {"family": "generic_quadratic", "q": qs.tolist(), "b": bs.tolist(), "c": cs.tolist()}
        path.write_text(json.dumps(doc))
        want = verify_expectation(qs, bs, VERIFY_R)
        return Workload(
            name, seed, want.node_count, ["verify", str(path), "-r", str(VERIFY_R), "--json"],
            lambda rc, out, workdir: check_verify(rc, out, want), {"problem": path},
        )
    if name == "genericity-sweep":
        tols = itertools.chain.from_iterable(("--rank-tols", f"{t:g}") for t in RANK_TOLS)
        return Workload(
            name, seed, SWEEP_TRIALS * math.comb(SWEEP_R + 2, 2),
            ["perturb", "--json", "--builtin", "example31", "--trials", str(SWEEP_TRIALS),
             "-r", str(SWEEP_R), *tols, "--seed", str(seed)],
            lambda rc, out, workdir: check_genericity(rc, out, seed, SWEEP_TRIALS),
        )
    if name == "locate-export":
        points = rng.standard_normal((LOCATE_M, LOCATE_N))
        path = input_dir / "locate-export.json"
        path.write_text(json.dumps({"family": "distance_squared", "points": points.tolist()}))
        return Workload(
            name, seed, math.comb(LOCATE_R + LOCATE_M - 1, LOCATE_M - 1),
            ["locate", str(path), "--json", "--out", "atlas", "-r", str(LOCATE_R)],
            lambda rc, out, workdir: check_locate(rc, workdir / "atlas", points, LOCATE_R),
            {"problem": path, "points": points},
        )
    raise ValueError(f"unknown workload {name!r}")
