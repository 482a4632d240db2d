"""In-process traced passes and the per-layer metrics derived from their spans.

The verify-large and locate-export passes call ``pareto_atlas.cli.main`` with
the workload's own arguments, so they run the same code as the CLI child.
The genericity-sweep pass runs its trials one at a time, so each trial gets a
span.  With a ``Tracer`` the calls into each layer are wrapped from outside
the package (module attributes and class attributes are patched for the pass
and restored after it); each wrapper records a span and, where a layer does
countable work, a count.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import workloads as W

# (name, unit, better).  README.md says which end-to-end metric and workload
# each one should move.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_optimize_s", "s", "lower"),
    ("problems.parse_s", "s", "lower"),
    ("problems.convexity_s", "s", "lower"),
    ("atlas.grid_s", "s", "lower"),
    ("atlas.adjacency_s", "s", "lower"),
    ("atlas.build_s", "s", "lower"),
    ("atlas.nodes", "count", "higher"),
    ("atlas.summary_s", "s", "lower"),
    ("atlas.injectivity_s", "s", "lower"),
    ("atlas.collapsed_pairs", "count", "lower"),
    ("atlas.pairwise_bytes", "bytes", "lower"),
    ("atlas.face_s", "s", "lower"),
    ("atlas.face_checked", "count", "higher"),
    ("atlas.export_csv_s", "s", "lower"),
    ("atlas.export_json_s", "s", "lower"),
    ("atlas.export_bytes", "bytes", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.us_per_node", "us", "lower"),
    ("solver.newton_iters", "count", "lower"),
    ("solver.unconverged", "count", "lower"),
    ("ordering.dominance_s", "s", "lower"),
    ("ordering.pairs", "count", "lower"),
    ("diagnostics.corank_s", "s", "lower"),
    ("diagnostics.svds", "count", "lower"),
    ("perturb.trial_s", "s", "lower"),
    ("perturb.trial_p90_s", "s", "lower"),
    ("perturb.self_s", "s", "lower"),
    ("apps.location_s", "s", "lower"),
    ("apps.hull_lp_s", "s", "lower"),
    ("apps.hull_lps", "count", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
COUNTS = {name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")}

# Self times of these spans partition the pass: together with the root's own
# time (trace.unattributed_s) they add up to trace.pass_s.
SELF_TIME_METRICS = {
    "problems.parse_s": "problems.parse",
    "problems.convexity_s": "problems.convexity",
    "atlas.grid_s": "atlas.grid",
    "atlas.adjacency_s": "atlas.adjacency",
    "solver.solve_s": "atlas.build",
    "atlas.summary_s": "atlas.summary",
    "ordering.dominance_s": "ordering.dominance",
    "atlas.injectivity_s": "atlas.injectivity",
    "atlas.face_s": "atlas.face",
    "diagnostics.corank_s": "diagnostics.corank",
    "atlas.export_csv_s": "atlas.export_csv",
    "atlas.export_json_s": "atlas.export_json",
    "perturb.self_s": "perturb.trial",
    "apps.hull_lp_s": "apps.location",
    "trace.unattributed_s": "run",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the run's span list, -1 for the root
    run: int


class Tracer:
    """Spans and counts of one pass, kept in memory."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []  # patch targets instrument() did not find
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        record = Span(name, time.perf_counter(), float("nan"), parent, self.run)
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording a span; ``before(*args)``/``after(result, *args)`` return counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, value in (before(*args) if before else {}).items():
                self.count(key, value)
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, value in (after(result, *args, **kwargs) if after else {}).items():
                self.count(key, value)
            return result

        return traced


class NullTracer:
    """Stands in for a Tracer in the untraced pass: no spans, no patches."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    A pass runs on one thread, so sibling spans never overlap and the
    covered part is the sum of the children's durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# ---------------------------------------------------------------------------
# Instrumentation: wrappers around the calls into each layer
# ---------------------------------------------------------------------------


def _atlas_counts(atlas, *args) -> dict:
    return {
        "atlas.nodes": atlas.grid.node_count,
        "solver.newton_iters": sum(pt.iterations for pt in atlas.points),
        "solver.unconverged": len(atlas.failures),
    }


def _pairwise_bytes(matrices: int):
    return lambda atlas, *rest: {"atlas.pairwise_bytes": matrices * 8 * atlas.grid.node_count ** 2}


def _file_bytes(result, atlas, path, *rest) -> dict:
    return {"atlas.export_bytes": Path(path).stat().st_size}


def _patch(stack: contextlib.ExitStack, owner, attr: str, make, missing: list[str]) -> None:
    """Replace ``owner.attr`` by ``make(original)`` until the stack closes.

    A target that does not exist is appended to ``missing`` and left alone:
    the pass still runs, and the caller reports that the layer reads 0
    because it was not found, not because it got faster.
    """
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    if isinstance(original, cached_property):
        replacement = cached_property(make(original.func))
        replacement.__set_name__(owner, attr)
    else:
        replacement = make(original)
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer boundaries of ``pareto_atlas`` for one traced pass.

    Names the CLI imports are patched in ``pareto_atlas.cli`` too, so a pass
    through ``cli.main`` records the same spans as a direct call.  Targets
    that are not found are listed in ``tracer.missing``.
    """
    pa = {name: importlib.import_module(f"pareto_atlas.{name}")
          for name in ("cli", "problems", "atlas", "apps", "diagnostics", "perturb")}
    import scipy.optimize

    def count_inside(span, key, weight=lambda *a, **k: 1):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.inside(span):
                    tracer.count(key, weight(*args, **kwargs))
                return fn(*args, **kwargs)
            return counted
        return make

    def svd_matrices(a, *args, **kwargs):
        return int(np.prod(np.shape(a)[:-2], dtype=int))

    wrap = tracer.wrap
    with contextlib.ExitStack() as stack:
        def patch(modules, attr, make):
            for module in modules:
                _patch(stack, pa[module] if isinstance(module, str) else module, attr, make,
                       tracer.missing)

        for attr in ("parse_problem", "build_problem", "builtin_problem", "serialize_problem"):
            patch(("problems", "cli"), attr, lambda f: wrap(f, "problems.parse"))
        patch(("problems", "cli"), "check_strong_convexity",
              lambda f: wrap(f, "problems.convexity"))
        patch(("atlas", "apps", "perturb", "cli"), "build_atlas",
              lambda f: wrap(f, "atlas.build", after=_atlas_counts))
        patch(("diagnostics", "apps", "perturb", "cli"), "certify_corank_on_atlas",
              lambda f: wrap(f, "diagnostics.corank"))
        patch(("atlas", "apps", "cli"), "injectivity_scan", lambda f: wrap(
            f, "atlas.injectivity", before=_pairwise_bytes(2),
            after=lambda rep, *_: {"atlas.collapsed_pairs": len(rep.collapsed_pairs)}))
        patch(("atlas", "cli"), "face_consistency", lambda f: wrap(
            f, "atlas.face", after=lambda rep, *_: {"atlas.face_checked": rep.checked}))
        patch(("apps", "cli"), "location_pareto_set", lambda f: wrap(f, "apps.location"))
        grid, atlas_class = pa["atlas"].SimplexGrid, pa["atlas"].ParetoAtlas
        patch((grid,), "__init__", lambda f: wrap(f, "atlas.grid"))
        patch((grid,), "bfs_order", lambda f: wrap(f, "atlas.grid"))
        patch((grid,), "adjacency", lambda f: wrap(f, "atlas.adjacency"))
        patch((atlas_class,), "summary",
              lambda f: wrap(f, "atlas.summary", before=_pairwise_bytes(1)))
        patch((atlas_class,), "to_csv", lambda f: wrap(f, "atlas.export_csv", after=_file_bytes))
        patch((atlas_class,), "to_json", lambda f: wrap(f, "atlas.export_json", after=_file_bytes))
        patch(("atlas",), "dominating_pairs", lambda f: wrap(
            f, "ordering.dominance",
            before=lambda values, *rest: {"ordering.pairs": len(values) * (len(values) - 1)}))
        patch((np.linalg,), "svd",
              count_inside("diagnostics.corank", "diagnostics.svds", svd_matrices))
        patch((scipy.optimize, "apps"), "linprog", count_inside("apps.location", "apps.hull_lps"))
        yield


# ---------------------------------------------------------------------------
# Passes: what one subcommand does, in process
# ---------------------------------------------------------------------------


def _cli_pass(tracer, workload, workdir):
    """``pareto-atlas <workload.args>`` through ``cli.main``, started in ``workdir``."""
    from pareto_atlas import cli

    stdout = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(stdout):
        try:
            status = cli.main(list(workload.args))
        except SystemExit as exc:  # argparse errors
            status = exc.code if isinstance(exc.code, int) else 2
    return status, stdout.getvalue()


def _sweep_pass(tracer, workload, workdir):
    """``perturb`` one trial at a time, so that every trial gets its own span.

    Trial t of the CLI run is ``genericity_experiment(trials=1, seed=seed+t)``:
    it draws the same perturbation.
    """
    from pareto_atlas import perturb, problems, solver

    problem = problems.builtin_problem("example31")
    problems.serialize_problem(problem)
    results = []
    for t in range(W.SWEEP_TRIALS):
        with tracer.span("perturb.trial"):
            rep = perturb.genericity_experiment(
                problem, trials=1, scale=W.SWEEP_SCALE, resolution=W.SWEEP_R,
                rank_tols=W.RANK_TOLS, seed=workload.seed + t, config=solver.SolverConfig())
        results += rep.as_dict()["results"]
    failed = any(row["max_corank"][str(tol)] >= 2 for row in results for tol in W.RANK_TOLS)
    return int(failed), json.dumps({"genericity": {"results": results}})


PASSES = {"verify-large": _cli_pass, "genericity-sweep": _sweep_pass,
          "locate-export": _cli_pass}


def run_pass(workload, workdir: Path, tracer=None):
    """One in-process pass; returns (seconds, problems found by the oracle)."""
    traced = tracer is not None
    tracer = tracer or NullTracer()
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(instrument(tracer))
        start = time.perf_counter()
        with tracer.span("run"):
            status, stdout = PASSES[workload.name](tracer, workload, workdir)
        seconds = time.perf_counter() - start
    return seconds, workload.check(status, stdout, workdir)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, float]:
    """Every PER_LAYER metric except the cli.* import times, from one traced pass."""
    own = self_times(tracer.spans)
    inclusive, exclusive = defaultdict(float), defaultdict(float)
    trials = []
    for span, mine in zip(tracer.spans, own):
        inclusive[span.name] += span.end - span.start
        exclusive[span.name] += mine
        if span.name == "perturb.trial":
            trials.append(span.end - span.start)
    out = {metric: exclusive[name] for metric, name in SELF_TIME_METRICS.items()}
    out.update({name: tracer.counts[name] for name in COUNTS})
    nodes = max(out["atlas.nodes"], 1)
    p90 = statistics.quantiles(trials, n=10)[-1] if len(trials) > 1 else sum(trials)
    out.update({
        "atlas.build_s": inclusive["atlas.build"],
        "solver.us_per_node": 1e6 * out["solver.solve_s"] / nodes,
        "perturb.trial_s": statistics.median(trials) if trials else 0.0,
        "perturb.trial_p90_s": p90,
        "apps.location_s": inclusive["apps.location"],
        "trace.pass_s": inclusive["run"],
        "trace.overhead_s": inclusive["run"] - untraced_s,
    })
    return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_metrics(env: dict, cwd: Path, timeout: float) -> dict[str, float]:
    """cli.import_s (wall clock) and cli.import_scipy_optimize_s (-X importtime).

    The scipy.optimize figure is cumulative and 0 when importing the CLI
    does not import scipy.optimize.
    """
    code = ("import time; t = time.perf_counter(); import pareto_atlas.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            cumulative[match.group(3).strip()] = int(match.group(2)) * 1e-6
    return {"cli.import_s": float(proc.stdout.split()[-1]),
            "cli.import_scipy_optimize_s": cumulative.get("scipy.optimize", 0.0)}


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [asdict(s) for tracer in tracers for s in tracer.spans]
    path.write_text(json.dumps({"spans": spans}))
