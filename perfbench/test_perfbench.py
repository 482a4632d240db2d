"""Checks of the benchmark's own oracles, tracing and metric names."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import tracing
import workloads as W
from pareto_atlas import (
    GenericQuadratic,
    LocationInstance,
    SimplexGrid,
    build_atlas,
    build_problem,
    builtin_problem,
    location_pareto_set,
)
from pareto_atlas import atlas as pa_atlas
from pareto_atlas import cli
from pareto_atlas.perturb import genericity_experiment

ROOT = Path(__file__).resolve().parent.parent


def _quadratic(seed=5, m=3, n=4):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n, n))
    qs = a @ a.transpose(0, 2, 1) + np.eye(n)
    return qs, rng.standard_normal((m, n))


def test_grid_helpers_agree_with_the_package():
    nodes = W.grid_nodes(3, 6)
    grid = SimplexGrid(3, 6)
    assert sorted(map(tuple, nodes.tolist())) == sorted(map(tuple, grid.nodes.tolist()))
    left, right = W.adjacent_pairs(nodes, 6)
    ours = {tuple(sorted(map(tuple, (nodes[i].tolist(), nodes[j].tolist()))))
            for i, j in zip(left, right)}
    theirs = {tuple(sorted(map(tuple, (grid.nodes[i].tolist(), grid.nodes[j].tolist()))))
              for i, j in grid.adjacency}
    assert ours == theirs


@pytest.fixture
def verify_case():
    qs, bs = _quadratic()
    atlas = build_atlas(build_problem(GenericQuadratic(qs, bs, np.zeros(3))), 8)
    stdout = json.dumps({"summary": atlas.summary.as_dict()})
    return stdout, W.verify_expectation(qs, bs, 8)


def test_verify_oracle_accepts_the_package_output(verify_case):
    stdout, want = verify_case
    assert W.check_verify(0, stdout, want) == []


@pytest.mark.parametrize("corrupt", [
    lambda s: s.update(min_pairwise_x_distance=s["min_pairwise_x_distance"] * (1 + 1e-4)),
    lambda s: s.update(max_adjacent_x_distance=s["max_adjacent_x_distance"] + 1e-6),
    lambda s: s.update(node_count=s["node_count"] - 1),
    lambda s: s.update(unconverged=1),
    lambda s: s.update(dominance_violations=2),
    lambda s: s.update(min_pairwise_x_distance=float("nan")),
])
def test_verify_oracle_rejects_corrupted_summaries(verify_case, corrupt):
    stdout, want = verify_case
    doc = json.loads(stdout)
    corrupt(doc["summary"])
    assert W.check_verify(0, json.dumps(doc), want)


def test_verify_oracle_rejects_exit_code_and_garbage(verify_case):
    stdout, want = verify_case
    assert W.check_verify(1, stdout, want)
    assert W.check_verify(0, "not json", want)
    assert W.check_verify(0, "{}", want)


@pytest.fixture(scope="module")
def sweep_doc():
    rep = genericity_experiment(builtin_problem("example31"), trials=3, scale=0.1,
                                resolution=4, rank_tols=W.RANK_TOLS, seed=11)
    return {"genericity": rep.as_dict()}


def test_genericity_oracle_accepts_the_package_output(sweep_doc):
    assert W.check_genericity(0, json.dumps(sweep_doc), 11, 3) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows.pop(),
    lambda rows: rows[1].update(seed=99),
    lambda rows: rows[0]["max_corank"].update({"1e-08": 2}),
    lambda rows: rows[2].update(max_kkt_residual=float("inf")),
    lambda rows: rows[2].update(max_kkt_residual=1e-6),
])
def test_genericity_oracle_rejects_corrupted_trials(sweep_doc, corrupt):
    doc = json.loads(json.dumps(sweep_doc))
    corrupt(doc["genericity"]["results"])
    assert W.check_genericity(0, json.dumps(doc), 11, 3)
    assert W.check_genericity(1, json.dumps(sweep_doc), 11, 3)


@pytest.fixture
def locate_case(tmp_path):
    points = np.random.default_rng(2).standard_normal((3, 5))
    rep = location_pareto_set(LocationInstance(points), 4)
    prefix = tmp_path / "atlas"
    rep.atlas.to_csv(f"{prefix}.csv")
    rep.atlas.to_json(f"{prefix}.json")
    return prefix, points


def _rewrite_csv(prefix, edit):
    path = Path(f"{prefix}.csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_locate_oracle_accepts_the_package_output(locate_case):
    prefix, points = locate_case
    assert W.check_locate(0, prefix, points, 4) == []


def test_locate_oracle_rejects_an_x_off_by_1e_6(locate_case):
    prefix, points = locate_case

    def nudge(lines):
        cells = lines[5].split(",")
        cells[points.shape[0]] = repr(float(cells[points.shape[0]]) + 1e-6)
        lines[5] = ",".join(cells)
        return lines

    _rewrite_csv(prefix, nudge)
    assert W.check_locate(0, prefix, points, 4)


def test_locate_oracle_rejects_a_missing_row_and_exit_code(locate_case):
    prefix, points = locate_case
    assert W.check_locate(3, prefix, points, 4)
    _rewrite_csv(prefix, lambda lines: lines[:-1])
    assert W.check_locate(0, prefix, points, 4)


def test_locate_oracle_rejects_a_duplicated_row_and_missing_files(locate_case, tmp_path):
    prefix, points = locate_case
    assert W.check_locate(0, tmp_path / "nothing", points, 4)
    _rewrite_csv(prefix, lambda lines: lines[:-1] + [lines[-2]])
    assert W.check_locate(0, prefix, points, 4)


def test_workloads_generate_the_same_inputs_from_the_same_seed(tmp_path):
    for name in W.WORKLOADS:
        a = W.make_workload(name, 4, tmp_path)
        text = Path(a.inputs["problem"]).read_text() if "problem" in a.inputs else None
        b = W.make_workload(name, 4, tmp_path)
        assert a.args == b.args and a.nodes == b.nodes
        if text is not None:
            assert Path(b.inputs["problem"]).read_text() == text
    assert [W.make_workload(n, 0, tmp_path).nodes for n in W.WORKLOADS] == [5151, 13860, 1771]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    samples = {name: [1.0, 2.0, 3.0] for name, *_ in bench.END_TO_END}
    result = bench.summarize(samples, bench.END_TO_END)
    assert {k: v["unit"] for k, v in result.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def _traced_locate():
    tracer = tracing.Tracer(run=0)
    with tracing.instrument(tracer), tracer.span("run"):
        rep = location_pareto_set(LocationInstance(np.eye(3)), 3)
        rep.atlas.summary
    return tracer, rep


def test_layer_metrics_cover_per_layer_and_self_times_add_up():
    tracer, rep = _traced_locate()
    metrics = tracing.layer_metrics(tracer, untraced_s=0.0)
    metrics.update({"cli.import_s": 0.5, "cli.import_scipy_optimize_s": 0.4})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    parts = sum(metrics[name] for name in tracing.SELF_TIME_METRICS)
    assert math.isclose(parts, metrics["trace.pass_s"], rel_tol=1e-9)
    # The counts the wrappers record are exact.
    assert metrics["atlas.nodes"] == rep.atlas.grid.node_count == 10
    assert metrics["solver.newton_iters"] == sum(pt.iterations for pt in rep.atlas.points)
    assert metrics["diagnostics.svds"] == 10
    assert metrics["ordering.pairs"] == 10 * 9
    assert metrics["atlas.pairwise_bytes"] == 3 * 8 * 10 * 10
    summary = bench.summarize({k: [v] for k, v in metrics.items()}, tracing.PER_LAYER)
    assert all(isinstance(summary[k]["value"], int) for k in tracing.COUNTS)


def _originals():
    return (pa_atlas.build_atlas, cli.build_atlas, cli.parse_problem, cli.location_pareto_set,
            SimplexGrid.__dict__["adjacency"], pa_atlas.ParetoAtlas.__dict__["summary"],
            pa_atlas.ParetoAtlas.to_csv, np.linalg.svd)


def test_instrumentation_is_removed_after_the_pass():
    originals = _originals()
    tracer, _ = _traced_locate()
    assert {s.name for s in tracer.spans} >= {"atlas.build", "atlas.grid", "atlas.summary",
                                              "diagnostics.corank", "atlas.injectivity"}
    assert tracer.missing == []
    assert originals == _originals()


def test_a_missing_trace_target_is_reported(monkeypatch):
    monkeypatch.delattr(pa_atlas, "dominating_pairs")
    tracer = tracing.Tracer(run=0)
    with tracing.instrument(tracer):
        pass
    assert tracer.missing == ["pareto_atlas.atlas.dominating_pairs"]


def test_verify_pass_runs_the_cli_and_records_every_layer(tmp_path):
    qs, bs = _quadratic(m=3, n=4)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"family": "generic_quadratic", "q": qs.tolist(),
                                "b": bs.tolist(), "c": [0.0, 0.0, 0.0]}))
    want = W.verify_expectation(qs, bs, 6)
    w = W.Workload("verify-large", 0, want.node_count, ["verify", str(path), "-r", "6", "--json"],
                   lambda rc, out, workdir: W.check_verify(rc, out, want))
    tracer = tracing.Tracer(run=0)
    _, problems = tracing.run_pass(w, tmp_path, tracer)
    assert problems == [] and tracer.missing == []
    assert {s.name for s in tracer.spans} >= {
        "problems.parse", "problems.convexity", "atlas.build", "atlas.summary",
        "ordering.dominance", "diagnostics.corank", "atlas.face", "atlas.injectivity"}
    assert tracer.counts["atlas.nodes"] == 28
    # The untraced pass runs the same CLI and the same oracle.
    assert tracing.run_pass(w, tmp_path)[1] == []


def test_locate_pass_exports_through_the_cli(tmp_path):
    points = np.random.default_rng(3).standard_normal((3, 4))
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"family": "distance_squared", "points": points.tolist()}))
    w = W.Workload("locate-export", 0, 15,
                   ["locate", str(path), "--json", "--out", "atlas", "-r", "4"],
                   lambda rc, out, workdir: W.check_locate(rc, workdir / "atlas", points, 4))
    workdir = tmp_path / "run"
    workdir.mkdir()
    tracer = tracing.Tracer(run=0)
    _, problems = tracing.run_pass(w, workdir, tracer)
    assert problems == []
    names = {s.name for s in tracer.spans}
    assert names >= {"apps.location", "atlas.export_csv", "atlas.export_json"}
    assert tracer.counts["atlas.export_bytes"] == sum(
        (workdir / f"atlas.{ext}").stat().st_size for ext in ("csv", "json"))
    assert tracer.counts["apps.hull_lps"] == 15
    # A wrong exit code from the CLI is a failed operation.
    bad = W.Workload("locate-export", 0, 15, ["locate", str(path), "-r", "-1"], w.check)
    assert tracing.run_pass(bad, workdir)[1]


def test_self_times_subtract_children():
    spans = [tracing.Span("run", 0.0, 10.0, -1, 0), tracing.Span("a", 1.0, 4.0, 0, 0),
             tracing.Span("b", 2.0, 3.0, 1, 0), tracing.Span("c", 5.0, 9.0, 0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_run_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_children_run_with_one_blas_thread():
    env = bench.child_env()
    assert all(env[key] == "1" for key in bench.SINGLE_THREAD_ENV)
    assert "PARETO_ATLAS_WORKERS" not in env
    assert env["PYTHONPATH"] == str(bench.SRC)
