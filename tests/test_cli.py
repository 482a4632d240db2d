"""Exit codes and output formats of the command line interface."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pareto_atlas
from conftest import child_env, fixture_problems
from pareto_atlas import DistanceSquared, RidgePair, build_problem, serialize_problem
from pareto_atlas import cli
from pareto_atlas.cli import main
from pareto_atlas.problems import ConvexityCertificate


def run_json(capsys, argv):
    """Invoke main and parse the --json document from stdout."""
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


class TestSolve:
    def test_single_weight(self, capsys):
        code, doc = run_json(
            capsys,
            ["solve", "--builtin", "example31", "-w", "0.2,0.3,0.5", "--json"],
        )
        assert code == 0
        assert doc["schema"] == "pareto-atlas/run-v1"
        assert doc["exit_status"] == 0
        [pt] = doc["points"]
        # closed form for this family: (-d/2, -d/(2(1+w3)), 0), d = w2 - w3
        assert pt["x"] == pytest.approx([0.1, 0.1 / 1.5, 0.0], abs=1e-12)
        assert pt["kkt_residual"] <= 1e-10

    def test_repeats_accumulate(self, capsys):
        code, doc = run_json(
            capsys,
            ["solve", "--builtin", "example32", "--json",
             "-w", "1,0,0", "-w", "0.5,0.25,0.25"],
        )
        assert code == 0
        assert len(doc["points"]) == 2

    def test_budget_exhaustion_exits_3(self, capsys):
        code = main(
            ["solve", "--builtin", "example31", "-w", "0.5,0.3,0.2", "--max-iter", "0"]
        )
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    def test_malformed_weight_exits_2(self, capsys):
        assert main(["solve", "--builtin", "example31", "-w", "0.5,oops,0.2"]) == 2
        assert main(["solve", "--builtin", "example31", "-w", "0.5,0.5"]) == 2

    def test_non_finite_weight_exits_2(self, capsys):
        assert main(["solve", "--builtin", "example31", "-w", "nan,0.5,0.5"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_weight_sum_error_prints_a_plain_float(self, capsys):
        assert main(["solve", "--builtin", "example32", "-w", "0.5,0.4,0"]) == 2
        assert capsys.readouterr() == ("", "error: weight coordinates must sum to 1, got 0.9\n")


class TestProblemLoading:
    def test_file_and_builtin_together_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "problem.json", "--builtin", "example31", "-w", "1,0,0"])
        assert err.value.code == 2

    def test_no_source_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "-w", "1,0,0"])
        assert err.value.code == 2

    def test_unknown_builtin_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--builtin", "nope", "-w", "1,0,0"])
        assert err.value.code == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["solve", str(missing), "-w", "1,0,0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "{dir}"],
        ["ridge", "{dir}", "--mu", "1"],
        ["verify", "--builtin", "example32", "-r", "3", "--out-report", "{dir}"],
    ], ids=["problem-file", "ridge-data", "out-report"])
    def test_a_directory_for_a_file_exits_2(self, argv, tmp_path, capsys):
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # exit 2 prints no report
        assert err.startswith("error: ") and "Is a directory" in err
        assert err.count("\n") == 1

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad), "-w", "1,0,0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["[[0, NaN], [1, 0]]", "[[0, Infinity], [1, 0]]",
                                        "[[0, 1e400], [1, 0]]"])
    def test_non_finite_problem_file_exits_2(self, tmp_path, capsys, points):
        path = tmp_path / "bad.json"
        path.write_text('{"family": "distance_squared", "points": %s}' % points)
        assert main(["verify", str(path), "-r", "4"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--builtin", "example31_perturbed", "--epsilon", value])
        assert err.value.code == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_problem_file_round_trip(self, tmp_path, capsys, quadratic):
        path = tmp_path / "quad.json"
        path.write_text(serialize_problem(quadratic))
        code, doc = run_json(capsys, ["solve", str(path), "-w", "1,0,0", "--json"])
        assert code == 0
        assert doc["input"]["problem"] == str(path)
        assert len(doc["input"]["sha256"]) == 64


class TestVerify:
    def test_degenerate_family_fails_certificates(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "--builtin", "example31", "-r", "8", "--json"]
        )
        assert code == 1
        assert doc["exit_status"] == 1
        assert not doc["certificates"]["corank"]["ok"]
        assert not doc["certificates"]["injectivity"]["ok"]
        assert doc["certificates"]["non-domination"]["ok"]
        assert len(doc["corank_witnesses"]) > 0

    def test_face_detail_names_the_rank_deficient_boundary_nodes(self, capsys):
        assert main(["verify", "--builtin", "example31", "-r", "20"]) == 1
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "face-consistency" in line)
        assert line.startswith("[ok] face-consistency: discrepancy ")
        assert " over 58 boundary nodes (tol " in line
        assert line.endswith(", 2 below rank 2 not judged: nodes 10, 230")

    def test_no_face_to_judge_beyond_n_plus_one_objectives(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"family": "distance_squared",
                                    "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
        assert main(["verify", str(path), "-r", "5"]) == 1  # x* of 4 objectives on R^2 collapses
        assert ("[n/a] face-consistency: no boundary node of rank 3, 52 below rank 3 "
                "not judged: nodes 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...\n") in capsys.readouterr().out

    @pytest.mark.parametrize("points", [
        [[0, 0], [1, 0], [0, 1], [1, 1]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        [[0, 0], [1, 0], [2, 0]],
    ], ids=["square", "five-points-in-r3", "collinear"])
    def test_nodes_below_rank_m_minus_1_fail_corank(self, points, tmp_path, capsys):
        """The hypothesis is rank m - 1 at every node.  For n < m - 1 no node
        can meet it, and three collinear points reach only rank m - 2, though
        the corank against min(n, m) is at most 1 in all three."""
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"family": "distance_squared", "points": points}))
        assert main(["verify", str(path), "-r", "3"]) == 1
        assert "\n[FAIL] corank: max corank " in capsys.readouterr().out
        code, doc = run_json(capsys, ["verify", str(path), "-r", "3", "--json"])
        nodes, corank = doc["summary"]["node_count"], doc["certificates"]["corank"]
        assert code == 1 and corank["ok"] is False
        assert corank["detail"].endswith(f", {nodes} below rank {len(points) - 1}")
        assert doc["corank_witnesses"] == list(range(nodes))

    def test_perturbed_family_passes(self, capsys):
        code, doc = run_json(
            capsys,
            ["verify", "--builtin", "example31_perturbed", "-r", "8", "--json"],
        )
        assert code == 0
        assert all(c["ok"] for c in doc["certificates"].values())

    def test_epsilon_flag_reaches_the_problem(self, capsys):
        code, _ = run_json(
            capsys,
            ["verify", "--builtin", "example31_perturbed", "--epsilon", "1.0",
             "-r", "8", "--json"],
        )
        assert code == 0

    def test_fold_family_passes(self, capsys):
        assert main(["verify", "--builtin", "example32", "-r", "8"]) == 0
        out = capsys.readouterr().out
        assert "[ok] corank" in out
        assert "all certificates pass" in out

    def test_out_report_written(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--builtin", "example32", "-r", "6",
             "--out-report", str(report)]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["command"] == "verify"
        assert doc["exit_status"] == 0


    def test_empty_samples_are_not_applicable(self, tmp_path, capsys):
        """One objective: one node, no boundary nodes and no pairs."""
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"family": "generic_quadratic",
                                    "q": [[[2, 0], [0, 3]]], "b": [[1, -1]], "c": [0]}))
        code, doc = run_json(capsys, ["verify", str(path), "-r", "4", "--json"])
        assert code == doc["exit_status"] == 0
        verdicts = {name: c["ok"] for name, c in doc["certificates"].items()}
        assert verdicts == {"corank": True, "face-consistency": None,
                            "injectivity": None, "non-domination": None}
        assert doc["summary"]["min_pairwise_x_distance"] is None  # JSON has no Infinity
        assert main(["verify", str(path), "-r", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("face-consistency", "injectivity", "non-domination"):
            assert f"[n/a] {name}: " in out
        assert "[ok] face-consistency" not in out


GOLDEN = Path(__file__).parent / "golden"
FACE = "] face-consistency: "


@pytest.mark.parametrize("name, status", [("example31", 1), ("example31_perturbed", 0),
                                          ("example32", 0), ("remark_g", 1)])
def test_verify_text_matches_the_recorded_output(name, status, capsys):
    """``verify --builtin NAME -r 20`` prints the recorded lines, one for one,
    and exits as recorded; the face-consistency line is held to its verdict."""
    want = (GOLDEN / f"verify-{name}-r20.txt").read_text().splitlines()
    assert main(["verify", "--builtin", name, "-r", "20"]) == status
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(want)
    for line, recorded in zip(got, want):
        if FACE in recorded:
            assert FACE in line and line.split(FACE)[0] == recorded.split(FACE)[0]
        else:
            assert line == recorded


def test_remark_g_boundary_is_face_consistent_at_r30(capsys):
    """From r = 30 on, rounding in the SVD's null vector put remark_g's face
    line at [FAIL]; the stored points are critical for their faces."""
    assert main(["verify", "--builtin", "remark_g", "-r", "30"]) == 1  # corank 2
    out = capsys.readouterr().out
    assert "[ok] face-consistency: " in out and "[FAIL] corank: " in out


@pytest.mark.parametrize("argv, flag", [
    # with both, example31's corank-2 pinch and its collapsed pairs would pass
    (["verify", "--builtin", "example31", "-r", "10", "--rank-tol", "-1",
      "--collapse-tol", "-1"], "--rank-tol"),
    (["verify", "--builtin", "example31", "-r", "10", "--rank-tol", "1"], "--rank-tol"),
    (["verify", "--builtin", "example31", "-r", "10", "--collapse-tol", "-1"], "--collapse-tol"),
    (["perturb", "--builtin", "example31", "--trials", "1", "--scale", "0", "-r", "8",
      "--rank-tols", "-1"], "--rank-tols"),
    (["perturb", "--builtin", "example31", "--trials", "1", "--scale", "0", "-r", "8",
      "--rank-tols", "1e-8", "--rank-tols", "1.5"], "--rank-tols"),
])
def test_vacuous_tolerances_rejected(argv, flag, capsys):
    """A rank tolerance outside [0, 1) or a negative collapse tolerance would
    make its certificate pass on any input."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["locate", "points.json", "-r", "4", "--bary-tol", "-1"], "--bary-tol"),
    (["locate", "points.json", "-r", "4", "--hull-tol", "-1"], "--hull-tol"),
    (["ridge", "data.csv", "--mu", "0.1", "--oracle-tol", "-1"], "--oracle-tol"),
    (["perturb", "--builtin", "remark_g", "--track", "--scale", "-1"], "--scale"),
    (["perturb", "--builtin", "example31", "--trials", "1", "-r", "4", "--scale", "-0.1"],
     "--scale"),
    (["perturb", "--builtin", "example32", "--stability", "--scales", "0.1,-0.1"], "--scales"),
    (["verify", "--builtin", "example32", "-r", "5", "--spot-check", "-3"], "--spot-check"),
    (["atlas", "--builtin", "example32", "-r", "5", "--spot-check", "-1"], "--spot-check"),
    (["verify", "--builtin", "example32", "-r", "5", "--seed", "-1"], "--seed"),
    (["perturb", "--builtin", "remark_g", "--track", "--seed", "-1"], "--seed"),
    (["verify", "square.json", "--epsilon", "5"], "--epsilon"),
    (["verify", "--builtin", "example32", "--epsilon", "7"], "--epsilon"),
    (["perturb", "--builtin", "remark_g", "--track", "--rank-tols", "0.5", "--json"],
     "--rank-tols"),
    (["perturb", "--builtin", "remark_g", "--track", "--trials", "2"], "--trials"),
    (["perturb", "--builtin", "remark_g", "--track", "-r", "5"], "--resolution"),
    (["perturb", "--builtin", "example31", "--trials", "2", "-r", "4", "--scales", "0.5,0.2"],
     "--scales"),
    (["perturb", "--builtin", "example32", "--stability", "--trials", "3", "-r", "4",
      "--rank-tols", "0.3"], "--trials"),
    (["perturb", "--builtin", "example32", "--stability", "-r", "4", "--rank-tols", "0.3"],
     "--rank-tols"),
    (["perturb", "--builtin", "example32", "--stability", "--scale", "0.2"], "--scale"),
])
def test_negative_tolerances_and_scales_rejected(argv, flag, capsys):
    """A negative error tolerance fails every input, and a negative scale names
    no perturbation (``--track`` would run the unperturbed problem).  A
    negative sample count would skip the spot check, and numpy refuses a
    negative seed without naming the flag.  ``--epsilon`` sets only
    example31_perturbed's epsilon; any other problem would ignore it, and a
    perturb mode would ignore an option that only another mode reads."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--grad-tol", "1e3"), ("--grad-tol", "1"), ("--grad-tol", "0"), ("--grad-tol", "-0.5"),
    ("--max-iter", "-1"),
])
def test_solver_settings_checked_at_parse_time(flag, value, capsys):
    """At --grad-tol >= 1 every solve stops at its start; a negative budget
    would be reported as a negative iteration count."""
    with pytest.raises(SystemExit) as err:
        main(["solve", "--builtin", "example32", "-w", "0.2,0.3,0.5", f"{flag}={value}"])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


class TestAtlas:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        prefix = tmp_path / "atl"
        code = main(
            ["atlas", "--builtin", "example32", "-r", "5", "--out", str(prefix)]
        )
        capsys.readouterr()
        assert code == 0
        csv_text = (tmp_path / "atl.csv").read_text().splitlines()
        assert csv_text[0] == "w_1,w_2,w_3,x_1,x_2,x_3,f_1,f_2,f_3,kkt_residual,corank,face"
        assert len(csv_text) == 1 + 21  # header + C(7, 2) nodes
        doc = json.loads((tmp_path / "atl.json").read_text())
        assert doc["schema"] == "pareto-atlas/atlas-v1"
        assert len(doc["nodes"]) == 21

    def test_non_convex_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "saddle.json"
        spec = {
            "family": "generic_quadratic",
            "q": [[[1.0, 0.0], [0.0, -1.0]]],
            "b": [[0.0, 0.0]],
            "c": [0.0],
        }
        path.write_text(json.dumps(spec))
        # validation already rejects an indefinite quadratic on load
        assert main(["atlas", str(path), "-r", "3"]) == 2
        assert "positive definite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["atlas", "verify"])
def test_failed_spot_check_exits_2(command, monkeypatch, tmp_path, capsys):
    """Every parsed family already checks positive definiteness, so the sampled
    certificate is forced to fail here."""
    failing = ConvexityCertificate(beta_min=-1.0, ok=False, witness_point=np.zeros(3),
                                   witness_objective=0, count=10)
    monkeypatch.setattr(cli, "check_strong_convexity", lambda *args, **kwargs: failing)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--builtin", "example32", "-r", "3", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "FAILED (non-convex sample)" in err
    assert err.endswith("error: sampled Hessian not positive definite\n")
    assert list(tmp_path.iterdir()) == []


class TestPerturb:
    def test_genericity_passes(self, capsys):
        code, doc = run_json(
            capsys,
            ["perturb", "--builtin", "example31", "--trials", "2", "-r", "5",
             "--scale", "0.1", "--json"],
        )
        assert code == 0
        assert doc["mode"] == "genericity"
        assert doc["genericity"]["results"][0]["seed"] == 0
        assert set(doc["options"]) == {"trials", "scale", "resolution", "seed", "rank_tols"}

    def test_unconverged_nodes_exit_3(self, capsys):
        """Coranks at iterates that are not minimizers certify nothing."""
        code = main(["perturb", "--builtin", "example31", "--trials", "2", "-r", "5",
                     "--max-iter", "0"])
        out, err = capsys.readouterr()
        assert code == 3
        assert "error: 42 nodes failed to converge" in err
        assert "[ok]" not in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_empty_sweep_exits_2(self, capsys, trials):
        assert main(["perturb", "--builtin", "example31", "--trials", trials, "-r", "5"]) == 2
        assert "trials" in capsys.readouterr().err

    def test_rank_tol_sweep(self, capsys):
        code, doc = run_json(
            capsys,
            ["perturb", "--builtin", "example31", "--trials", "1", "-r", "5",
             "--rank-tols", "1e-7", "--rank-tols", "1e-9", "--json"],
        )
        assert code == 0
        assert doc["options"]["rank_tols"] == [1e-7, 1e-9]

    @pytest.mark.parametrize("argv, zero, negative_zero", [
        (["--trials", "2", "-r", "3"], ["--scale", "0"], ["--scale", "-0"]),
        (["--stability", "-r", "3"], ["--scales", "0.1,0"], ["--scales", "0.1,-0"]),
    ])
    def test_negative_zero_scale_runs_as_zero(self, argv, zero, negative_zero, capsys):
        """``-0`` is a zero scale: the run prints what ``0`` prints."""
        assert main(["perturb", "--builtin", "example32", *argv, *zero]) == 0
        expected = capsys.readouterr()
        assert main(["perturb", "--builtin", "example32", *argv, *negative_zero]) == 0
        assert capsys.readouterr() == expected

    def test_repeated_rank_tol_gives_one_verdict(self, capsys):
        code, doc = run_json(
            capsys,
            ["perturb", "--builtin", "example32", "--trials", "1", "-r", "2",
             "--rank-tols", "0.1", "--rank-tols", "0.1", "--json"],
        )
        assert doc["options"]["rank_tols"] == [0.1]
        assert main(["perturb", "--builtin", "example32", "--trials", "1", "-r", "2",
                     "--rank-tols", "0.1", "--rank-tols", "0.1"]) == code == 1
        assert capsys.readouterr().out.count("corank <= 1 at tol 0.1") == 1

    @pytest.mark.parametrize("points, scale", [
        ([[0, 0], [1, 0], [0, 1], [1, 1]], "0.1"),
        ([[0, 0], [1, 0], [2, 0]], "0"),
    ], ids=["square", "collinear"])
    def test_trials_below_rank_m_minus_1_fail(self, points, scale, tmp_path, capsys):
        """As in ``verify``, the hypothesis is rank m - 1 at every node.  No
        perturbation lifts the square's corners (n = m - 2) to it; unperturbed,
        three collinear points reach only rank m - 2 (a perturbation moves them
        off the line).  The corank against min(n, m) is at most 1 in both."""
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"family": "distance_squared", "points": points}))
        argv = ["perturb", str(path), "--trials", "2", "-r", "3", "--scale", scale]
        assert main(argv) == 1
        assert ("\n[FAIL] corank <= 1 at tol 1e-08: 0 trial(s) with corank >= 2, "
                f"2 trial(s) below rank {len(points) - 1}\n") in capsys.readouterr().out
        code, doc = run_json(capsys, [*argv, "--json"])
        assert code == doc["exit_status"] == 1
        assert doc["genericity"]["corank2_trials"] == {"1e-08": []}

    def test_track_unperturbed(self, capsys):
        code, doc = run_json(
            capsys,
            ["perturb", "--builtin", "remark_g", "--track", "--scale", "0", "--json"],
        )
        assert code == 0
        assert doc["mode"] == "track"
        assert doc["tracker"]["corank"] == 2
        assert doc["tracker"]["meets_simplex_interior"] is True

    def test_track_perturbed(self, capsys):
        code = main(
            ["perturb", "--builtin", "remark_g", "--track", "--scale", "1e-3",
             "--seed", "3"]
        )
        assert code == 0
        assert "[ok] corank-2 persistence" in capsys.readouterr().out

    def test_track_honours_max_iter(self, capsys):
        assert main(["perturb", "--builtin", "remark_g", "--track", "--max-iter", "0"]) == 3
        assert "no root after 0 iterations" in capsys.readouterr().err

    def test_track_needs_square_mapping(self, capsys):
        assert main(["perturb", "--builtin", "example31", "--track"]) == 2
        assert "error" in capsys.readouterr().err

    def test_track_and_stability_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["perturb", "--builtin", "remark_g", "--track", "--stability"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_stability(self, capsys):
        code, doc = run_json(
            capsys,
            ["perturb", "--builtin", "example32", "--stability",
             "--scales", "0.1,0.01", "-r", "4", "--json"],
        )
        assert code == 0
        assert doc["mode"] == "stability"
        rows = doc["stability"]["rows"]
        assert rows[0]["sup_displacement"] > rows[1]["sup_displacement"]

    def test_one_stability_scale_has_no_pair_to_compare(self, capsys):
        """One scale gives no decrease to judge: the verdict is n/a, and the
        run still exits 0 with its one row."""
        argv = ["perturb", "--builtin", "example32", "--stability", "--scales", "0.1", "-r", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[n/a] stability: 1 scale, no pair to compare\n" in out
        assert "[ok]" not in out
        code, doc = run_json(capsys, argv + ["--json"])
        assert code == doc["exit_status"] == 0
        assert [row["scale"] for row in doc["stability"]["rows"]] == [0.1]


class TestRidge:
    @pytest.fixture()
    def data_csv(self, tmp_path, rng):
        x = rng.normal(size=(15, 3))
        theta = np.array([1.0, -2.0, 0.5])
        y = x @ theta + 0.05 * rng.normal(size=15)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([x, y]), delimiter=",")
        return path

    def test_path_and_csv(self, tmp_path, capsys, data_csv):
        out = tmp_path / "path.csv"
        code = main(
            ["ridge", str(data_csv), "--mu", "0.1", "-r", "20", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "w1,w2,lambda,theta_1,theta_2,theta_3,residual"
        assert len(lines) == 1 + 21

    def test_missing_data_exits_2(self, tmp_path, capsys):
        assert main(["ridge", str(tmp_path / "nope.csv"), "--mu", "0.1"]) == 2

    def test_nonpositive_mu_exits_2(self, capsys, data_csv):
        assert main(["ridge", str(data_csv), "--mu", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", ["0", "-2"])
    def test_resolution_below_one_exits_2(self, capsys, data_csv, resolution):
        # r = 0 would check the oracle at the w1 = 0 vertex alone, where theta = 0
        assert main(["ridge", str(data_csv), "--mu", "0.1", "-r", resolution]) == 2
        assert "resolution must be >= 1" in capsys.readouterr().err


class TestLocate:
    @pytest.fixture()
    def triangle_json(self, tmp_path):
        problem = build_problem(
            DistanceSquared(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        )
        path = tmp_path / "triangle.json"
        path.write_text(serialize_problem(problem))
        return path

    def test_triangle_passes(self, capsys, triangle_json):
        code, doc = run_json(capsys, ["locate", str(triangle_json), "-r", "6", "--json"])
        assert code == 0
        assert doc["report"]["general_position"] is True
        assert doc["report"]["max_hull_violation"] <= 1e-9

    def test_exports(self, tmp_path, capsys, triangle_json):
        prefix = tmp_path / "tri"
        code = main(["locate", str(triangle_json), "-r", "4", "--out", str(prefix)])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "tri.csv").exists()
        assert (tmp_path / "tri.json").exists()

    def test_single_point_has_no_pairs_to_compare(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        path.write_text(serialize_problem(build_problem(DistanceSquared(np.array([[1.0, 2.0]])))))
        code, doc = run_json(capsys, ["locate", str(path), "-r", "3", "--json"])
        assert code == doc["exit_status"] == 0
        assert main(["locate", str(path), "-r", "3"]) == 0
        assert "[n/a] injectivity: " in capsys.readouterr().out

    def test_unconverged_nodes_exit_3(self, tmp_path, capsys):
        """Certificates at iterates that are not minimizers certify nothing."""
        path = tmp_path / "four.json"
        points = np.random.default_rng(5).standard_normal((4, 3))
        path.write_text(serialize_problem(build_problem(DistanceSquared(points))))
        argv = ["locate", str(path), "-r", "4", "--max-iter", "0"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err == "error: 35 nodes failed to converge\n"
        assert out.startswith("problem: ") and "[ok]" not in out and "[FAIL]" not in out
        code, doc = run_json(capsys, argv + ["--json"])
        assert code == doc["exit_status"] == 3
        assert list(doc) == ["schema", "command", "input", "options", "summary", "exit_status"]
        assert doc["summary"]["unconverged"] == 35

    def test_unconverged_run_solves_no_hull_lp(self, tmp_path, capsys, monkeypatch):
        """With a node unconverged, ``location_pareto_set`` stops at the atlas:
        no hull LP, corank certificate or injectivity scan is run."""
        def refuse(*args, **kwargs):
            raise AssertionError("a check ran on an unconverged atlas")

        for name in ("_hull_violation", "certify_corank_on_atlas", "injectivity_scan"):
            monkeypatch.setattr(pareto_atlas.apps, name, refuse)
        path = tmp_path / "four.json"
        points = np.random.default_rng(5).standard_normal((4, 3))
        path.write_text(serialize_problem(build_problem(DistanceSquared(points))))
        assert main(["locate", str(path), "-r", "4", "--max-iter", "0"]) == 3
        assert capsys.readouterr().err == "error: 35 nodes failed to converge\n"

    def test_far_from_the_origin(self, tmp_path, capsys):
        """Demand points near 1e6: a cold start scales each node's tolerance
        with its gradient norm at the origin, which grows with |x*|."""
        points = 1e6 + np.random.default_rng(0).standard_normal((3, 4))
        path = tmp_path / "far.json"
        path.write_text(serialize_problem(build_problem(DistanceSquared(points))))
        assert main(["verify", str(path), "-r", "20"]) == 0
        assert main(["perturb", str(path), "--stability", "-r", "10"]) == 0
        capsys.readouterr()

    def test_wrong_family_exits_2(self, capsys):
        assert main(["locate", "--builtin", "example31"]) == 2
        assert "distance_squared" in capsys.readouterr().err


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, as JSON itself does."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _json_runs(problem, path: Path, out: Path):
    """Every --json invocation that applies to ``problem`` (stored at ``path``),
    each with the export files it writes."""
    runs = [(["solve", str(path), "-w", ",".join(["1"] + ["0"] * (problem.m - 1))], []),
            (["atlas", str(path), "-r", "3", "--out", str(out / "atlas")],
             [out / "atlas.json"]),
            (["verify", str(path), "-r", "3"], []),
            (["perturb", str(path), "--trials", "2", "-r", "3"], []),
            (["perturb", str(path), "--stability", "-r", "3"], [])]
    if problem.n == problem.m == 4:
        runs.append((["perturb", str(path), "--track"], []))
        # corank 0 at the root: an empty cokernel, whose interior margin is -inf
        runs.append((["perturb", str(path), "--track", "--rank-tol", "0"], []))
    if isinstance(problem.family, DistanceSquared):
        runs.append((["locate", str(path), "-r", "3", "--out", str(out / "loc")],
                     [out / "loc.json"]))
    if isinstance(problem.family, RidgePair):
        data = out / "ridge.csv"
        family = problem.family
        np.savetxt(data, np.column_stack([family.x_data, family.y_data]), delimiter=",")
        runs.append((["ridge", str(data), "--mu", repr(family.mu), "-r", "5"], []))
    return runs


_SINGLE_NODE = ("single_node", build_problem(DistanceSquared(np.array([[0.0, 0.0]]))))


@pytest.mark.parametrize("name,problem", fixture_problems() + [_SINGLE_NODE])
def test_every_json_output_is_standard_json(name, problem, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(serialize_problem(problem))
    for argv, exports in _json_runs(problem, path, tmp_path):
        code = main(argv + ["--json"])
        assert code in (0, 1), argv
        doc = _strict_json(capsys.readouterr().out)
        assert doc["exit_status"] == code
        for export in exports:
            _strict_json(export.read_text())


@pytest.mark.parametrize("argv,payload", [
    (["verify", "--builtin", "example31", "-r", "5"], "summary"),
    (["perturb", "--builtin", "example31", "--trials", "2", "-r", "5"], "genericity"),
])
def test_unconverged_runs_still_write_their_document(argv, payload, tmp_path, capsys):
    """Exit 3 reports what was computed before the certificates, as atlas does."""
    report = tmp_path / "report.json"
    code = main(argv + ["--max-iter", "0", "--json", "--out-report", str(report)])
    out, err = capsys.readouterr()
    doc = _strict_json(out)
    assert code == doc["exit_status"] == 3
    assert [key for key in doc if key not in ("schema", "command", "mode")] == [
        "input", "options", payload, "exit_status"]
    assert _strict_json(report.read_text()) == doc
    assert err.endswith("nodes failed to converge\n")
    assert main(argv + ["--max-iter", "0"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("problem: builtin:example31 ")
    assert "[ok]" not in out and "[FAIL]" not in out


_RIDGE_DATA = "1,0,0.5,1\n0,1,0.2,2\n1,1,0.1,3\n0.5,0.2,1,1.5\n"
_TRIANGLE = '{"family": "distance_squared", "points": [[0, 0], [1, 0], [0, 1]]}'
_LAYOUTS = {
    "solve": (["solve", "--builtin", "example31", "-w", "1,0,0"],
              ["input", "points"], None),
    "atlas": (["atlas", "--builtin", "example32", "-r", "3", "--out", "atlas"],
              ["input", "options", "summary", "outputs"],
              ["resolution", "grad_tol", "rank_tol"]),
    "verify": (["verify", "--builtin", "example32", "-r", "3"],
               ["input", "options", "certificates", "corank_witnesses", "collapsed_pairs",
                "summary"],
               ["resolution", "grad_tol", "rank_tol", "collapse_tol"]),
    "perturb-genericity": (["perturb", "--builtin", "example31", "--trials", "1", "-r", "3"],
                           ["mode", "input", "options", "genericity"],
                           ["trials", "scale", "resolution", "seed", "rank_tols"]),
    "perturb-track": (["perturb", "--builtin", "remark_g", "--track"],
                      ["mode", "input", "options", "tracker"], ["scale", "seed", "rank_tol"]),
    "perturb-stability": (["perturb", "--builtin", "example32", "--stability", "-r", "3"],
                          ["mode", "input", "options", "stability"], ["resolution", "seed"]),
    "ridge": (["ridge", "ridge.csv", "--mu", "0.1", "-r", "5"],
              ["input", "options", "max_oracle_gap", "outputs"], ["resolution", "oracle_tol"]),
    "locate": (["locate", "triangle.json", "-r", "3"],
               ["input", "options", "report", "outputs"],
               ["resolution", "bary_tol", "hull_tol"]),
}


@pytest.mark.parametrize("name", list(_LAYOUTS))
def test_run_document_key_order(name, monkeypatch, tmp_path, capsys):
    """The run-v1 layout per command and mode, keys in the order they are written."""
    argv, fields, options = _LAYOUTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ridge.csv").write_text(_RIDGE_DATA)
    (tmp_path / "triangle.json").write_text(_TRIANGLE)
    code, doc = run_json(capsys, argv + ["--json"])
    assert code == 0
    assert list(doc) == ["schema", "command", *fields, "exit_status"]
    assert doc["schema"] == "pareto-atlas/run-v1"
    assert doc["command"] == name.split("-")[0]
    assert (list(doc["options"]) if "options" in doc else None) == options
    assert list(doc["input"]) == (["data", "mu"] if name == "ridge" else ["problem", "sha256"])


_RIDGE_RUN = ["ridge", "ridge.csv", "--mu", "0.1", "-r", "5", "--out", "path.csv"]
_SWEEP_RUN = ["perturb", "--builtin", "remark_g", "--trials", "3", "-r", "6",
              "--rank-tols", "1e-9", "--rank-tols", "0.05", "--json"]
_TRACK_RUN = ["perturb", "--builtin", "remark_g", "--track"]
_SOLVE_RUN = ["solve", "--builtin", "example31", "-w", "0.2,0.3,0.5", "-w", "1,0,0",
              "-w", "0,0.5,0.5"]
# README's phenotypic example, four demand points in R^3 drawn once by
# np.random.default_rng(7).uniform(-1, 1, (4, 3)).round(3), and the unit
# square's corners (n = 2 < m - 1)
_INPUTS = {
    "ridge.csv": _RIDGE_DATA,
    "phenotypic.json": '{"family": "phenotypic",\n'
                       ' "matrices": [[[1, 0], [0, 2]], [[2, 0], [0, 1]], [[1, 0], [0, 1]]],\n'
                       ' "points": [[0, 0], [1, 0], [0, 1]]}\n',
    "points.json": '{"family": "distance_squared", "points": [[0.25, 0.794, 0.551], '
                   '[-0.55, -0.4, 0.747], [-0.989, 0.642, 0.594], [-0.064, -0.394, -0.443]]}\n',
    "square.json": '{"family": "distance_squared", "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}\n',
}
_LOCATE_RUN = ["locate", "points.json", "-r", "6", "--out", "located"]
_LOCATE_FILES = {"located.csv": "locate-points-r6.csv", "located.json": "locate-points-r6.json"}
_ATLAS_RUN = ["atlas", "--builtin", "example32", "-r", "20", "--out", "example32"]
_ATLAS_FILES = {"example32.csv": "atlas-example32-r20.csv",
                "example32.json": "atlas-example32-r20.json"}
# golden name: argv, exit status, stderr, {written file: golden file}
_RECORDED = {
    "ridge": (_RIDGE_RUN, 0, "", {"path.csv": "ridge-path.csv"}),
    "ridge-json": (_RIDGE_RUN + ["--json"], 0, "", {"path.csv": "ridge-path.csv"}),
    "stability-example32": (["perturb", "--builtin", "example32", "--stability"], 0, "", {}),
    "stability-example32-json": (["perturb", "--builtin", "example32", "--stability", "--json"],
                                 0, "", {}),
    "stability-remark_g-r10": (["perturb", "--builtin", "remark_g", "--stability", "-r", "10"],
                               0, "", {}),
    "stability-remark_g-r10-json": (["perturb", "--builtin", "remark_g", "--stability", "-r",
                                     "10", "--json"], 0, "", {}),
    "genericity-remark_g-json": (_SWEEP_RUN, 1, "", {}),
    "genericity-remark_g-max-iter0-json": (_SWEEP_RUN + ["--max-iter", "0"], 3,
                                           "error: 252 nodes failed to converge\n", {}),
    "track-remark_g": (_TRACK_RUN, 0, "", {}),
    "track-remark_g-json": (_TRACK_RUN + ["--json"], 0, "", {}),
    "track-remark_g-scale0-json": (_TRACK_RUN + ["--scale", "0", "--json"], 0, "", {}),
    "track-remark_g-scale1e-3-seed4-json": (_TRACK_RUN + ["--scale", "1e-3", "--seed", "4",
                                                          "--json"], 0, "", {}),
    "solve-example31": (_SOLVE_RUN, 0, "", {}),
    "solve-example31-json": (_SOLVE_RUN + ["--json"], 0, "", {}),
    "solve-remark_g-json": (["solve", "--builtin", "remark_g", "-w", "0.25,0.25,0.25,0.25",
                             "-w", "0,0,0,1", "--json"], 0, "", {}),
    "solve-example32-max-iter0": (
        ["solve", "--builtin", "example32", "-w", "0.2,0.3,0.5", "--max-iter", "0"], 3,
        "solver error: no convergence after 0 iterations (residual 5.967e+00, tol 5.967e-10)\n",
        {}),
    "verify-phenotypic-r10": (["verify", "phenotypic.json", "-r", "10"], 0, "", {}),
    "verify-phenotypic-r10-json": (["verify", "phenotypic.json", "-r", "10", "--json"], 0, "",
                                   {}),
    "verify-square-r3": (["verify", "square.json", "-r", "3"], 1, "", {}),
    "verify-square-r3-json": (["verify", "square.json", "-r", "3", "--json"], 1, "", {}),
    "locate-points-r6": (_LOCATE_RUN, 0, "", _LOCATE_FILES),
    "locate-points-r6-json": (_LOCATE_RUN + ["--json"], 0, "", _LOCATE_FILES),
    "atlas-example32-r20": (_ATLAS_RUN, 0, "", _ATLAS_FILES),
}


@pytest.mark.parametrize("name", list(_RECORDED))
def test_report_output_matches_the_recorded_bytes(name, monkeypatch, tmp_path, capsys):
    """The solve, atlas, verify, locate, ridge, stability, genericity and tracker
    reports print and write the recorded bytes (``tests/golden/NAME.txt`` is
    stdout) and exit as recorded."""
    argv, status, stderr, files = _RECORDED[name]
    monkeypatch.chdir(tmp_path)
    for input_name, text in _INPUTS.items():
        (tmp_path / input_name).write_text(text)
    assert main(argv) == status
    out, err = capsys.readouterr()
    assert (out, err) == ((GOLDEN / f"{name}.txt").read_text(), stderr)
    for written, recorded in files.items():
        assert (tmp_path / written).read_bytes() == (GOLDEN / recorded).read_bytes()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pareto_atlas.cli", "solve", "--builtin",
         "example31", "-w", "0.2,0.3,0.5", "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "solve"


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux")
def test_a_grid_too_large_for_memory_is_an_input_error():
    """r = 100000 asks for a 74.5 GiB node table; under a 2 GB address-space
    cap the allocation fails at once instead of filling memory."""
    proc = subprocess.run(
        [sys.executable, "-m", "pareto_atlas.cli", "verify", "--builtin", "example32",
         "-r", "100000"],
        capture_output=True, text=True, env=child_env(), timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: Unable to allocate")
    assert proc.stderr.count("\n") == 1


# Runs each argv through cli.main in one fresh interpreter and prints, per
# run, the exit code and the scipy modules loaded so far.
_MODULES_AFTER = """
import contextlib, io, json, sys
from pareto_atlas.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append((code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
if "scipy.optimize" in sys.modules:
    import pareto_atlas.apps, scipy.optimize
    out.append(pareto_atlas.apps.linprog is scipy.optimize.linprog)
print(json.dumps(out))
"""


def _modules_after(runs):
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, json.dumps(runs)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_the_lp_commands_import_scipy(tmp_path):
    """SciPy costs most of the start-up time; only locate and perturb --track load it."""
    data = tmp_path / "ridge.csv"
    data.write_text("1,0,1\n0,1,2\n1,1,3\n")
    points = tmp_path / "points.json"
    points.write_text('{"family": "distance_squared", "points": [[0, 0], [1, 0], [0, 1]]}')
    runs = [["verify", "--builtin", "example32", "-r", "5"],
            ["perturb", "--builtin", "example31", "--trials", "2", "-r", "5"],
            ["perturb", "--builtin", "example32", "--stability"],
            ["solve", "--builtin", "example31", "-w", "0.2,0.3,0.5"],
            ["atlas", "--builtin", "example32", "-r", "3", "--out", str(tmp_path / "atlas")],
            ["ridge", str(data), "--mu", "0.1", "-r", "5"]]
    runs += [[command, "--help"]
             for command in ("solve", "atlas", "verify", "perturb", "ridge", "locate")]
    assert _modules_after(runs) == [[0, []]] * len(runs)
    for lp_run in (["locate", str(points), "-r", "3"],
                   ["perturb", "--builtin", "remark_g", "--track"]):
        (code, modules), same_linprog = _modules_after([lp_run])
        assert code == 0 and "scipy.optimize" in modules
        assert same_linprog
