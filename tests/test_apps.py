"""Application layers: location, the biological model through ``verify``, ridge paths."""
from __future__ import annotations

import contextlib
import csv
import json
import os
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import child_env, phenotypic_instance
from pareto_atlas import (
    DEFAULT_RANK_TOL,
    DistanceSquared,
    LocationInstance,
    SolverConfig,
    apps,
    build_atlas,
    build_problem,
    cli,
    location_pareto_set,
    read_ridge_csv,
    ridge_lambda,
    ridge_path,
    write_ridge_csv,
)
from pareto_atlas.problems import Example31, Phenotypic, serialize_problem


class TestLocation:
    def test_triangle_matches_barycenter_formula(self, triangle):
        report = location_pareto_set(triangle, resolution=12)
        assert report.general_position
        assert report.max_barycentric_error <= 1e-12
        assert report.max_hull_violation <= 1e-9
        assert report.corank_certificate.max_corank == 0
        assert report.injectivity.injective_on_sample

    def test_failed_hull_lp_is_an_infinite_violation(self, monkeypatch):
        import scipy.optimize

        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *args, **kwargs: SimpleNamespace(status=2))
        assert apps._hull_violation(np.eye(2), np.zeros(2)) == np.inf

    def test_collinear_points_are_not_in_general_position(self):
        flat = LocationInstance([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert not flat.affinely_independent(DEFAULT_RANK_TOL)
        report = location_pareto_set(flat, resolution=8)
        assert not report.general_position
        # the barycenter formula holds regardless
        assert report.max_barycentric_error <= 1e-12

    def test_more_than_n_plus_one_points_list_every_node_as_a_corank_witness(self):
        square = LocationInstance([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        report = location_pareto_set(square, resolution=3)
        assert not report.general_position
        assert report.corank_certificate.max_corank == 0  # against min(n, m) = 2
        assert not report.corank_certificate.simplicial_on_sample
        assert report.as_dict()["corank"]["witnesses"] == list(range(20))

    @pytest.mark.parametrize("points, independent", [
        (np.eye(3), True),
        ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], False),
        (np.random.default_rng(4).normal(size=(4, 6)), True),
    ])
    def test_general_position_does_not_depend_on_the_units(self, points, independent):
        for s in (1e-10, 1.0, 1e10):
            instance = LocationInstance(s * np.asarray(points))
            assert instance.affinely_independent(DEFAULT_RANK_TOL) is independent

    def test_general_position_is_decided_at_the_run_rank_tol(self):
        # the differences have singular values about sqrt(5) and 1e-6 / sqrt(5)
        instance = LocationInstance([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-6]])
        assert instance.affinely_independent(DEFAULT_RANK_TOL)  # ratio about 2e-7, above 1e-8
        for rank_tol, independent in ((1e-8, True), (1e-6, False)):
            report = location_pareto_set(instance, 2, SolverConfig(rank_tol=rank_tol))
            assert report.general_position is independent

    def test_single_demand_point(self):
        instance = LocationInstance([[3.0, -1.0, 2.0]])
        assert instance.affinely_independent(DEFAULT_RANK_TOL)
        report = location_pareto_set(instance, resolution=4)
        assert report.atlas.grid.node_count == 1
        assert_allclose(report.atlas.x[0], [3.0, -1.0, 2.0], atol=1e-12)
        assert report.max_hull_violation <= 1e-12

    def test_pareto_set_fills_the_hull(self, rng):
        # more points than dimensions: never in general position, but the
        # optimal set is still exactly the convex hull of the demand points
        points = rng.normal(size=(5, 3))
        instance = LocationInstance(points)
        assert not instance.affinely_independent(DEFAULT_RANK_TOL)
        report = location_pareto_set(instance, resolution=5)
        assert report.max_barycentric_error <= 1e-10
        assert report.max_hull_violation <= 1e-9

    def test_report_dict_is_json_ready(self, triangle):
        import json

        doc = location_pareto_set(triangle, resolution=5).as_dict()
        json.dumps(doc)
        assert doc["schema"] == "pareto-atlas/location-v1"
        assert doc["general_position"] is True


@contextlib.contextmanager
def _within(seconds: float):
    """Raise TimeoutError in this process if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestHullLPsAcrossProcesses:
    """``apps._hull_violations`` shares the per-node LPs with forked pool workers."""

    POINTS = np.random.default_rng(3).normal(size=(4, 8))

    @pytest.fixture(scope="class")
    def xs(self):
        return build_atlas(build_problem(DistanceSquared(self.POINTS)), 12).x  # 455 nodes

    @pytest.fixture
    def forks(self, monkeypatch):
        """Pids returned by os.fork in this process, in order."""
        pids, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return pids

    @staticmethod
    def cpus(monkeypatch, count: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    def test_forked_values_equal_the_serial_loop_bit_for_bit(self, xs, forks, monkeypatch):
        serial = np.array([apps._hull_violation(self.POINTS, x) for x in xs])
        for cpus in (1, 2, 3):
            self.cpus(monkeypatch, cpus)
            forks.clear()
            with _within(60):
                values = apps._hull_violations(self.POINTS, xs)
            assert len(forks) == cpus - 1
            assert values.tobytes() == serial.tobytes()
            _assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "exits"])
    def test_a_failing_child_raises_in_the_parent(self, xs, forks, monkeypatch, failure):
        """A worker's own exception comes back as itself; a worker that dies
        breaks the pool, which raises a RuntimeError."""
        parent, solve = os.getpid(), apps._hull_violation

        def fail_in_child(points, x):
            if os.getpid() != parent:
                if failure == "exits":
                    os._exit(7)
                raise ValueError("LP failed in the child")
            return solve(points, x)

        monkeypatch.setattr(apps, "_hull_violation", fail_in_child)
        self.cpus(monkeypatch, 2)
        expected = ((ValueError, "LP failed in the child") if failure == "raises"
                    else (RuntimeError, "terminated abruptly"))
        with _within(60), pytest.raises(expected[0], match=expected[1]):
            apps._hull_violations(self.POINTS, xs)
        assert len(forks) == 1
        _assert_no_child_left()

    def test_a_failure_in_the_parent_reaps_the_workers(self, xs, forks, monkeypatch):
        """The workers finish their slices, then the parent's error propagates."""
        parent, solve = os.getpid(), apps._hull_violation

        def fail_in_parent(points, x):
            if os.getpid() == parent:
                raise ValueError("LP failed in the parent")
            return solve(points, x)

        monkeypatch.setattr(apps, "_hull_violation", fail_in_parent)
        self.cpus(monkeypatch, 3)
        with _within(60), pytest.raises(ValueError, match="in the parent"):
            apps._hull_violations(self.POINTS, xs)
        assert len(forks) == 2
        _assert_no_child_left()

    def test_the_first_slice_is_solved_in_the_parent(self, xs, monkeypatch):
        parent, solve, solved_here = os.getpid(), apps._hull_violation, []

        def record(points, x):
            if os.getpid() == parent:
                solved_here.append(x)
            return solve(points, x)

        monkeypatch.setattr(apps, "_hull_violation", record)
        self.cpus(monkeypatch, 3)
        with _within(60):
            apps._hull_violations(self.POINTS, xs)
        assert np.array_equal(solved_here, xs[:len(xs) // 3])
        _assert_no_child_left()

    @pytest.mark.parametrize("cpus, rows", [(1, 2 * apps.HULL_LP_GRAIN),
                                            (8, 2 * apps.HULL_LP_GRAIN - 1)])
    def test_one_cpu_or_few_rows_run_in_process(self, xs, forks, monkeypatch, cpus, rows):
        self.cpus(monkeypatch, cpus)
        values = apps._hull_violations(self.POINTS, xs[:rows])
        assert forks == []
        assert len(values) == rows

    def test_locate_writes_the_same_bytes_on_one_cpu_and_on_two(self, tmp_path):
        problem = tmp_path / "points.json"
        problem.write_text(serialize_problem(DistanceSquared(self.POINTS)))
        script = ("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
                  "from pareto_atlas.cli import main\n"
                  "sys.exit(main(sys.argv[2:]))\n")
        outputs = []
        for cpus in (1, 2):
            workdir = tmp_path / f"cpus{cpus}"
            workdir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", script, str(cpus), "locate", str(problem), "-r", "12",
                 "--json", "--out", "atlas"],
                cwd=workdir, env=child_env(), capture_output=True, timeout=120)
            outputs.append((proc.returncode, proc.stdout, (workdir / "atlas.csv").read_bytes(),
                            (workdir / "atlas.json").read_bytes()))
        assert outputs[0][0] == 0 and b'"max_hull_violation"' in outputs[0][1]
        assert outputs[0] == outputs[1]

    def test_the_workers_inherit_scipy_optimize(self, tmp_path):
        """SciPy's optimizer is loaded once, before the fork, not in the parent
        and again in each worker."""
        problem = tmp_path / "points.json"
        problem.write_text(serialize_problem(DistanceSquared(self.POINTS)))
        script = ("import concurrent.futures, os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "class Pool(concurrent.futures.ProcessPoolExecutor):\n"
                  "    def __init__(self, *args, **kwargs):\n"
                  "        print('scipy.optimize' in sys.modules, file=sys.stderr)\n"
                  "        super().__init__(*args, **kwargs)\n"
                  "concurrent.futures.ProcessPoolExecutor = Pool\n"
                  "from pareto_atlas.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", script, "locate", str(problem), "-r", "12"],
                              cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "True\n")


def verify_json(problem, tmp_path, capsys):
    """Exit status and run document of ``verify -r 10 --json`` on ``problem``
    written as a problem document."""
    path = tmp_path / "problem.json"
    path.write_text(serialize_problem(problem))
    code = cli.main(["verify", str(path), "-r", "10", "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestPhenotypic:
    def test_random_instance_is_weakly_simplicial(self, tmp_path, capsys):
        code, doc = verify_json(phenotypic_instance(seed=7, m=3, n=2), tmp_path, capsys)
        assert code == 0
        assert doc["certificates"]["corank"]["ok"]
        assert doc["certificates"]["face-consistency"]["ok"]
        assert max(map(int, doc["summary"]["corank_histogram"])) <= 1

    def test_anisotropic_encoding_of_the_pinch(self, tmp_path, capsys):
        """Unit maps plus one diag(1, sqrt 2, 1) map reproduce, gradient for
        gradient, the degenerate three-quadratic family, and the sampled
        verdict correctly comes back negative."""
        mats = [np.eye(3), np.eye(3), np.diag([1.0, np.sqrt(2.0), 1.0])]
        points = [np.zeros(3), [-0.5, -0.5, 0.0], [0.5, 0.25, 0.0]]
        target = build_problem(Phenotypic(np.array(mats), np.array(points, float)))
        pinch = build_problem(Example31())
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(size=3)
            assert_allclose(target.gradients(x), pinch.gradients(x), atol=1e-12)
            assert_allclose(target.hessians(x), pinch.hessians(x), atol=1e-12)

        code, doc = verify_json(target, tmp_path, capsys)
        assert code == 1
        corank = doc["certificates"]["corank"]
        assert corank["ok"] is False
        assert corank["detail"].startswith("max corank 2 ")
        assert doc["corank_witnesses"]


class TestRidge:
    def test_lambda_formula(self):
        assert ridge_lambda(1.0, 0.0, 0.1) == 0.1
        assert ridge_lambda(0.5, 0.5, 0.1) == pytest.approx(1.1)
        assert ridge_lambda(0.25, 0.75, 2.0) == pytest.approx(5.0)
        clamped = ridge_lambda(0.0, 1.0, 0.1)
        assert np.isfinite(clamped) and clamped > 1e15

    def test_path_tracks_the_normal_equations(self, ridge20x5):
        report = ridge_path(ridge20x5, resolution=40)
        assert len(report.lam) == 41
        assert report.max_oracle_gap <= 1e-10
        lams = report.lam
        assert lams[0] == pytest.approx(ridge20x5.mu)
        assert np.all(np.diff(lams[:-1]) > 0)
        assert lams[-1] == np.inf
        norms = np.linalg.norm(report.theta, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)  # shrinkage is monotone
        assert norms[-1] <= 1e-10
        # each row's lambda agrees with the weight it came from
        for (w1, w2), lam in zip(report.weights[:-1], lams[:-1]):
            assert lam == pytest.approx(ridge_lambda(w1, w2, ridge20x5.mu))

    @pytest.mark.parametrize("resolution", [0, -2])
    def test_resolution_below_one_rejected(self, ridge20x5, resolution):
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            ridge_path(ridge20x5, resolution)

    def test_csv_round_trip(self, ridge20x5, tmp_path):
        report = ridge_path(ridge20x5, resolution=10)
        out = tmp_path / "path.csv"
        write_ridge_csv(report, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        p = ridge20x5.x_data.shape[1]
        assert rows[0] == ["w1", "w2", "lambda"] + [
            f"theta_{i + 1}" for i in range(p)
        ] + ["residual"]
        assert len(rows) == 1 + 11
        got = np.array([float(v) for v in rows[1][3 : 3 + p]])
        assert_allclose(got, report.theta[0], rtol=1e-15)

    def test_from_csv_with_and_without_header(self, tmp_path):
        data = np.arange(12.0).reshape(4, 3)
        bare = tmp_path / "bare.csv"
        named = tmp_path / "named.csv"
        np.savetxt(bare, data, delimiter=",")
        with open(named, "w") as fh:
            fh.write("f1,f2,y\n")
            np.savetxt(fh, data, delimiter=",")
        for path in (bare, named):
            inst = read_ridge_csv(path, mu=0.5)
            assert_allclose(inst.x_data, data[:, :2])
            assert_allclose(inst.y_data, data[:, 2])
            assert inst.mu == 0.5

    def test_from_csv_rejects_bad_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_ridge_csv(empty, mu=0.1)
        thin = tmp_path / "thin.csv"
        thin.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="feature column"):
            read_ridge_csv(thin, mu=0.1)

    def test_from_csv_of_blank_lines_is_empty(self, tmp_path):
        blank = tmp_path / "blank.csv"
        blank.write_text("\n\n")
        with pytest.raises(ValueError, match="empty file"):
            read_ridge_csv(blank, mu=0.1)

    def test_from_csv_names_a_ragged_row(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match=r"ragged\.csv: row 2 has 2 fields, expected 3$"):
            read_ridge_csv(ragged, mu=0.1)

    def test_from_csv_names_a_non_numeric_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,y\n1,2,3\n\n4,five,6\n")
        with pytest.raises(ValueError, match=r"bad\.csv: row 4: .*'five'"):
            read_ridge_csv(bad, mu=0.1)
