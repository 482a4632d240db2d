"""pareto-atlas benchmark: whole CLI runs checked by closed-form oracles.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload runs as whole ``pareto-atlas`` processes
(``python -m pareto_atlas.cli`` on the checkout's ``src``), one child at a
time, for ``--seconds`` seconds per workload, and the end-to-end metrics are
medians over those runs.  With ``--trace 1`` the same workloads run in
process, alternating traced and untraced passes, and the per-layer metrics
are medians over the traced passes.  Without ``--trace`` both happen, end
to end first.  With ``--workload all`` the workloads
are interleaved round-robin, so drift in machine speed hits all of them
alike.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  The line before it records the context of the run,
among it the load average and the time of a fixed pure-Python reference
loop, both at the start and at the end, so that a change in the host's speed
can be told apart from a change in the code.  Inputs come from ``--seed``; every child starts in its
own directory under ``.perfbench_tmp`` in the checkout, which is removed at
the end.  Traced runs write their spans to ``.perfbench_out``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads and inherited by every child.
# On a two-core shared host the default two OpenBLAS threads spin-wait on
# each other and make every time depend on what else the host runs.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD_ENV)

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, unit, better); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("nodes_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
MIN_ROUNDS = 3
DEADLINE_S = 170.0  # one workload in one mode must end within 180 s
REFERENCE_LOOP_N = 1_000_000


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PARETO_ATLAS_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], workdir: Path, env: dict, timeout: float) -> ChildRun:
    """One ``pareto-atlas`` process: wall time from start to exit, rusage from wait4."""
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pareto_atlas.cli", *args],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: the child must not outlive the benchmark
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, out_path.read_text(errors="replace"))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def reference_loop_s(repeats: int = 3) -> float:
    """Median seconds of a fixed pure-Python loop that does not touch the package.

    It measures the host, not the code: when it moves between two sets of
    runs, so does every time the benchmark reports.
    """
    times = []
    for _ in range(repeats):
        start, total = time.perf_counter(), 0
        for i in range(REFERENCE_LOOP_N):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """Samples, attempts and failures of one benchmark invocation."""

    def __init__(self, tmp: Path, seconds: float, deadline_s: float):
        self.tmp = tmp
        self.seconds = seconds
        self.deadline_s = deadline_s
        self.env = child_env()
        self.started = time.monotonic()
        self.samples = defaultdict(lambda: defaultdict(list))  # workload -> metric -> values
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        self.problems: list[str] = []
        self.tracers = defaultdict(list)
        self.trace_missing: set[str] = set()  # patch targets the package no longer has

    def workdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.tmp))

    def left(self) -> float:
        return self.deadline_s - (time.monotonic() - self.started)

    def record(self, workload: str, problems: list[str]) -> None:
        self.attempted[workload] += 1
        if problems:
            self.failed[workload] += 1
            self.problems += [f"{workload}: {p}" for p in problems[:5]]

    def child(self, workload, args: list[str], check) -> ChildRun:
        workdir = self.workdir()
        run = run_child(args, workdir, self.env, self.left())
        self.record(workload.name, check(run.returncode, run.stdout, workdir))
        shutil.rmtree(workdir, ignore_errors=True)
        return run

    def rounds(self, workloads, one_round) -> None:
        """Repeat ``one_round`` over the workloads for --seconds seconds per workload."""
        budget = self.seconds * len(workloads)
        start, done = time.monotonic(), 0
        while True:
            for w in workloads:
                one_round(w, done)
            done += 1
            elapsed = time.monotonic() - start
            per_round = elapsed / done
            if (done >= MIN_ROUNDS and elapsed + per_round > budget) or per_round > self.left():
                return


def help_check(rc: int, stdout: str, workdir: Path) -> list[str]:
    problems = [] if rc == 0 else [f"--help exit code {rc}, expected 0"]
    return problems + ([] if stdout.startswith("usage:") else ["--help printed no usage"])


def measure_end_to_end(run: Run, workloads) -> None:
    for w in workloads:  # warm-up: fills the bytecode and file caches, not timed
        run.child(w, [w.subcommand, "--help"], help_check)

    def one(w, _):
        # One set-up sample per round, so setup_s and wall_s see the same
        # stretch of the host's time.
        run.samples[w.name]["setup_s"].append(
            run.child(w, [w.subcommand, "--help"], help_check).wall_s)
        res = run.child(w, w.args, w.check)
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            run.samples[w.name][name].append(getattr(res, name))
        run.samples[w.name]["nodes_per_s"].append(w.nodes / res.wall_s)

    run.rounds(workloads, one)


def measure_layers(run: Run, workloads) -> None:
    for w in workloads:
        for _ in range(3):
            workdir = run.workdir()
            try:
                metrics = tracing.import_metrics(run.env, workdir, run.left())
            except (subprocess.SubprocessError, ValueError, IndexError) as exc:
                run.record(w.name, [f"import timing failed: {exc}"])
                continue
            run.record(w.name, [])
            for key, value in metrics.items():
                run.samples[w.name][key].append(value)

    def one(w, index):
        tracer = tracing.Tracer(run=index)
        seconds = {}  # traced? -> seconds of the pass
        for traced in ((False, True) if index % 2 else (True, False)):
            workdir = run.workdir()
            try:
                seconds[traced], problems = tracing.run_pass(w, workdir, tracer if traced else None)
                run.trace_missing.update(tracer.missing if traced else ())
            except Exception as exc:  # a crash in the package is a failed operation
                problems = [f"in-process pass raised {traceback.format_exception_only(exc)[-1].strip()}"]
            shutil.rmtree(workdir, ignore_errors=True)
            run.record(w.name, problems)
        if len(seconds) == 2:
            run.tracers[w.name].append(tracer)
            for key, value in tracing.layer_metrics(tracer, seconds[False]).items():
                run.samples[w.name][key].append(value)

    run.rounds(workloads, one)


def summarize(samples: dict, specs) -> dict:
    """Median of every metric; counts stay exact integers."""
    out = {}
    for name, unit, *_ in specs:
        values = samples[name]
        if unit in ("count", "bytes"):
            out[name] = {"value": int(statistics.median_low(values)), "unit": unit}
        else:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def describe(name: str, metrics: dict, samples: dict, attempted: int, failed: int) -> list[str]:
    lines = [f"{name}:"]
    for key, m in metrics.items():
        lines.append(f"  {key:<30} {m['value']:>14.6g} {m['unit']:<6} (median of {len(samples[key])})")
    lines.append(f"  {'ops_failed':<30} {failed / max(attempted, 1):>14.6g} share  "
                 f"({failed} of {attempted} invocations)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pareto_atlas" / "cli.py").is_file():
        print(f"error: no pareto_atlas package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PARETO_ATLAS_WORKERS", None)
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in W.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(W.WORKLOADS)} or all")
    modes = (0, 1) if args.trace is None else (args.trace,)
    specs = [spec for mode in modes for spec in (tracing.PER_LAYER if mode else END_TO_END)]

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        run = Run(tmp, args.seconds, DEADLINE_S * len(names) * len(modes))
        load_start, reference_start = os.getloadavg(), reference_loop_s()
        workloads = [W.make_workload(n, args.seed, tmp) for n in names]
        for mode in modes:
            (measure_layers if mode else measure_end_to_end)(run, workloads)
        load_end, reference_end = os.getloadavg(), reference_loop_s()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            (ROOT / ".perfbench_tmp").rmdir()

    missing = [n for n in names if not all(run.samples[n][name] for name, *_ in specs)]
    if missing:
        print("\n".join(run.problems[:20]), file=sys.stderr)
        print(f"error: no complete measurement of {', '.join(missing)}", file=sys.stderr)
        return 1
    results = {n: summarize(run.samples[n], specs) for n in names}
    for n in names:
        print("\n".join(describe(n, results[n], run.samples[n], run.attempted[n], run.failed[n])))
        if run.tracers[n]:
            tracing.write_spans(ROOT / ".perfbench_out" / f"spans-{n}-seed{args.seed}.json",
                                run.tracers[n])
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    for target in sorted(run.trace_missing):
        print(f"warning: trace target {target} not found; its layer reads 0 because it is "
              "not measured, not because it got faster", file=sys.stderr)
    print(json.dumps({"context": {
        "seed": args.seed, "seconds": args.seconds, "trace": modes,
        "loadavg_start": load_start, "loadavg_end": load_end,
        "reference_loop_s_start": reference_start, "reference_loop_s_end": reference_end,
        "trace_missing": sorted(run.trace_missing),
        "cpus": os.cpu_count(), "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "samples": {n: dict(run.samples[n]) for n in names},
    }}))
    attempted, failed = sum(run.attempted.values()), sum(run.failed.values())
    metrics = results[names[0]] if len(names) == 1 else results
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
