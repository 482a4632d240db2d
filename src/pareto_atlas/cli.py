"""Command line interface.

Exit codes: 0 all requested certificates pass, 1 a certificate fails,
2 input or format error (an unreadable or unwritable file too), 3 solver failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .apps import (
    location_pareto_set,
    read_ridge_csv,
    ridge_path,
    write_ridge_csv,
)
from .atlas import build_atlas, face_consistency, injectivity_scan
from .diagnostics import DEFAULT_RANK_TOL, certify_corank_on_atlas
from .perturb import (
    E_TOL,
    DBlockSingular,
    TrackerDiverged,
    corank2_tracker,
    draw_perturbation,
    genericity_experiment,
    stability_experiment,
)
from .problems import (
    BUILTIN_NAMES,
    DistanceSquared,
    ProblemFormatError,
    build_problem,
    builtin_problem,
    check_strong_convexity,
    parse_problem,
    serialize_problem,
)
from .solver import SolverConfig, SolverError, row_norms, scalarize

OK, CERT_FAIL, INPUT_ERROR, SOLVER_ERROR = 0, 1, 2, 3


def finite(text: str) -> float:
    """A float option value; NaN and infinities are input errors."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def rank_tol(text: str) -> float:
    """A relative singular value threshold: below 0 the rank test keeps exact
    zeros, and at 1 or above it keeps nothing, so either passes any corank test."""
    value = finite(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1)")
    return value


def grad_tol(text: str) -> float:
    """A relative gradient tolerance: at 0 a solve stops only at an exact zero
    gradient, and at 1 or above every solve stops at its start."""
    value = finite(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in (0, 1)")
    return value


def nonnegative_int(text: str) -> int:
    """A step budget, sample count or seed: below 0 a run would report a
    negative step count, skip the spot check unasked, or fail in numpy."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def nonnegative(text: str) -> float:
    """A tolerance or a perturbation scale: below 0 a distance tolerance
    matches no pair, an error tolerance fails every input, and a scale
    names no perturbation.  ``-0`` reads as 0.0."""
    value = finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value + 0.0


def scale_list(text: str) -> list[float]:
    """Comma-separated perturbation scales, each ``nonnegative``."""
    return [nonnegative(item) for item in text.split(",")]


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{x:.12g}" for x in np.asarray(v).ravel()) + "]"


def _add_problem_args(sub):
    sub.add_argument("problem", nargs="?", help="problem JSON file")
    sub.add_argument(
        "--builtin", choices=BUILTIN_NAMES, help="use a named fixture instead of a file"
    )
    sub.add_argument(
        "--epsilon", type=finite,
        help="epsilon for --builtin example31_perturbed (default 0.1)",
    )


def _add_solver_args(sub):
    sub.add_argument("--grad-tol", type=grad_tol, default=1e-10,
                     help="gradient tolerance, scaled by the initial gradient norm, in (0, 1)")
    sub.add_argument("--max-iter", type=nonnegative_int, default=200)
    sub.add_argument("--rank-tol", type=rank_tol, default=DEFAULT_RANK_TOL,
                     help="relative singular value threshold for rank decisions, in [0, 1)")


def _config(args) -> SolverConfig:
    return SolverConfig(
        grad_tol=args.grad_tol, max_iter=args.max_iter, rank_tol=args.rank_tol
    )


def _load_problem(args, parser):
    """Problem, its ``input`` fields (label, sha256 of the defining JSON) and header line."""
    if args.epsilon is not None and args.builtin != "example31_perturbed":
        parser.error("argument --epsilon: only --builtin example31_perturbed takes it")
    if args.builtin:
        if args.problem:
            parser.error("give either a problem file or --builtin, not both")
        problem = builtin_problem(args.builtin, 0.1 if args.epsilon is None else args.epsilon)
        label, raw = f"builtin:{args.builtin}", serialize_problem(problem).encode()
    else:
        if not args.problem:
            parser.error("a problem file or --builtin is required")
        raw = Path(args.problem).read_bytes()
        problem, label = build_problem(parse_problem(raw.decode())), str(args.problem)
    digest = hashlib.sha256(raw).hexdigest()
    header = f"problem: {label} (n={problem.n}, m={problem.m}) sha256={digest[:16]}"
    return problem, {"problem": label, "sha256": digest}, [header]


def _report(args, lines: list[str], command: str, status: int, **fields) -> int:
    """Write the run-v1 document (keys: schema, command, ``fields`` in keyword
    order, exit_status) to --out-report if given, then print ``lines``, or the
    document with --json.  An unwritable --out-report raises before any output."""
    doc = {"schema": "pareto-atlas/run-v1", "command": command, **fields,
           "exit_status": status}
    if out := getattr(args, "out_report", None):
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
    print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))
    return status


def _options(args, *names: str) -> dict:
    return {name: getattr(args, name) for name in names}


def _cert_line(name: str, ok: bool | None, detail: str) -> str:
    """One certificate verdict; ``ok`` is None when its sample is empty."""
    return f"[{'n/a' if ok is None else 'ok' if ok else 'FAIL'}] {name}: {detail}"


def _verdicts(checks, lines: list[str]) -> int:
    """Append a verdict line per ``(name, (ok, detail))``; CERT_FAIL if any ok is false."""
    status = OK
    for name, (ok, detail) in checks:
        lines.append(_cert_line(name, ok, detail))
        if not (ok or ok is None):
            status = CERT_FAIL
    return status


def _spot_check(args, problem, lines: list[str]) -> bool:
    """Sampled strong convexity; on failure the lines so far and an error go to stderr."""
    if not args.spot_check:
        return True
    cert = check_strong_convexity(problem, count=args.spot_check, seed=args.seed)
    lines.append(cert.describe())
    if not cert.ok:
        print("\n".join(lines), file=sys.stderr)
        print("error: sampled Hessian not positive definite", file=sys.stderr)
    return cert.ok


def _unconverged(count: int) -> int:
    """SOLVER_ERROR, announced on stderr, when ``count`` nodes failed to converge."""
    if count:
        print(f"error: {count} nodes failed to converge", file=sys.stderr)
        return SOLVER_ERROR
    return OK


def _export(atlas, prefix: str, lines: list[str]) -> list[str]:
    """Write the atlas to ``prefix``.csv and ``prefix``.json; return both paths."""
    csv_path, json_path = f"{prefix}.csv", f"{prefix}.json"
    atlas.to_csv(csv_path)
    atlas.to_json(json_path)
    lines.append(f"wrote {csv_path} and {json_path}")
    return [csv_path, json_path]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args, parser) -> int:
    problem, source, lines = _load_problem(args, parser)
    config = _config(args)
    points = []
    for spec in args.weight:
        w = np.array([float(t) for t in spec.split(",")])
        pt = scalarize(problem, w, config)
        points.append(
            {
                "w": pt.weight.tolist(),
                "x": pt.x.tolist(),
                "f": pt.fx.tolist(),
                "kkt_residual": pt.kkt_residual,
                "corank": pt.corank,
                "iterations": pt.iterations,
            }
        )
        lines.append(
            f"w={_fmt_vec(pt.weight)} x={_fmt_vec(pt.x)} "
            f"f={_fmt_vec(pt.fx)} kkt={pt.kkt_residual:.3e} corank={pt.corank}"
        )
    return _report(args, lines, "solve", OK, input=source, points=points)


def cmd_atlas(args, parser) -> int:
    problem, source, lines = _load_problem(args, parser)
    if not _spot_check(args, problem, lines):
        return INPUT_ERROR
    atlas = build_atlas(problem, args.resolution, _config(args))
    s = atlas.summary
    lines.append(
        f"atlas: resolution {s.resolution}, {s.node_count} nodes, "
        f"{s.unconverged} unconverged, max KKT residual {s.max_kkt_residual:.3e}"
    )
    lines.append(f"corank histogram: {s.corank_histogram}")
    outputs = _export(atlas, args.out, lines)
    return _report(args, lines, "atlas", _unconverged(len(atlas.failures)), input=source,
                   options=_options(args, "resolution", "grad_tol", "rank_tol"),
                   summary=s.as_dict(), outputs=outputs)


def cmd_verify(args, parser) -> int:
    problem, source, lines = _load_problem(args, parser)
    if not _spot_check(args, problem, lines):
        return INPUT_ERROR
    atlas = build_atlas(problem, args.resolution, _config(args))
    s = atlas.summary
    lines.append(
        f"atlas: resolution {s.resolution}, {s.node_count} nodes, "
        f"max KKT residual {s.max_kkt_residual:.3e}"
    )
    options = _options(args, "resolution", "grad_tol", "rank_tol", "collapse_tol")
    if atlas.failures:
        return _report(args, lines, "verify", _unconverged(len(atlas.failures)),
                       input=source, options=options, summary=s.as_dict())

    corank = certify_corank_on_atlas(atlas)
    faces = face_consistency(atlas)
    inject = injectivity_scan(atlas, args.collapse_tol)
    nondom = s.dominance_violations == 0
    no_pairs = (None, f"{s.node_count} node, no pairs to compare")
    rank, skipped = f"rank {problem.m - 1}", faces.unjudged
    unjudged = (f", {len(skipped)} below {rank} not judged: nodes " + ", ".join(
        map(str, skipped[:10])) + ", ..." * (len(skipped) > 10)) if skipped else ""
    # for n < m the max corank hides a failure, so the count of failing nodes is shown
    below = (f", {len(corank.witnesses)} below {rank}"
             if problem.n < problem.m and corank.witnesses else "")

    checks = {
        "corank": (
            corank.simplicial_on_sample,
            f"max corank {corank.max_corank} over {s.node_count} nodes "
            f"(tol {corank.tolerance:g}){below}",
        ),
        "face-consistency": (
            faces.consistent,
            f"discrepancy {faces.max_discrepancy:.3e} at node {faces.worst_node} over "
            f"{faces.checked} boundary nodes (tol {faces.tolerance:.3e}){unjudged}",
        ) if faces.checked else (None, f"no boundary node of {rank}{unjudged}"),
        "injectivity": (
            inject.injective_on_sample,
            f"{len(inject.collapsed_pairs)} collapsed pairs "
            f"(collapse tol {inject.collapse_tol:g})",
        ) if s.node_count > 1 else no_pairs,
        "non-domination": (
            nondom,
            f"{s.dominance_violations} dominating pairs among node values",
        ) if s.node_count > 1 else no_pairs,
    }
    status = _verdicts(checks.items(), lines)
    for idx in corank.witnesses[:10]:
        lines.append(
            f"       corank witness: node {idx} w={_fmt_vec(atlas.grid.weights[idx])} "
            f"corank={corank.coranks[idx]}"
        )
    for a, b in inject.collapsed_pairs[:10]:
        gap = float(np.linalg.norm(atlas.x[a] - atlas.x[b]))
        lines.append(
            f"       collapse: w={_fmt_vec(atlas.grid.weights[a])} vs "
            f"w={_fmt_vec(atlas.grid.weights[b])} |dx|={gap:.3e}"
        )
    lines.append(f"verify: {'all certificates pass' if status == OK else 'FAILED'}")
    return _report(
        args, lines, "verify", status, input=source, options=options,
        certificates={name: {"ok": ok, "detail": detail}
                      for name, (ok, detail) in checks.items()},
        corank_witnesses=corank.witnesses, collapsed_pairs=inject.collapsed_pairs,
        summary=s.as_dict(),
    )


# The options each perturb mode reads, with their defaults; any other is a usage error.
PERTURB_OPTIONS = {"track": {"scale": 0.1},
                   "stability": {"resolution": 20, "scales": (0.1, 0.01, 0.001)},
                   "genericity": {"trials": 20, "scale": 0.1, "resolution": 20, "rank_tols": None}}


def cmd_perturb(args, parser) -> int:
    mode = "track" if args.track else "stability" if args.stability else "genericity"
    reads = PERTURB_OPTIONS[mode]
    for name in ("trials", "scale", "resolution", "rank_tols", "scales"):
        given = getattr(args, name)
        if given is None:
            setattr(args, name, reads.get(name))
        elif name not in reads:
            parser.error(f"argument --{name.replace('_', '-')}: a {mode} run does not take it")
    problem, source, lines = _load_problem(args, parser)
    config = _config(args)

    if args.track:
        seed, scale = (args.seed, args.scale) if args.scale > 0 else (None, 0.0)
        pi = draw_perturbation(problem.n, problem.m, args.seed, scale)
        rep = corank2_tracker(problem, pi, config)
        lines.append(
            f"tracker: x_hat={_fmt_vec(rep.x_hat)} |E|={rep.e_norm:.3e} "
            f"({rep.iterations} iterations, scale {args.scale:g}, seed {args.seed})"
        )
        status = _verdicts([("corank-2 persistence", (
            rep.corank == 2 and rep.meets_simplex_interior,
            f"corank {rep.corank}, interior margin {rep.interior_margin:.6g}",
        ))], lines)
        if rep.interior_witness is not None:
            lines.append(f"       interior weight: {_fmt_vec(rep.interior_witness)}")
        return _report(args, lines, "perturb", status, mode="track", input=source,
                       options=_options(args, "scale", "seed", "rank_tol"),
                       tracker={**rep.as_dict(), "perturbation": {
                           "seed": seed, "scale": scale, "coefficients": pi.tolist()}})

    if args.stability:
        scales = sorted(args.scales, reverse=True)
        rep = stability_experiment(problem, scales, args.resolution, args.seed, config)
        sups = rep.sup_displacement
        lines.append(f"stability: resolution {args.resolution}, seed {args.seed}")
        for scale, sup, mean in zip(rep.scales, sups, rep.mean_displacement):
            lines.append(f"  scale {scale:<10g} sup displacement {sup:.6e} mean {mean:.6e}")
        status = _verdicts([("stability", (
            bool(np.all(sups[:-1] >= sups[1:] - 1e-15)),
            "sup displacement decreases with the scale",
        ) if len(sups) > 1 else (None, "1 scale, no pair to compare"))], lines)
        return _report(args, lines, "perturb", status, mode="stability", input=source,
                       options=_options(args, "resolution", "seed"), stability=rep.as_dict())

    rep = genericity_experiment(
        problem,
        trials=args.trials,
        scale=args.scale,
        resolution=args.resolution,
        rank_tols=args.rank_tols,
        seed=args.seed,
        config=config,
    )
    lines.append(
        f"genericity: {args.trials} trials, scale {args.scale:g}, "
        f"resolution {args.resolution}, seeds {args.seed}..{args.seed + args.trials - 1}"
    )
    status = _unconverged(int(np.count_nonzero(~rep.converged)))
    if status == OK:
        checks, rank = [], problem.m - 1
        for tol in rep.rank_tols:
            bad, below = rep.corank2_trials(tol), rep.trials_below_rank(tol, rank)
            # for n < m the corank hides a failure, as in verify's corank line
            tail = (f", {len(below)} trial(s) below rank {rank}"
                    if problem.n < problem.m and below else "")
            checks.append((f"corank <= 1 at tol {tol:g}", (not below, (
                f"{len(bad)} trial(s) with corank >= 2" + (f": {bad}" if bad else "") + tail))))
        status = _verdicts(checks, lines)
    options = {**_options(args, "trials", "scale", "resolution", "seed"),
               "rank_tols": list(rep.rank_tols)}
    return _report(args, lines, "perturb", status, mode="genericity", input=source,
                   options=options, genericity=rep.as_dict())


def cmd_ridge(args, parser) -> int:
    pair = read_ridge_csv(args.data, args.mu)
    rep = ridge_path(pair, args.resolution, _config(args))
    norms = row_norms(rep.theta)
    lines = [
        f"ridge path: {len(rep.lam)} rows, mu={args.mu:g}, resolution {args.resolution}",
        f"lambda range: [{rep.lam[0]:.6g}, {rep.lam[-1]:.6g}]",
        f"|theta| range: [{norms.min():.6g}, {norms.max():.6g}]",
    ]
    status = _verdicts([("normal-equations oracle", (
        rep.max_oracle_gap <= args.oracle_tol,
        f"max gap {rep.max_oracle_gap:.3e} (tol {args.oracle_tol:g})",
    ))], lines)
    outputs = []
    if args.out:
        write_ridge_csv(rep, args.out)
        outputs.append(args.out)
        lines.append(f"wrote {args.out}")
    return _report(args, lines, "ridge", status, input={"data": args.data, "mu": args.mu},
                   options=_options(args, "resolution", "oracle_tol"),
                   max_oracle_gap=rep.max_oracle_gap, outputs=outputs)


def cmd_locate(args, parser) -> int:
    problem, source, lines = _load_problem(args, parser)
    if not isinstance(problem.family, DistanceSquared):
        raise ProblemFormatError("locate requires a distance_squared problem")
    rep = location_pareto_set(problem.family, args.resolution, _config(args))
    options = _options(args, "resolution", "bary_tol", "hull_tol")
    if rep.atlas.failures:
        return _report(args, lines, "locate", _unconverged(len(rep.atlas.failures)),
                       input=source, options=options, summary=rep.atlas.summary.as_dict())
    checks = {
        "barycentric closed form": (
            rep.max_barycentric_error <= args.bary_tol,
            f"max error {rep.max_barycentric_error:.3e} (tol {args.bary_tol:g})",
        ),
        "hull membership": (
            rep.max_hull_violation <= args.hull_tol,
            f"max violation {rep.max_hull_violation:.3e} (tol {args.hull_tol:g})",
        ),
        "injectivity": (
            rep.injectivity.injective_on_sample,
            f"{len(rep.injectivity.collapsed_pairs)} collapsed pairs",
        ) if rep.atlas.grid.node_count > 1 else (None, "1 node, no pairs to compare"),
    }
    if rep.general_position:
        checks["corank (general position)"] = (
            rep.corank_certificate.simplicial_on_sample,
            f"max corank {rep.corank_certificate.max_corank}",
        )
    lines.append(f"demand points in general position: {rep.general_position}")
    status = _verdicts(checks.items(), lines)
    outputs = _export(rep.atlas, args.out, lines) if args.out else []
    return _report(args, lines, "locate", status, input=source, options=options,
                   report=rep.as_dict(), outputs=outputs)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-atlas",
        description="Pareto sets of strongly convex problems by weighted scalarization, "
        "with numerical rank and genericity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve single weights")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("-w", "--weight", action="append", required=True,
                   help="comma-separated simplex weight, repeatable")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("atlas", help="solve a full weight grid and export it")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--resolution", "-r", type=int, required=True)
    p.add_argument("--out", "-o", default="atlas", help="output prefix (default: atlas)")
    p.add_argument("--spot-check", type=nonnegative_int, default=1000,
                   help="strong-convexity sample count (0 to skip)")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("verify", help="corank, face, injectivity and ordering certificates")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--resolution", "-r", type=int, default=20)
    p.add_argument("--collapse-tol", type=nonnegative, default=1e-6)
    p.add_argument("--spot-check", type=nonnegative_int, default=1000)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out-report", help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("perturb", help="genericity trials, corank-2 tracking, stability")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--trials", type=int, help="genericity trials (default 20)")
    p.add_argument("--scale", type=nonnegative, help="perturbation scale (default 0.1)")
    p.add_argument("--resolution", "-r", type=int, help="grid resolution (default 20)")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--rank-tols", type=rank_tol, action="append",
                   help="repeatable rank tolerance sweep, each in [0, 1) (default: --rank-tol)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--track", action="store_true",
                      help="track the corank-2 point of a square 4 -> 4 mapping; it stops "
                      f"at |E| <= {E_TOL:g} or after --max-iter steps (--grad-tol does not apply)")
    mode.add_argument("--stability", action="store_true",
                      help="sup-displacement table over --scales")
    p.add_argument("--scales", type=scale_list,
                   help="comma-separated scales for --stability (default 0.1,0.01,0.001)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out-report", help="also write the JSON report here")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("ridge", help="two-objective ridge trade-off path")
    p.add_argument("data", help="CSV with feature columns and the response last")
    p.add_argument("--mu", type=finite, required=True, help="strong-convexity shift (> 0)")
    p.add_argument("--resolution", "-r", type=int, default=100)
    p.add_argument("--out", "-o", help="write the path CSV here")
    p.add_argument("--oracle-tol", type=nonnegative, default=1e-8)
    _add_solver_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ridge)

    p = sub.add_parser("locate", help="squared-distance location atlas with hull checks")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--resolution", "-r", type=int, default=20)
    p.add_argument("--bary-tol", type=nonnegative, default=1e-8)
    p.add_argument("--hull-tol", type=nonnegative, default=1e-9)
    p.add_argument("--out", "-o", help="atlas export prefix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_locate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ProblemFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return INPUT_ERROR
    except (SolverError, TrackerDiverged, DBlockSingular) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
