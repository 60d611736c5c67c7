"""Command-line front end.

One binary with subcommands (iterate, verify, census, classify, maxcut).
All numeric output is printed with 17 significant digits and every run is
reproducible from its flags: the default seed is 0, never the clock.

Exit codes: 0 success (for verify, "fixed"), 1 file or parse problems,
2 validation failures (infeasible start, matrix outside the feasible body,
size caps), 3 for a clean "not fixed" verdict from verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .classify import classify_elliptope_fixed_point, classify_empirical
from .domains import (
    BallDomain,
    DomainError,
    EllipsoidDomain,
    curvature_classify_2d,
    load_domain,
)
from .elliptope import (
    ElliptopeDomain,
    ElliptopeError,
    OracleConfig,
    analyze_fixed_point,
    enumerate_vertices,
    fixed_point_certificate,
    is_in_elliptope,
    l3_census,
    read_matrix_text,
    sign_kernel_census,
)
from .engine import InfeasibleStartError, IterationConfig, iterate
from .maxcut import (
    BRUTE_FORCE_CAP,
    GraphFormatError,
    load_graph,
    maxcut_pipeline,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NOT_FIXED = 3


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _fmt_vec(a) -> str:
    return " ".join(_fmt(v) for v in np.asarray(a).ravel())


def _matrix_lines(m):
    return [" ".join(_fmt(v) for v in row) for row in np.asarray(m)]


def _require_file(path):
    if not os.path.isfile(path):
        raise CliError(EXIT_PARSE, f"cannot read {path}: no such file")


def _read_matrix(path):
    _require_file(path)
    try:
        return read_matrix_text(path)
    except ElliptopeError as exc:
        raise CliError(EXIT_PARSE, str(exc))


def _oracle_config(args) -> OracleConfig:
    return OracleConfig(
        rank=getattr(args, "rank", None),
        restarts=getattr(args, "restarts", 5),
        seed=args.seed,
    )


def _parse_start_vector(text):
    if os.path.isfile(text):
        with open(text) as fh:
            text = fh.read()
    try:
        return np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError:
        raise CliError(EXIT_PARSE, f"could not parse start point {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_iterate(args) -> int:
    if args.domain == "elliptope":
        if args.n is None:
            raise CliError(EXIT_PARSE, "elliptope domain needs --n")
        domain = ElliptopeDomain(args.n, _oracle_config(args))
        # any symmetric matrix is a legal start: an exterior start acts as
        # the cost of a one-shot linear maximization
        x0 = _read_matrix(args.start)
        if x0.shape[0] != args.n:
            raise CliError(EXIT_INVALID,
                           f"{args.start}: matrix is {x0.shape[0]}x{x0.shape[0]}, "
                           f"--n is {args.n}")
        if args.validate_start and not is_in_elliptope(x0, diag_tol=1e-8):
            raise CliError(EXIT_INVALID,
                           f"{args.start}: matrix is not in the feasible body")
    else:
        _require_file(args.domain)
        try:
            domain = load_domain(args.domain)
        except DomainError as exc:
            raise CliError(EXIT_PARSE, str(exc))
        x0 = _parse_start_vector(args.start)
    cfg = IterationConfig(tol=args.tol, max_iter=args.max_iter,
                          record_trace=True,
                          validate_start=args.validate_start)
    try:
        traj = iterate(domain, x0, cfg)
    except InfeasibleStartError as exc:
        raise CliError(EXIT_INVALID, str(exc))
    except DomainError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    print(f"status: {traj.status}")
    print(f"iterations: {len(traj.step_norms)}")
    final = traj.final
    if final.ndim == 2:
        print("final matrix:")
        for line in _matrix_lines(final):
            print(line)
        cert = fixed_point_certificate(final)
        print(f"certificate d: {_fmt_vec(cert.d)}")
        print(f"certificate residual: {_fmt(cert.residual)}")
        print(f"verdict: {'fixed' if cert.is_fixed else 'not fixed'}")
    else:
        print(f"final: {_fmt_vec(final)}")
    print(f"norm_sq: {_fmt(traj.norms_sq[-1])}")
    print(f"residual: {_fmt(traj.residual)}")
    if args.trace:
        traj.export_csv(args.trace)
        print(f"trace: {args.trace}")
    return EXIT_OK


def cmd_verify(args) -> int:
    x = _read_matrix(args.matrix)
    if not is_in_elliptope(x, diag_tol=args.diag_tol):
        raise CliError(EXIT_INVALID,
                       f"{args.matrix}: matrix is not in the feasible body")
    report = analyze_fixed_point(x, tol=args.tol)
    print(f"n: {x.shape[0]}")
    print(f"d: {_fmt_vec(report.d)}")
    print(f"residual: {_fmt(report.residual)}")
    print(f"verdict: {'fixed' if report.is_fixed else 'not fixed'}")
    print(f"rank: {report.rank}")
    for k, comp in enumerate(report.components):
        gamma = report.gammas[k]
        gtxt = _fmt(gamma) if gamma is not None else "n/a"
        print(f"component {k}: {' '.join(str(i) for i in comp)}  gamma: {gtxt}")
    if args.json:
        payload = {
            "n": x.shape[0],
            "d": [float(v) for v in report.d],
            "residual": report.residual,
            "verdict": "fixed" if report.is_fixed else "not fixed",
            "rank": report.rank,
            "components": report.components,
            "gammas": report.gammas,
            "label": report.label,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if report.is_fixed else EXIT_NOT_FIXED


def _print_census_group(name, mats):
    print(f"group {name} ({len(mats)}):")
    for k, m in enumerate(mats):
        print(f"{name} {k}:")
        for line in _matrix_lines(m):
            print(line)


def cmd_census(args) -> int:
    n = args.n
    if n < 2:
        raise CliError(EXIT_INVALID, "census needs n >= 2")
    if n == 3:
        pts = l3_census()
        print("census n=3: complete (14 fixed points)")
        for family in ("vertex", "edge", "face"):
            _print_census_group(family,
                                [p.matrix for p in pts if p.family == family])
        return EXIT_OK
    if n > 16:
        raise CliError(EXIT_INVALID, "census enumeration is capped at n = 16")
    print(f"census n={n}: partial (the fixed-point set is infinite for n > 3; "
          "emitting vertices and sign-kernel points only)")
    vertices = enumerate_vertices(n)
    _print_census_group("vertex", vertices)
    kernels = sign_kernel_census(n)
    if n == 2:
        # for n = 2 the sign-kernel points coincide with the vertices
        kernels = [k for k in kernels
                   if not any(np.array_equal(k, v) for v in vertices)]
    _print_census_group("sign-kernel", kernels)
    return EXIT_OK


def _print_classification(result, prefix="empirical"):
    print(f"{prefix} label: {result.label}")
    print(f"eps: {_fmt(result.eps)}")
    print(f"samples: {result.samples}")
    print(f"returned: {result.returned}")
    print(f"escaped: {result.escaped}")
    print(f"undecided: {result.undecided}")
    if result.witness is not None:
        w = result.witness
        print(f"witness pair: {w.i} {w.j}")
        print(f"witness alphas: {_fmt_vec(w.alphas)}")
        print(f"witness norms_sq: {_fmt_vec(w.norms_sq)}")


def cmd_classify(args) -> int:
    if args.matrix:
        x = _read_matrix(args.matrix)
        if not is_in_elliptope(x, diag_tol=1e-8):
            raise CliError(EXIT_INVALID,
                           f"{args.matrix}: matrix is not in the feasible body")
        cert = fixed_point_certificate(x)
        if not cert.is_fixed:
            raise CliError(EXIT_INVALID,
                           f"{args.matrix}: not a fixed point "
                           f"(residual {_fmt(cert.residual)})")
        theorem = classify_elliptope_fixed_point(x)
        print(f"theorem label: {theorem.label}")
        if theorem.witness is not None:
            w = theorem.witness
            print(f"witness pair: {w.i} {w.j}")
            print(f"witness alphas: {_fmt_vec(w.alphas)}")
            print(f"witness norms_sq: {_fmt_vec(w.norms_sq)}")
        if args.samples > 0:
            domain = ElliptopeDomain(x.shape[0], _oracle_config(args))
            result = classify_empirical(domain, x, eps=args.eps,
                                        samples=args.samples, seed=args.seed,
                                        tol=args.tol, max_iter=args.max_iter)
            _print_classification(result)
        return EXIT_OK
    if not args.domain or not args.point:
        raise CliError(EXIT_PARSE, "classify needs --matrix, or --domain with --point")
    _require_file(args.domain)
    try:
        domain = load_domain(args.domain)
    except DomainError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    x = _parse_start_vector(args.point)
    fx = domain.maximize(x)
    residual = float(np.linalg.norm(np.ravel(fx - x)))
    if residual > 10.0 * args.tol:
        raise CliError(EXIT_INVALID,
                       f"point is not a fixed point (residual {_fmt(residual)})")
    print(f"fixed point: {_fmt_vec(x)}")
    print(f"fixed-point residual: {_fmt(residual)}")
    result = classify_empirical(domain, x, eps=args.eps, samples=args.samples,
                                seed=args.seed, tol=args.tol,
                                max_iter=args.max_iter)
    _print_classification(result)
    if isinstance(domain, (BallDomain, EllipsoidDomain)) and domain.dim == 2:
        k = domain.boundary_curvature(x)
        print(f"curvature: {_fmt(k)}")
        print(f"curvature label: {curvature_classify_2d(k, x)}")
    return EXIT_OK


_REPORT_FIELDS = ("relaxation_objective", "relaxed_cut", "oracle_residual",
                  "restart_spread", "cut_value", "baseline_cut",
                  "brute_force_cut")


def _report_dict(path, report):
    payload = {
        "graph": path,
        "n": report.n,
        "iterations": report.iterations,
        "escapes": report.escapes,
        "rounding_starts": report.rounding_starts,
        "terminal_status": report.terminal_status,
        "partition_source": report.partition_source,
        "partition": [int(s) for s in report.partition],
        "norms_sq": [float(v) for v in report.norms_sq],
    }
    for name in _REPORT_FIELDS:
        value = getattr(report, name)
        payload[name] = None if value is None else float(value)
    return payload


def cmd_maxcut(args) -> int:
    reports = []
    for path in args.graph:
        _require_file(path)
        try:
            g = load_graph(path)
        except GraphFormatError as exc:
            raise CliError(EXIT_PARSE, str(exc))
        if args.brute_force and g.n > BRUTE_FORCE_CAP:
            raise CliError(EXIT_INVALID,
                           f"{path}: brute force is capped at n = {BRUTE_FORCE_CAP}")
        report = maxcut_pipeline(
            g, _oracle_config(args),
            baseline_samples=args.baseline_samples if args.baseline == "gw" else 0,
            brute_force=args.brute_force,
            escape_alpha=args.escape_alpha,
            escape_retries=args.escape_retries,
        )
        reports.append((path, report))
        print(f"graph: {path}")
        print(f"n: {g.n}")
        print(f"edges: {len(g.edges)}")
        print(f"iterations: {report.iterations}")
        print(f"escapes: {report.escapes}")
        print(f"rounding_starts: {report.rounding_starts}")
        print(f"terminal_status: {report.terminal_status}")
        print(f"partition_source: {report.partition_source}")
        print(f"partition: {' '.join(str(int(s)) for s in report.partition)}")
        for name in _REPORT_FIELDS:
            value = getattr(report, name)
            if value is not None:
                print(f"{name}: {_fmt(value)}")
    if args.json:
        payload = [_report_dict(p, r) for p, r in reports]
        with open(args.json, "w") as fh:
            json.dump(payload if len(payload) > 1 else payload[0], fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    if args.csv:
        cols = ["graph", "n", "iterations", "escapes", "rounding_starts",
                "terminal_status", "partition_source"] + list(_REPORT_FIELDS) \
            + ["partition"]
        lines = [",".join(cols)]
        for path, r in reports:
            row = [path, str(r.n), str(r.iterations), str(r.escapes),
                   str(r.rounding_starts), r.terminal_status,
                   r.partition_source]
            for name in _REPORT_FIELDS:
                value = getattr(r, name)
                row.append("" if value is None else _fmt(value))
            row.append(" ".join(str(int(s)) for s in r.partition))
            lines.append(",".join(row))
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="base seed for every random choice (default 0)")

    parser = argparse.ArgumentParser(
        prog="iterlinopt",
        description="Fixed-point iteration of linear maximization over convex "
                    "bodies: run it, certify its fixed points, classify them, "
                    "and round max-cut relaxations with it.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", parents=[common],
                       help="run the iteration from a start point")
    p.add_argument("--domain", required=True,
                   help="domain config file, or the literal 'elliptope'")
    p.add_argument("--n", type=int, help="dimension for --domain elliptope")
    p.add_argument("--start", required=True,
                   help="start point: coordinates like '0,1.9', a coordinate "
                        "file, or a matrix file for the elliptope")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--trace", help="write the trajectory to this CSV file")
    p.add_argument("--validate-start", action="store_true",
                   help="reject starts outside the domain (exit 2)")
    p.add_argument("--rank", type=int, help="oracle rank budget (elliptope)")
    p.add_argument("--restarts", type=int, default=5)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("verify", parents=[common],
                       help="check the algebraic fixed-point certificate")
    p.add_argument("--matrix", required=True, help="matrix text file")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="certificate tolerance per unit dimension")
    p.add_argument("--diag-tol", type=float, default=1e-12)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", parents=[common],
                       help="list known fixed points of the feasible body")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("classify", parents=[common],
                       help="attractive/repelling diagnosis of a fixed point")
    p.add_argument("--matrix", help="matrix text file (elliptope fixed point)")
    p.add_argument("--domain", help="domain config file (with --point)")
    p.add_argument("--point", help="fixed point coordinates like '3,0'")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=32,
                   help="perturbation samples; 0 skips the empirical run")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--rank", type=int)
    p.add_argument("--restarts", type=int, default=5)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("maxcut", parents=[common],
                       help="relax, round and score a max-cut instance")
    p.add_argument("--graph", required=True, nargs="+",
                   help="edge-list file(s): lines 'u v [w]'")
    p.add_argument("--baseline", choices=["gw"],
                   help="also run hyperplane-rounding as a baseline")
    p.add_argument("--baseline-samples", type=int, default=64)
    p.add_argument("--brute-force", action="store_true",
                   help=f"also compute the exact optimum (n <= {BRUTE_FORCE_CAP})")
    p.add_argument("--rank", type=int)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--escape-alpha", type=float, default=0.25)
    p.add_argument("--escape-retries", type=int, default=5)
    p.add_argument("--json", help="write report(s) as JSON to this path")
    p.add_argument("--csv", help="write one CSV row per instance to this path")
    p.set_defaults(func=cmd_maxcut)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FileNotFoundError, PermissionError) as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
