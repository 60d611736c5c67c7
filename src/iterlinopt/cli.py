"""Command-line front end.

One binary with subcommands (iterate, verify, census, classify, maxcut).
All numeric output is printed with 17 significant digits and every run is
reproducible from its flags: the default seed is 0, never the clock.

Exit codes: 0 success (for verify, "fixed"), 1 file or parse problems,
2 validation failures (bad flag values, infeasible start, matrix outside the
feasible body, size caps), 3 for a clean "not fixed" verdict from verify.
``main`` is the one place where errors become exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .classify import (
    _sample_verdict,
    classify_elliptope_fixed_point,
    fixed_point_residual,
)
from .domains import (
    BallDomain,
    DomainError,
    EllipsoidDomain,
    _parse_vector,
    curvature_classify_2d,
    load_domain,
    read_lines,
)
from .elliptope import (
    ElliptopeDomain,
    ElliptopeError,
    analyze_fixed_point,
    enumerate_vertices,
    fixed_point_certificate,
    is_in_elliptope,
    l3_census,
    read_matrix_text,
    sign_kernel_census,
)
from .engine import FIXED_FACTOR, InfeasibleStartError, IterationConfig, iterate
from .maxcut import (
    BRUTE_FORCE_CAP,
    GRAPH_CAP,
    HYPERPLANES,
    GraphFormatError,
    load_graph,
    maxcut_pipeline,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NOT_FIXED = 3

# sign_kernel_census(n) holds (3^n - 1 - 2n) / 2 matrices in one list:
# 265,708 at n = 12, about 1.1 GiB of them at n = 13
CENSUS_CAP = 12

# The maxcut record, in stdout order. graph and edges come from the input,
# every other field from the RoundingReport.
MAXCUT_RECORD = ("graph", "n", "edges", "iterations", "escapes",
                 "terminal_status", "partition_source", "partition",
                 "relaxation_objective", "relaxed_cut", "relative_gap",
                 "rounded_cut", "cut_value", "baseline_cut", "brute_force_cut")


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


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_start_vector(text):
    if os.path.isfile(text):
        text = "".join(read_lines(text, lambda m: CliError(EXIT_PARSE, m)))
    try:
        return _parse_vector(text)
    except ValueError:
        raise CliError(EXIT_PARSE, f"could not parse start point {text!r}")


def _read_point(domain, text):
    """A start or point for ``domain``: a matrix file of its order for the
    elliptope, coordinates or a coordinate file for the other domains."""
    if not isinstance(domain, ElliptopeDomain):
        return _parse_start_vector(text)
    x = read_matrix_text(text)
    if x.shape[0] != domain.n:
        raise CliError(EXIT_INVALID, f"{text}: matrix is {x.shape[0]}x"
                                     f"{x.shape[0]}, the domain has n = {domain.n}")
    return x


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_iterate(args) -> int:
    if args.domain == "elliptope":
        if args.n is None:
            raise CliError(EXIT_PARSE, "elliptope domain needs --n")
        domain = ElliptopeDomain(args.n)
    else:
        domain = load_domain(args.domain)
    # any symmetric matrix is a legal elliptope start: an exterior start
    # acts as the cost of a one-shot linear maximization
    x0 = _read_point(domain, args.start)
    cfg = IterationConfig(tol=args.tol, max_iter=args.max_iter,
                          record_trace=args.trace is not None,
                          validate_start=args.validate_start)
    traj = iterate(domain, x0, cfg)
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
    x = read_matrix_text(args.matrix)
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
        _write_json(args.json, {
            "n": x.shape[0],
            "d": [float(v) for v in report.d],
            "residual": report.residual,
            "verdict": "fixed" if report.is_fixed else "not fixed",
            "rank": report.rank,
            "components": report.components,
            "gammas": report.gammas,
            "label": report.label,
        })
    return EXIT_OK if report.is_fixed else EXIT_NOT_FIXED


def _print_census_group(name, mats):
    print(f"group {name} ({len(mats)}):")
    for k, m in enumerate(mats):
        print(f"{name} {k}:")
        for line in _matrix_lines(m):
            print(line)


def cmd_census(args) -> int:
    n = args.n
    if n == 3:
        pts = l3_census()
        print("census n=3: complete (14 fixed points)")
        for family in ("vertex", "edge", "face"):
            _print_census_group(family,
                                [p.matrix for p in pts if p.family == family])
        return EXIT_OK
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


def _print_witness(w):
    if w is not None:
        print(f"witness pair: {w.i} {w.j}")
        print(f"witness alphas: {_fmt_vec(w.alphas)}")
        print(f"witness norms_sq: {_fmt_vec(w.norms_sq)}")


def _print_empirical(result):
    print(f"empirical label: {result.label}")
    print(f"eps: {_fmt(result.eps)}")
    print(f"samples: {result.samples}")
    print(f"returned: {result.returned}")
    print(f"escaped: {result.escaped}")
    print(f"undecided: {result.undecided}")
    _print_witness(result.witness)


def _fixed_residual(domain, x, tol):
    """How far the map moves x, which must be at most FIXED_FACTOR * tol:
    the check ``classify_empirical`` makes, done before anything prints."""
    residual = fixed_point_residual(domain, x)
    if residual > FIXED_FACTOR * tol:
        raise CliError(EXIT_INVALID,
                       f"point is not a fixed point (residual {_fmt(residual)})")
    return residual


def cmd_classify(args) -> int:
    if args.matrix:
        x = read_matrix_text(args.matrix)
        domain = ElliptopeDomain(x.shape[0])
        if not domain.contains(x):
            raise CliError(EXIT_INVALID,
                           f"{args.matrix}: matrix is not in the feasible body")
        cert = fixed_point_certificate(x)
        if not cert.is_fixed:
            raise CliError(EXIT_INVALID,
                           f"{args.matrix}: not a fixed point "
                           f"(residual {_fmt(cert.residual)})")
        if args.samples > 0:
            _fixed_residual(domain, x, args.tol)
        theorem = classify_elliptope_fixed_point(x)
        print(f"theorem label: {theorem.label}")
        _print_witness(theorem.witness)
        if args.samples > 0:
            _print_empirical(_sample_verdict(domain, x, args.eps, args.samples,
                                             args.seed, args.tol, args.max_iter))
        return EXIT_OK
    if not args.domain or not args.point:
        raise CliError(EXIT_PARSE, "classify needs --matrix, or --domain with --point")
    domain = load_domain(args.domain)
    x = _read_point(domain, args.point)
    residual = _fixed_residual(domain, x, args.tol)
    print(f"fixed point: {_fmt_vec(x)}")
    print(f"fixed-point residual: {_fmt(residual)}")
    if args.samples > 0:
        _print_empirical(_sample_verdict(domain, x, args.eps, args.samples,
                                         args.seed, args.tol, args.max_iter))
    if isinstance(domain, (BallDomain, EllipsoidDomain)) and domain.dim == 2:
        k = domain.boundary_curvature(x)
        print(f"curvature: {_fmt(k)}")
        print(f"curvature label: {curvature_classify_2d(k, x)}")
    return EXIT_OK


def _text(value) -> str:
    """A record value as stdout and --csv show it."""
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def cmd_maxcut(args) -> int:
    records = []
    for path in args.graph:
        g = load_graph(path)
        if g.n > GRAPH_CAP:
            raise CliError(EXIT_INVALID,
                           f"{path}: n = {g.n} is over the cap n = {GRAPH_CAP}")
        if args.brute_force and g.n > BRUTE_FORCE_CAP:
            raise CliError(EXIT_INVALID,
                           f"{path}: brute force is capped at n = {BRUTE_FORCE_CAP}")
        report = maxcut_pipeline(
            g, args.seed,
            baseline_samples=HYPERPLANES if args.baseline == "gw" else 0,
            brute_force=args.brute_force,
        )
        given = {"graph": path, "edges": len(g.edges),
                 "partition": [int(s) for s in report.partition]}
        record = {name: given[name] if name in given else getattr(report, name)
                  for name in MAXCUT_RECORD}
        for name, value in record.items():
            if value is not None:
                print(f"{name}: {_text(value)}")
        records.append((record, report.norms_sq))
    if args.json:
        payload = [{**rec, "norms_sq": [float(v) for v in norms]}
                   for rec, norms in records]
        _write_json(args.json, payload if len(payload) > 1 else payload[0])
    if args.csv:
        import csv
        with open(args.csv, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(MAXCUT_RECORD)
            out.writerows(["" if v is None else _text(v) for v in rec.values()]
                          for rec, _ in records)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _checked(convert, ok, bound):
    """argparse type: convert the flag's text, then require ok(value)."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


def _int_at_least(low):
    return _checked(int, lambda v: v >= low, f"at least {low}")


_positive = _checked(float, lambda v: 0.0 < v < np.inf, "positive and finite")


def build_parser() -> argparse.ArgumentParser:
    # flags shared by several subcommands, each declared once
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="base seed for every random choice (default 0)")
    iteration = argparse.ArgumentParser(add_help=False)
    iteration.add_argument("--tol", type=_positive, default=1e-10)
    iteration.add_argument("--max-iter", type=_int_at_least(1), default=10_000)

    parser = argparse.ArgumentParser(
        prog="iterlinopt",
        description="Fixed-point iteration of linear maximization over convex "
                    "bodies: run it, certify its fixed points, classify them, "
                    "and round max-cut relaxations with it.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", parents=[iteration],
                       help="run the iteration from a start point")
    p.add_argument("--domain", required=True,
                   help="domain config file, or the literal 'elliptope'")
    p.add_argument("--n", type=_int_at_least(1),
                   help="dimension for --domain elliptope")
    p.add_argument("--start", required=True,
                   help="start point: coordinates like '0,1.9', a coordinate "
                        "file, or a matrix file for the elliptope")
    p.add_argument("--trace", help="write the trajectory to this CSV file")
    p.add_argument("--validate-start", action="store_true",
                   help="reject starts outside the domain (exit 2)")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("verify", help="check the algebraic fixed-point certificate")
    p.add_argument("--matrix", required=True, help="matrix text file")
    p.add_argument("--tol", type=_positive, default=1e-8,
                   help="certificate tolerance per unit dimension")
    p.add_argument("--diag-tol", type=_positive, default=1e-12)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="list known fixed points of the feasible body")
    p.add_argument("--n", type=int, required=True,
                   choices=range(2, CENSUS_CAP + 1), metavar=f"2..{CENSUS_CAP}")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("classify", parents=[seeded, iteration],
                       help="attractive/repelling diagnosis of a fixed point")
    p.add_argument("--matrix", help="matrix text file (elliptope fixed point)")
    p.add_argument("--domain", help="domain config file (with --point)")
    p.add_argument("--point", help="fixed point coordinates like '3,0', a "
                                   "coordinate file, or a matrix file for "
                                   "an elliptope domain")
    p.add_argument("--eps", type=_positive, default=0.1)
    p.add_argument("--samples", type=_int_at_least(0), default=32,
                   help="perturbation samples; 0 skips the empirical run")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("maxcut", parents=[seeded],
                       help="relax, round and score a max-cut instance")
    p.add_argument("--graph", required=True, nargs="+",
                   help=f"edge-list file(s): lines 'u v [w]', n <= {GRAPH_CAP}")
    p.add_argument("--baseline", choices=["gw"],
                   help=f"also run hyperplane rounding ({HYPERPLANES} "
                        "hyperplanes) as a baseline")
    p.add_argument("--brute-force", action="store_true",
                   help=f"also compute the exact optimum (n <= {BRUTE_FORCE_CAP})")
    p.add_argument("--json", help="write report(s) as JSON to this path")
    p.add_argument("--csv", help="write one CSV row per instance to this path")
    p.set_defaults(func=cmd_maxcut)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version or a bad flag (exit 2)
        return exc.code
    try:
        return args.func(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except InfeasibleStartError as exc:
        code, message = EXIT_INVALID, str(exc)
    except (DomainError, ElliptopeError, GraphFormatError) as exc:
        code, message = EXIT_PARSE, str(exc)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        code, message = EXIT_PARSE, f"{exc.filename}: {exc.strerror}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
