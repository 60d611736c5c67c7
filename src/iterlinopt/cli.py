"""Command-line front end.

One binary with subcommands (iterate, verify, census, classify, maxcut).
All numeric output is printed with 17 significant digits and every run is
reproducible from its flags: the default seed is 0, never the clock.

Exit codes: 0 success (verify: "fixed"), 1 file, parse or closed-stdout
problems, 2 validation failures (bad flag values, infeasible start, matrix
outside the feasible body, size caps), 3 a clean "not fixed" from verify.
``main`` is the one place where errors become exit codes.

Each command runs in a fresh interpreter, which compiles every module it
imports, so this module imports at its top only what census and verify
use; a command imports the engine, classify and maxcut modules, and json,
when it runs, and the parser adds the flags of the named command alone.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
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
    CERT_TOL,
    VERIFY_DIAG_TOL,
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

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NOT_FIXED = 3

# sign_kernel_census(n) holds (3^n - 1 - 2n) / 2 matrices in one list:
# 265,708 at n = 12, about 1.1 GiB of them at n = 13
CENSUS_CAP = 12

# The maxcut record, in stdout order. graph and edges come from the input,
# every other field from the MaxcutReport.
MAXCUT_RECORD = ("graph", "n", "edges", "iterations", "escapes",
                 "terminal_status", "partition_source", "partition",
                 "relaxation_objective", "relaxed_cut", "relative_gap",
                 "relaxation_status", "relaxation_sweeps", "rounded_cut",
                 "cut_value", "baseline_cut", "brute_force_cut")


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _text(value) -> str:
    """A record value as stdout and --csv show it: a list of lists as its
    lists joined by '; ', a list as its items joined by spaces, a missing
    item as n/a and a float with 17 significant digits."""
    if value is None:
        return "n/a"
    if isinstance(value, list):
        sep = "; " if value and isinstance(value[0], list) else " "
        return sep.join(_text(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def _print_record(record):
    """Print a record as `name: value` lines, in its order. A value that
    was not computed (None) prints nothing, and a matrix prints `name:`
    over its rows."""
    for name, value in record.items():
        if isinstance(value, np.ndarray):
            print(f"{name}:")
            for row in value:
                print(_text(row.tolist()))
        elif value is not None:
            print(f"{name}: {_text(value)}")


def _write_json(path, payload):
    import json
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
# subcommands: each builds its record, writes its files, then prints, so
# that a run that fails leaves stdout empty
# ---------------------------------------------------------------------------

def cmd_iterate(args) -> int:
    from .engine import InfeasibleStartError, IterationConfig, iterate
    if args.domain == "elliptope":
        if args.n is None:
            raise CliError(EXIT_PARSE, "elliptope domain needs --n")
        domain = ElliptopeDomain(args.n)
    elif args.n is not None:
        raise CliError(EXIT_PARSE, "--n goes only with --domain elliptope")
    else:
        domain = load_domain(args.domain)
    # any symmetric matrix is a legal elliptope start: an exterior start
    # acts as the cost of a one-shot linear maximization
    x0 = _read_point(domain, args.start)
    cfg = IterationConfig(tol=args.tol, max_iter=args.max_iter,
                          record_trace=args.trace is not None,
                          validate_start=args.validate_start)
    try:
        traj = iterate(domain, x0, cfg)
    except InfeasibleStartError as exc:  # raised under --validate-start only
        raise CliError(EXIT_INVALID, str(exc))
    record = {"status": traj.status, "iterations": len(traj.step_norms)}
    final = traj.final
    if final.ndim == 2:
        cert = fixed_point_certificate(final)
        record.update({"final matrix": final,
                       "certificate d": cert.d.tolist(),
                       "certificate residual": cert.residual,
                       "verdict": "fixed" if cert.is_fixed else "not fixed"})
    else:
        record["final"] = final.tolist()
    record.update({"norm_sq": traj.norms_sq[-1], "residual": traj.residual,
                   "trace": args.trace})
    if args.trace:
        traj.export_csv(args.trace)
    _print_record(record)
    return EXIT_OK


def cmd_verify(args) -> int:
    x = read_matrix_text(args.matrix)
    if not is_in_elliptope(x, diag_tol=args.diag_tol):
        raise CliError(EXIT_INVALID,
                       f"{args.matrix}: matrix is not in the feasible body")
    report = analyze_fixed_point(x, tol=args.tol)
    record = {
        "n": x.shape[0],
        "d": report.d.tolist(),
        "residual": report.residual,
        "verdict": "fixed" if report.is_fixed else "not fixed",
        "rank": report.rank,
        "label": report.label,
        "components": report.components,
        "gammas": report.gammas,
    }
    if args.json:
        _write_json(args.json, record)
    _print_record(record)
    return EXIT_OK if report.is_fixed else EXIT_NOT_FIXED


def _print_census_group(name, mats):
    print(f"group {name} ({len(mats)}):")
    _print_record({f"{name} {k}": m for k, m in enumerate(mats)})


def cmd_census(args) -> int:
    n = args.n
    if n == 3:
        pts = l3_census()
        _print_record({"census n=3": "complete (14 fixed points)"})
        for family in ("vertex", "edge", "face"):
            _print_census_group(family,
                                [p.matrix for p in pts if p.family == family])
        return EXIT_OK
    _print_record({f"census n={n}": "partial (the fixed-point set is infinite "
                   "for n > 3; emitting vertices and sign-kernel points only)"})
    vertices = enumerate_vertices(n)
    _print_census_group("vertex", vertices)
    kernels = sign_kernel_census(n)
    if n == 2:
        # for n = 2 the sign-kernel points coincide with the vertices
        kernels = [k for k in kernels
                   if not any(np.array_equal(k, v) for v in vertices)]
    _print_census_group("sign-kernel", kernels)
    return EXIT_OK


def _fixed_residual(domain, x, tol):
    """How far the map moves x, which must be at most FIXED_FACTOR * tol:
    the check ``classify_empirical`` makes, done before anything prints."""
    from .engine import FIXED_FACTOR, fixed_point_residual
    residual = fixed_point_residual(domain, x)
    if residual > FIXED_FACTOR * tol:
        raise CliError(EXIT_INVALID,
                       f"point is not a fixed point (residual {_fmt(residual)})")
    return residual


def _theorem_record(domain, x, source, args):
    """The exact dichotomy at an elliptope point: x must lie in the body and
    pass the certificate, and, when --samples is above 0, the map must keep
    it."""
    from .classify import classify_elliptope_fixed_point
    if not domain.contains(x):
        raise CliError(EXIT_INVALID,
                       f"{source}: matrix is not in the feasible body")
    cert = fixed_point_certificate(x)
    if not cert.is_fixed:
        raise CliError(EXIT_INVALID, f"{source}: not a fixed point "
                                     f"(residual {_fmt(cert.residual)})")
    if args.samples > 0:
        _fixed_residual(domain, x, args.tol)
    theorem = classify_elliptope_fixed_point(x)
    record = {"theorem label": theorem.label}
    w = theorem.witness
    if w is not None:
        record.update({"witness pair": [w.i, w.j], "witness alphas": w.alphas,
                       "witness norms_sq": w.norms_sq})
    return record


def cmd_classify(args) -> int:
    # --matrix X names the elliptope of X's order and the point X
    if args.matrix and not (args.domain or args.point):
        source = args.matrix
        x = read_matrix_text(source)
        domain = ElliptopeDomain(x.shape[0])
    elif args.domain and args.point and not args.matrix:
        source = args.point
        domain = load_domain(args.domain)
        x = _read_point(domain, source)
    else:
        raise CliError(EXIT_PARSE, "classify takes --matrix or --domain with --point")
    if isinstance(domain, ElliptopeDomain):
        record = _theorem_record(domain, x, source, args)
    else:
        record = {"fixed point": x.tolist(),
                  "fixed-point residual": _fixed_residual(domain, x, args.tol)}
    if args.samples > 0:
        from .classify import _sample_verdict
        sampled = _sample_verdict(domain, x, args.eps, args.samples, args.seed,
                                  args.tol, args.max_iter)
        record.update({"empirical label": sampled.label, "eps": sampled.eps,
                       "samples": sampled.samples,
                       "returned": sampled.returned,
                       "escaped": sampled.escaped,
                       "undecided": sampled.undecided})
    if isinstance(domain, (BallDomain, EllipsoidDomain)) and domain.dim == 2:
        k = domain.boundary_curvature(x)
        record.update({"curvature": k,
                       "curvature label": curvature_classify_2d(k, x)})
    _print_record(record)
    return EXIT_OK


def cmd_maxcut(args) -> int:
    from .maxcut import (BRUTE_FORCE_CAP, GRAPH_CAP, HYPERPLANES,
                         GraphFormatError, load_graph, maxcut_pipeline)
    records = []
    for path in args.graph:
        try:
            g = load_graph(path)
        except GraphFormatError as exc:
            raise CliError(EXIT_PARSE, str(exc))
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
    for record, _ in records:
        _print_record(record)
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


def _seed_flag(p):
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="base seed for every random choice (default 0)")


def _iteration_flags(p):
    from .engine import IterationConfig
    p.add_argument("--tol", type=_positive, default=IterationConfig.tol)
    p.add_argument("--max-iter", type=_int_at_least(1),
                   default=IterationConfig.max_iter)


def _iterate_flags(p):
    _iteration_flags(p)
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


def _verify_flags(p):
    p.add_argument("--matrix", required=True, help="matrix text file")
    p.add_argument("--tol", type=_positive, default=CERT_TOL,
                   help="certificate tolerance per unit dimension")
    p.add_argument("--diag-tol", type=_positive, default=VERIFY_DIAG_TOL)
    p.add_argument("--json", help="also write the report as JSON")


def _census_flags(p):
    p.add_argument("--n", type=int, required=True,
                   choices=range(2, CENSUS_CAP + 1), metavar=f"2..{CENSUS_CAP}")


def _classify_flags(p):
    _seed_flag(p)
    _iteration_flags(p)
    p.add_argument("--matrix", help="matrix text file (elliptope fixed point)")
    p.add_argument("--domain", help="domain config file (with --point)")
    p.add_argument("--point", help="fixed point coordinates like '3,0', a "
                                   "coordinate file, or a matrix file for "
                                   "an elliptope domain")
    p.add_argument("--eps", type=_positive, default=0.1)
    p.add_argument("--samples", type=_int_at_least(0), default=32,
                   help="perturbation samples; 0 skips the empirical run")


def _maxcut_flags(p):
    from .maxcut import BRUTE_FORCE_CAP, GRAPH_CAP, HYPERPLANES
    _seed_flag(p)
    p.add_argument("--graph", required=True, nargs="+",
                   help=f"edge-list file(s): lines 'u v [w]', n <= {GRAPH_CAP}")
    p.add_argument("--baseline", choices=["gw"],
                   help=f"also run hyperplane rounding ({HYPERPLANES} "
                        "hyperplanes) as a baseline")
    p.add_argument("--brute-force", action="store_true",
                   help=f"also compute the exact optimum (n <= {BRUTE_FORCE_CAP})")
    p.add_argument("--json", help="write report(s) as JSON to this path")
    p.add_argument("--csv", help="write one CSV row per instance to this path")


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for the command line ``argv``: every command with its
    short help, and the flags of the one command that argv names, since
    the defaults of the others' flags live in modules this run need not
    import. The first argument that is not an option names the command,
    because the top-level options take no value."""
    parser = argparse.ArgumentParser(
        prog="iterlinopt",
        description="Fixed-point iteration of linear maximization over convex "
                    "bodies: run it, certify its fixed points, classify them, "
                    "and round max-cut relaxations with it.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for name, summary, add_flags, run in (
            ("iterate", "run the iteration from a start point",
             _iterate_flags, cmd_iterate),
            ("verify", "check the algebraic fixed-point certificate",
             _verify_flags, cmd_verify),
            ("census", "list known fixed points of the feasible body",
             _census_flags, cmd_census),
            ("classify", "attractive/repelling diagnosis of a fixed point",
             _classify_flags, cmd_classify),
            ("maxcut", "relax, round and score a max-cut instance",
             _maxcut_flags, cmd_maxcut)):
        p = sub.add_parser(name, help=summary)
        if name == named:
            add_flags(p)
        p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # --help, --version or a bad flag (exit 2)
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the rest of the output goes to devnull, so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, message = EXIT_PARSE, "stdout closed before the output was written"
    except CliError as exc:
        code, message = exc.code, str(exc)
    except (DomainError, ElliptopeError) as exc:
        code, message = EXIT_PARSE, str(exc)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        code, message = EXIT_PARSE, f"{exc.filename}: {exc.strerror}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
