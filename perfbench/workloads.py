"""The benchmark workloads: their inputs, operations and checks.

Each workload is a closed loop: one caller in one process runs the
operations of a seeded input set in order, starting the next operation
only after the previous one returned. A run makes passes over input sets:
pass p of maxcut draws a fresh set from (seed, p), fixedpoint cycles
through a few draws, and cli-cold repeats one set, so that repeated
commands can be compared. An operation is timed alone; its check runs
after it, untimed, and raises ``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import inputs

BASELINE_SAMPLES = 64
BRUTE_FORCE_MAX_N = 20
CLASSIFY_SAMPLES = 16
CLASSIFY_EPS = 0.1
CLI_TIMEOUT_S = 60
CLI_CLASSIFY_SAMPLES = 4


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict | None]  # returns quality sums, or None


@dataclass
class Workload:
    name: str
    ops: Callable[[int], list]  # the operations of pass p
    traced_ops: list | None = None  # what the traced run executes; ops(0) if None
    quality: Callable[[dict], dict] | None = None  # from summed check results


# ---------------------------------------------------------------------------
# maxcut: the sweep-bound pipeline at n = 20..60
# ---------------------------------------------------------------------------

def maxcut_instances(rng):
    """Named graphs. Complete graphs exercise the tied-start rounding, P60
    runs into the oracle's sweep cap, grids are the sparse case, and every
    n <= 20 instance is also solved by brute force. The short n = 20
    operations are spread between the long ones, so that their median
    samples the whole run rather than its first seconds.

    The seeded graphs are kept at n = 20: a seeded G(40, 0.3) or G(60, 0.3)
    takes anywhere from 1 to 15 s depending on the draw, which would make
    a run's time a measure of the seed. The n = 40 and 60 instances are the
    parameter-free families, whose cost does not depend on the seed.
    """
    return [
        ("gnp20-a", inputs.gnp(20, 0.3, rng)),
        ("grid4x5", inputs.toroidal_grid(4, 5)),
        ("K20", inputs.complete(20)),
        ("grid4x5pm-a", inputs.toroidal_grid(4, 5, rng)),
        ("gnp20-b", inputs.gnp(20, 0.3, rng)),
        ("P60", inputs.path(60)),
        ("P20", inputs.path(20)),
        ("grid4x5pm-b", inputs.toroidal_grid(4, 5, rng)),
        ("K40", inputs.complete(40)),
        ("gnp20-c", inputs.gnp(20, 0.3, rng)),
        ("grid6x10", inputs.toroidal_grid(6, 10)),
    ]


def _cut(edges, signs):
    return float(sum(w for u, v, w in edges if signs[u] != signs[v]))


def _maxcut_op(il, name, n, edges):
    g = il.WeightedGraph(n, list(edges))
    brute = n <= BRUTE_FORCE_MAX_N

    def run():
        return il.maxcut_pipeline(g, baseline_samples=BASELINE_SAMPLES,
                                  brute_force=brute)

    def check(rep):
        s = np.asarray(rep.partition)
        require(s.shape == (n,) and set(np.unique(s)) <= {-1, 1},
                f"{name}: partition is not a +-1 vector of length {n}")
        cut = _cut(edges, s)
        require(rep.cut_value == cut,
                f"{name}: reported cut {rep.cut_value} != recomputed {cut}")
        require(cut <= rep.relaxed_cut + 1e-9,
                f"{name}: cut {cut} exceeds the relaxed cut {rep.relaxed_cut}")
        total = sum(w for _, _, w in edges)
        q = {"cut": cut, "total": total, "relaxed": rep.relaxed_cut,
             "small_cut": 0.0, "optimum": 0.0}
        if brute:
            opt = rep.brute_force_cut
            require(cut <= opt + 1e-9, f"{name}: cut {cut} exceeds optimum {opt}")
            require(rep.relaxed_cut >= opt - 1e-9,
                    f"{name}: relaxed cut {rep.relaxed_cut} below optimum {opt}")
            q["small_cut"], q["optimum"] = cut, opt
        return q

    return Op(name, run, check)


def build_maxcut(il, seed, workdir):
    def ops(p):
        rng = np.random.default_rng([seed, 1, p])
        return [_maxcut_op(il, name, n, edges)
                for name, (n, edges) in maxcut_instances(rng)]
    return Workload("maxcut", ops, quality=maxcut_quality)


QUALITY_KEYS = ("cut_frac", "cut_vs_optimum", "relax_frac")


def maxcut_quality(sums):
    """Cut ratios from the summed check results; keys are QUALITY_KEYS."""
    return {
        "cut_frac": sums["cut"] / sums["total"],
        "cut_vs_optimum": sums["small_cut"] / sums["optimum"],
        "relax_frac": sums["relaxed"] / sums["total"],
    }


# ---------------------------------------------------------------------------
# fixedpoint: many warm-started oracle calls at tiny n
# ---------------------------------------------------------------------------

# Per pass: one draw of each kind, so that a pass stays short (about 3 s)
# and each operation's median is taken over several passes. Single
# operations here range over 10x with the draw (an oracle call running into
# its sweep cap, classify samples creeping along a continuum of fixed
# points).
ITERATE_STARTS = {5: 1, 8: 2, 12: 1}  # dimension: seeded starts per pass
ITERATE_RANK = 3
CENSUS_N = 8
CENSUS_SLICES = 4  # pass p certifies every fourth census point from p % 4
# Pass p uses draw p % DRAWS, so a run's inputs do not depend on how many
# passes the machine's speed lets it make; five passes fit a run easily.
DRAWS = 5
GOLDEN = (5 ** 0.5 - 1) / 2  # low-discrepancy step through the l4 family


def _iterate_op(il, n, x0, k):
    def run():
        return il.iterate(il.ElliptopeDomain(n), x0)

    def check(traj):
        mono = il.check_monotone(traj)
        require(mono.passed, f"iterate n={n} #{k}: not monotone at "
                             f"transition {mono.first_violation}")
        cert = il.fixed_point_certificate(traj.final)
        require(cert.is_fixed, f"iterate n={n} #{k}: final iterate fails the "
                               f"certificate (residual {cert.residual:.3g})")

    return Op(f"iterate-n{n}-{k}", run, check)


def _is_sign_matrix(x):
    return bool(np.all(np.abs(np.abs(x) - 1.0) == 0.0))


def _classify_op(il, kind, x, seed):
    n = x.shape[0]
    vertex = _is_sign_matrix(x)

    def run():
        return il.classify_empirical(il.ElliptopeDomain(n), x, eps=CLASSIFY_EPS,
                                     samples=CLASSIFY_SAMPLES, seed=seed)

    def check(res):
        theorem = il.classify_elliptope_fixed_point(x).label
        if vertex:
            require(res.label == "attractive" and theorem == "attractive",
                    f"classify {kind}: vertex labelled {res.label}/{theorem}")
        else:
            require(res.label != "attractive" and theorem == "not_attractive",
                    f"classify {kind}: non-vertex labelled {res.label}/{theorem}")

    return Op(f"classify-{kind}", run, check)


def _exact_batch_op(il, points):
    def run():
        return [(il.analyze_fixed_point(p), il.classify_elliptope_fixed_point(p))
                for p in points]

    def check(out):
        for k, (p, (rep, cls)) in enumerate(zip(points, out)):
            require(rep.is_fixed, f"census point {k}: certificate fails")
            want = "attractive" if _is_sign_matrix(p) else "not_attractive"
            require(rep.label == want and cls.label == want,
                    f"census point {k}: labelled {rep.label}/{cls.label}, "
                    f"expected {want}")

    return Op(f"exact-census{CENSUS_N}-slice", run, check)


def build_fixedpoint(il, seed, workdir):
    faces = [p.matrix for p in il.l3_census() if p.family == "face"]
    census = il.sign_kernel_census(CENSUS_N)
    # The classify cost depends on which face and which family member is
    # probed, so successive draws step through the faces and through
    # (-0.9, 0.9) from a seeded offset: every run covers them evenly.
    start = np.random.default_rng([seed, 2])
    face0, u0 = int(start.integers(len(faces))), float(start.random())

    def ops(p):
        q = p % DRAWS
        rng = np.random.default_rng([seed, 2, q])
        out = [_iterate_op(il, n, inputs.feasible_start(n, ITERATE_RANK, rng), k)
               for n, starts in ITERATE_STARTS.items() for k in range(starts)]
        sample_seed = int(rng.integers(2**31))
        s = inputs.sign_vector(5, rng)
        c = -0.9 + 1.8 * ((u0 + q * GOLDEN) % 1.0)
        out += [
            _classify_op(il, "l3face", faces[(face0 + q) % len(faces)],
                         sample_seed),
            _classify_op(il, "l4", il.l4_family(c), sample_seed),
            _classify_op(il, "vertex", np.outer(s, s), sample_seed),
            _exact_batch_op(il, census[p % CENSUS_SLICES::CENSUS_SLICES]),
        ]
        return out
    return Workload("fixedpoint", ops)


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command
# ---------------------------------------------------------------------------

def _cli_commands(il, seed, workdir):
    """(name, argv, expected exit code, marker expected in stdout)."""
    rng = np.random.default_rng([seed, 3])

    def path(name):
        return os.path.join(workdir, name)

    with open(path("k3.txt"), "w") as fh:
        fh.write("0 1\n0 2\n1 2\n")
    faces = [p.matrix for p in il.l3_census() if p.family == "face"]
    face = faces[int(rng.integers(len(faces)))]
    il.write_matrix_text(face, path("face.txt"))
    w = inputs.sign_vector(5, rng)
    w[int(rng.integers(5))] = 0.0
    il.write_matrix_text(il.sign_kernel_fixed_point(w), path("fixed.txt"))
    il.write_matrix_text(inputs.feasible_start(5, 3, rng), path("notfixed.txt"))
    il.write_matrix_text(inputs.feasible_start(4, 2, rng), path("start.txt"))
    v = inputs.sign_vector(4, rng)
    il.write_matrix_text(np.outer(v, v), path("vertex.txt"))
    return [
        ("maxcut-k3", ["maxcut", "--graph", path("k3.txt")], 0, "cut_value: 2\n"),
        ("verify-fixed", ["verify", "--matrix", path("fixed.txt")], 0,
         "verdict: fixed\n"),
        ("verify-notfixed", ["verify", "--matrix", path("notfixed.txt")], 3,
         "verdict: not fixed\n"),
        ("census-3", ["census", "--n", "3"], 0, "complete (14 fixed points)"),
        ("iterate-elliptope", ["iterate", "--domain", "elliptope", "--n", "4",
                               "--start", path("start.txt")], 0,
         "verdict: fixed\n"),
        ("classify-face", ["classify", "--matrix", path("face.txt"),
                           "--samples", "0"], 0,
         "theorem label: not_attractive\n"),
        ("classify-vertex", ["classify", "--matrix", path("vertex.txt"),
                             "--samples", str(CLI_CLASSIFY_SAMPLES)], 0,
         "empirical label: attractive\n"),
    ]


def _cli_check(name, code, marker, reference):
    def check(out):
        got_code, stdout = out
        require(got_code == code, f"{name}: exit {got_code}, expected {code}")
        require(marker in stdout, f"{name}: {marker!r} missing from stdout")
        if name in reference:
            require(stdout == reference[name],
                    f"{name}: stdout differs from the first run")
        else:
            reference[name] = stdout
    return check


def build_cli_cold(il, seed, workdir):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=src)
    reference = {}  # stdout of the first run of each command
    ops, traced = [], []
    for name, argv, code, marker in _cli_commands(il, seed, workdir):
        def fresh(argv=argv):
            p = subprocess.run([sys.executable, "-m", "iterlinopt", *argv],
                               env=env, cwd=workdir, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
            return p.returncode, p.stdout.decode()

        def in_process(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                got = il.cli.main(list(argv))
            return got, buf.getvalue()

        check = _cli_check(name, code, marker, reference)
        ops.append(Op(name, fresh, check))
        traced.append(Op(name, in_process, check))
    return Workload("cli-cold", lambda p: ops, traced_ops=traced)


BUILDERS = {
    "maxcut": build_maxcut,
    "fixedpoint": build_fixedpoint,
    "cli-cold": build_cli_cold,
}
