import functools
import gc
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import iterlinopt
from iterlinopt import (
    ElliptopeDomain,
    OracleConfig,
    WeightedGraph,
    classify_empirical,
    cli,
    elliptope_oracle,
    engine,
    l3_census,
    l4_family,
    load_domain,
    maxcut,
    read_matrix_text,
    relaxation_cost,
    sign_kernel_fixed_point,
    write_matrix_text,
)
from iterlinopt.cli import main
from iterlinopt.elliptope import random_gram
from iterlinopt.maxcut import GAP_TOL, HYPERPLANES


@pytest.fixture
def disk_cfg(tmp_path):
    p = tmp_path / "disk.cfg"
    p.write_text("kind=ball\ncenter=1,0\nradius=2\n")
    return str(p)


@pytest.fixture
def ellipse_cfg(tmp_path):
    p = tmp_path / "ellipse.cfg"
    p.write_text("kind=ellipsoid\nshape=4 0; 0 1\n")
    return str(p)


@pytest.fixture
def elliptope_cfg(tmp_path):
    p = tmp_path / "elliptope.cfg"
    p.write_text("kind=elliptope\nn=3\n")
    return str(p)


@pytest.fixture
def face_point(tmp_path):
    """An L3 face point, a fixed point of order 3, as a matrix file."""
    p = tmp_path / "face.txt"
    write_matrix_text([q for q in l3_census() if q.family == "face"][0].matrix, p)
    return str(p)


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text("0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    return str(p)


class TestIterate:
    def test_disk_run(self, disk_cfg, tmp_path, capsys):
        trace = str(tmp_path / "out.csv")
        code = main(["iterate", "--domain", disk_cfg, "--start", "0,1.9",
                     "--tol", "1e-10", "--trace", trace])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: converged" in out
        final = out.split("final: ")[1].split("\n")[0].split()
        assert abs(float(final[0]) - 3.0) < 1e-8
        assert abs(float(final[1])) < 1e-8
        with open(trace) as fh:
            header = fh.readline().strip()
        assert header == "iter,x0,x1,norm_sq,step_norm,residual"

    def test_trace_csv_round_trips(self, disk_cfg, tmp_path, capsys):
        from iterlinopt import BallDomain, iterate
        traj = iterate(BallDomain([1.0, 0.0], 2.0), [0.0, 1.9])
        path = tmp_path / "trace.csv"
        assert main(["iterate", "--domain", disk_cfg, "--start", "0,1.9",
                     "--trace", str(path)]) == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,x0,x1,norm_sq,step_norm,residual"
        assert len(lines) == len(traj.points) + 1
        for i, line in enumerate(lines[1:]):
            toks = line.split(",")
            assert int(toks[0]) == i
            assert float(toks[1]) == traj.points[i][0]
            assert float(toks[2]) == traj.points[i][1]
            assert float(toks[3]) == traj.norms_sq[i]
            # the step into the row's iterate, 0 for the first
            assert float(toks[4]) == (traj.step_norms[i - 1] if i else 0.0)
        # last residual column is the endpoint certificate
        assert float(lines[-1].split(",")[-1]) == traj.residual

    def test_elliptope_trace_has_a_column_per_entry(self, tmp_path, capsys):
        start, path = tmp_path / "x0.txt", tmp_path / "trace.csv"
        write_matrix_text(l4_family(0.25), start)
        assert main(["iterate", "--domain", "elliptope", "--n", "4",
                     "--start", str(start), "--trace", str(path)]) == 0
        iterations = int(capsys.readouterr().out.split("iterations: ")[1]
                         .split("\n")[0])
        lines = path.read_text().split("\n")
        assert lines[0].split(",")[16:] == ["x15", "norm_sq", "step_norm",
                                            "residual"]
        assert lines[-1] == "" and len(lines) == iterations + 3
        assert all(len(line.split(",")) == 20 for line in lines[1:-1])

    def test_huge_ellipse_converges_to_a_boundary_point(self, tmp_path,
                                                        capsys):
        # x^T A x overflows in double precision: the map scales x and A
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("kind=ellipsoid\nshape=1.5e308 0; 0 1.5e308\n")
        assert main(["iterate", "--domain", str(cfg), "--start", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "status: converged\n" in out
        assert "final: 8.6602540378443864e+153 8.6602540378443864e+153\n" in out
        assert "norm_sq: 1.5e+308\n" in out

    def test_ball_whose_squared_extent_overflows_gives_one_error_line(
            self, tmp_path, capsys):
        # a run in it would record inf squared norms, as would a start
        # whose squared norm overflows
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("kind=ball\ncenter=0,0\nradius=1e200\n")
        assert main(["iterate", "--domain", str(cfg), "--start", "1,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: domain reaches 1e+200 from the origin, "
                                "whose square overflows\n")

    def test_coordinate_file_takes_comments(self, disk_cfg, tmp_path, capsys):
        start = tmp_path / "start.txt"
        start.write_text("# start\n0,1.9  # in the disk\n\n")
        assert main(["iterate", "--domain", disk_cfg, "--start", str(start)]) == 0
        from_file = capsys.readouterr().out
        assert main(["iterate", "--domain", disk_cfg, "--start", "0,1.9"]) == 0
        assert from_file == capsys.readouterr().out

    def test_unparsable_coordinate_file_is_named(self, disk_cfg, tmp_path,
                                                 capsys):
        start = tmp_path / "start.txt"
        start.write_text("# start\n0,x\n")
        assert main(["iterate", "--domain", disk_cfg, "--start", str(start)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: could not parse start point {start}\n"

    @pytest.mark.parametrize("flags", [[], ["--validate-start"]],
                             ids=["plain", "validated"])
    @pytest.mark.parametrize("domain, start", [
        ("ELLIPSE", "1e300,1e300"),
        ("ELLIPSE", "1e200,1e200"),
        ("elliptope", "BIG"),
    ], ids=["ellipse-1e300", "ellipse-1e200", "elliptope-1e200"])
    def test_start_whose_squared_norm_overflows_exits_2(
            self, ellipse_cfg, tmp_path, capsys, domain, start, flags):
        big = tmp_path / "big.txt"
        big.write_text("2\n1e200 0\n0 1e200\n")
        argv = ["iterate", "--domain", ellipse_cfg if domain == "ELLIPSE" else
                domain, "--start", str(big) if start == "BIG" else start,
                *(["--n", "2"] if domain == "elliptope" else []), *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: starting point's squared norm overflows\n"

    def test_step_from_a_far_exterior_start_is_finite(self, tmp_path, capsys):
        # the step's square overflows, but the step is 2e154
        cfg = tmp_path / "far.cfg"
        cfg.write_text("kind=ball\ncenter=-1e154,0\nradius=1\n")
        trace = tmp_path / "far.csv"
        assert main(["iterate", "--domain", str(cfg), "--start", "1e154,0",
                     "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "final: -1e+154 0\n" in captured.out
        rows = trace.read_text().splitlines()
        assert rows[2].split(",")[4] == "2.0000000000000001e+154"  # iter 1
        assert "inf" not in trace.read_text()

    def test_elliptope_run_prints_certificate(self, tmp_path, capsys):
        start = tmp_path / "x0.txt"
        write_matrix_text(l4_family(0.25), start)
        code = main(["iterate", "--domain", "elliptope", "--n", "4",
                     "--start", str(start)])
        out = capsys.readouterr().out
        assert code == 0
        assert "final matrix:" in out
        assert "verdict: fixed" in out

    def test_iterates_are_kept_only_for_a_trace(self, disk_cfg, tmp_path,
                                                capsys, monkeypatch):
        runs = []
        original = engine.iterate

        def recorded(*args):
            runs.append(original(*args))
            return runs[-1]

        # the command imports iterate from its module when it runs
        monkeypatch.setattr(engine, "iterate", recorded)
        args = ["iterate", "--domain", disk_cfg, "--start", "0,1.9"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        trace = str(tmp_path / "out.csv")
        assert main(args + ["--trace", trace]) == 0
        traced = capsys.readouterr().out
        assert traced == plain + f"trace: {trace}\n"
        assert len(runs[0].points) == 2
        assert len(runs[1].points) == len(runs[1].norms_sq) > 2

    def test_missing_file_exits_1(self, capsys):
        code = main(["iterate", "--domain", "/nonexistent/disk.cfg",
                     "--start", "0,1"])
        assert code == 1
        assert "/nonexistent/disk.cfg" in capsys.readouterr().err

    def test_infeasible_start_exits_2_with_validation(self, disk_cfg, capsys):
        code = main(["iterate", "--domain", disk_cfg, "--start", "9,9",
                     "--validate-start"])
        assert code == 2

    def test_infeasible_matrix_start_exits_2_with_validation(self, tmp_path,
                                                             capsys):
        start = tmp_path / "x0.txt"
        write_matrix_text(2.0 * np.eye(3), start)
        argv = ["iterate", "--domain", "elliptope", "--n", "3",
                "--start", str(start)]
        assert main(argv + ["--validate-start"]) == 2
        assert capsys.readouterr().out == ""
        assert main(argv) == 0  # an exterior start is legal without the flag

    def test_elliptope_domain_file_takes_a_matrix_start(
            self, elliptope_cfg, face_point, capsys):
        code = main(["iterate", "--domain", elliptope_cfg, "--start", face_point])
        out = capsys.readouterr().out
        assert code == 0
        assert "final matrix:" in out
        assert "verdict: fixed" in out

    def test_elliptope_domain_file_start_of_another_order_exits_2(
            self, elliptope_cfg, tmp_path, capsys):
        start = tmp_path / "x0.txt"
        write_matrix_text(np.eye(2), start)
        code = main(["iterate", "--domain", elliptope_cfg, "--start", str(start)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "the domain has n = 3" in captured.err


class TestVerify:
    def test_family_member_fixed(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        write_matrix_text(l4_family(0.6), path)
        code = main(["verify", "--matrix", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "d: 2 2 2 2" in out
        assert "verdict: fixed" in out
        assert "rank: 2" in out

    def test_generic_matrix_not_fixed(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((4, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        path = tmp_path / "r.txt"
        write_matrix_text(v @ v.T, path)
        code = main(["verify", "--matrix", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "verdict: not fixed" in out

    def test_bad_diagonal_exits_2(self, tmp_path, capsys):
        x = np.eye(3)
        x[0, 0] = 0.9
        path = tmp_path / "d.txt"
        write_matrix_text(x, path)
        assert main(["verify", "--matrix", str(path)]) == 2

    def test_non_numeric_entry_exits_1(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        path.write_text("2\n1 x\nx 1\n")
        assert main(["verify", "--matrix", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: {path}: row 1 has a non-numeric entry"

    def test_json_report(self, tmp_path):
        path = tmp_path / "x.txt"
        write_matrix_text(np.ones((3, 3)), path)
        out = tmp_path / "rep.json"
        assert main(["verify", "--matrix", str(path), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "fixed"
        assert payload["label"] == "attractive"

    @pytest.mark.parametrize("w, code, components, gammas", [
        # a sign-kernel point on {0, 1, 3, 4} beside an isolated index 2
        ((1.0, -1.0, 0.0, 1.0, 1.0), 0, "0 1 3 4; 2", "1.3333333333333335 1"),
        (None, 3, "0 1 2 3", "n/a"),
        # not fixed with a constant diagonal 1.25: 1.25 * rank 2 is not 2
        ([[1.0, 0.5], [0.5, 1.0]], 3, "0 1", "n/a"),
    ], ids=["two-components", "not-fixed", "not-fixed-constant-diagonal"])
    def test_stdout_and_json_carry_one_record(self, tmp_path, capsys, w, code,
                                              components, gammas):
        if w is None:
            v = random_gram(4, 3, np.random.default_rng(1))
            x = v @ v.T
            np.fill_diagonal(x, 1.0)
        elif isinstance(w[0], list):
            x = np.array(w)
        else:
            x = sign_kernel_fixed_point(w)
        path = tmp_path / "x.txt"
        write_matrix_text(x, path)
        js = tmp_path / "rep.json"
        assert main(["verify", "--matrix", str(path), "--json", str(js)]) == code
        lines = capsys.readouterr().out.splitlines()
        order = ["n", "d", "residual", "verdict", "rank", "label",
                 "components", "gammas"]
        assert [ln.split(": ", 1)[0] for ln in lines] == order
        stdout = dict(ln.split(": ", 1) for ln in lines)
        payload = json.loads(js.read_text())
        assert set(payload) == set(order)
        assert stdout["components"] == components
        assert stdout["gammas"] == gammas
        assert stdout["label"] == payload["label"]
        assert [float(t) for t in stdout["d"].split()] == payload["d"]


class TestCensus:
    def test_n3_complete(self, capsys):
        assert main(["census", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "complete (14 fixed points)" in out
        assert "group vertex (4):" in out
        assert "group edge (6):" in out
        assert "group face (4):" in out

    def test_n4_partial(self, capsys):
        assert main(["census", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "partial" in out
        assert "group vertex (8):" in out
        assert "group sign-kernel (36):" in out

    def test_n1_error(self, capsys):
        assert main(["census", "--n", "1"]) == 2

    def test_cap_exits_2_before_enumerating(self, capsys):
        start = time.perf_counter()
        assert main(["census", "--n", "13"]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().out == ""


class TestClassify:
    def test_samples_far_from_their_point_warn_nothing(
            self, tmp_path, capsys):
        # a sample's distance from the point reaches 2e154
        cfg = tmp_path / "big.cfg"
        cfg.write_text("kind=ball\ncenter=0.3e154,0\nradius=1e154\n")
        assert main(["classify", "--domain", str(cfg), "--point",
                     "-0.7e154,0", "--samples", "2", "--eps", "1e150"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "empirical label: repelling\n" in captured.out

    def test_vertex_attractive(self, tmp_path, capsys):
        path = tmp_path / "j.txt"
        write_matrix_text(np.ones((3, 3)), path)
        code = main(["classify", "--matrix", str(path), "--samples", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theorem label: attractive" in out

    def test_face_point_witness(self, tmp_path, capsys):
        pts = l3_census()
        path = tmp_path / "p.txt"
        write_matrix_text([p for p in pts if p.family == "face"][0].matrix, path)
        code = main(["classify", "--matrix", str(path), "--samples", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theorem label: not_attractive" in out
        assert "witness pair:" in out

    def test_non_fixed_matrix_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((3, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        path = tmp_path / "nf.txt"
        write_matrix_text(v @ v.T, path)
        assert main(["classify", "--matrix", str(path)]) == 2

    @pytest.mark.parametrize("fixed", [True, False])
    def test_one_certificate_product_per_command(self, tmp_path, capsys,
                                                 monkeypatch, fixed):
        # the command leaves the certificate to the exact dichotomy, whose
        # ElliptopeError becomes exit 2 with the file name in front
        from iterlinopt import classify
        calls = []
        certificate = classify._certificate

        def counting_certificate(a, tol):
            calls.append(tol)
            return certificate(a, tol)

        monkeypatch.setattr(classify, "_certificate", counting_certificate)
        rng = np.random.default_rng(3)
        x = (sign_kernel_fixed_point((1.0, 1.0, 1.0)) if fixed
             else iterlinopt.gram_to_matrix(random_gram(4, 2, rng)))
        path = tmp_path / "x.txt"
        write_matrix_text(x, path)
        code = main(["classify", "--matrix", str(path), "--samples", "0"])
        captured = capsys.readouterr()
        assert len(calls) == 1
        if fixed:
            assert code == 0
        else:
            assert code == 2 and captured.out == ""
            assert captured.err.startswith(
                f"error: {path}: not a fixed point (residual ")

    def test_matrix_the_map_moves_exits_2_before_printing(self, tmp_path,
                                                         capsys):
        # passes the certificate (defect 1.6e-9, bound 3e-8), but the map
        # moves it by 2.4e-9, over FIXED_FACTOR * --tol
        x = [p for p in l3_census() if p.family == "face"][0].matrix.copy()
        x[0, 1] += 1e-9
        x[1, 0] += 1e-9
        path = tmp_path / "near.txt"
        write_matrix_text(x, path)
        argv = ["classify", "--matrix", str(path)]
        assert main(argv + ["--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: point is not a fixed point")
        assert len(captured.err.splitlines()) == 1
        assert main(argv + ["--samples", "0"]) == 0
        assert "theorem label: not_attractive" in capsys.readouterr().out

    def test_matrix_that_cannot_be_sampled_prints_nothing(self, tmp_path,
                                                          capsys):
        # [[1]] is the body's only point, so no nearby sample exists: the
        # run fails after the theorem verdict, which must not print first
        path = tmp_path / "one.txt"
        path.write_text("1\n1\n")
        assert main(["classify", "--matrix", str(path), "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: could not sample a nearby")
        assert len(captured.err.splitlines()) == 1

    def test_domain_point_that_cannot_be_sampled_prints_nothing(
            self, tmp_path, capsys):
        cfg = tmp_path / "e1.cfg"
        cfg.write_text("kind=elliptope\nn=1\n")
        point = tmp_path / "one.txt"
        point.write_text("1\n1\n")
        assert main(["classify", "--domain", str(cfg), "--point", str(point),
                     "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: could not sample a nearby")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flags, eps, samples, seed, label, returned", [
        (["--domain", "DISK", "--point", "-1,0", "--eps", "0.3",
          "--samples", "8", "--seed", "2"], 0.3, 8, 2, "repelling", 0),
        # the default --eps and --seed
        (["--matrix", "VERTEX", "--samples", "4"], 0.1, 4, 0, "attractive", 4),
    ], ids=["disk-near-point", "order-4-vertex"])
    def test_the_sampled_verdict_is_the_library_one(
            self, disk_cfg, tmp_path, capsys, flags, eps, samples, seed,
            label, returned):
        # the command checks the point and samples on its own path; at the
        # default --tol and --max-iter it prints classify_empirical's fields
        s = np.array([1.0, -1.0, -1.0, 1.0])
        vertex = tmp_path / "vertex.txt"
        write_matrix_text(np.outer(s, s), vertex)
        flags = [{"DISK": disk_cfg, "VERTEX": str(vertex)}.get(f, f)
                 for f in flags]
        assert main(["classify", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        if "--matrix" in flags:
            domain, x = ElliptopeDomain(4), read_matrix_text(vertex)
        else:
            domain, x = load_domain(disk_cfg), [-1.0, 0.0]
        r = classify_empirical(domain, x, eps, samples, seed)
        assert (r.label, r.returned) == (label, returned)
        assert lines[-6:] == [
            f"empirical label: {r.label}", f"eps: {r.eps:.17g}",
            f"samples: {r.samples}", f"returned: {r.returned}",
            f"escaped: {r.escaped}", f"undecided: {r.undecided}"]

    def test_ellipse_minor_axis_repelling(self, ellipse_cfg, capsys):
        code = main(["classify", "--domain", ellipse_cfg, "--point", "0,1",
                     "--samples", "12", "--eps", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "empirical label: repelling" in out
        assert "theorem label: repelling" in out

    def test_domain_point_is_mapped_once_before_sampling(
            self, ellipse_cfg, capsys, monkeypatch):
        # the residual check maps the point once; the one sample's
        # iteration makes the other 15 calls (17 in all when the empirical
        # run checked the point again)
        from iterlinopt.domains import EllipsoidDomain
        calls = []
        maximize = EllipsoidDomain.maximize

        def spy(self, x):
            calls.append(1)
            return maximize(self, x)

        monkeypatch.setattr(EllipsoidDomain, "maximize", spy)
        code = main(["classify", "--domain", ellipse_cfg, "--point", "2,0",
                     "--samples", "1"])
        assert code == 0
        assert "empirical label: attractive" in capsys.readouterr().out
        assert len(calls) == 16

    def test_domain_point_with_zero_samples_skips_the_empirical_run(
            self, disk_cfg, capsys):
        code = main(["classify", "--domain", disk_cfg, "--point", "3,0",
                     "--samples", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "empirical label" not in out and "samples:" not in out
        assert "theorem label: attractive" in out

    def test_ball_prints_the_theorem_before_the_samples(self, disk_cfg,
                                                         capsys):
        assert main(["classify", "--domain", disk_cfg, "--point", "3,0",
                     "--samples", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "fixed point", "fixed-point residual", "tangent eigenvalues",
            "theorem label", "empirical label", "eps", "samples", "returned",
            "escaped", "undecided"]
        assert lines[2:4] == ["tangent eigenvalues: 0.66666666666666663",
                              "theorem label: attractive"]

    def test_ellipsoid_middle_axis_is_not_attractive(self, tmp_path, capsys):
        cfg = tmp_path / "ellipsoid3.cfg"
        cfg.write_text("kind=ellipsoid\nshape=4 0 0; 0 2 0; 0 0 1\n")
        for point, mu, label in (
                ("0,1.4142135623730951,0", "0.49999999999999994 "
                 "1.9999999999999998", "not_attractive"),
                ("2,0,0", "0.25 0.5", "attractive"),
                ("0,0,1", "2 4", "repelling")):
            assert main(["classify", "--domain", str(cfg), "--point", point,
                         "--samples", "0"]) == 0
            out = capsys.readouterr().out
            assert out.endswith(f"tangent eigenvalues: {mu}\n"
                                f"theorem label: {label}\n")

    def test_one_dimensional_ball_has_no_tangent_eigenvalue(self, tmp_path,
                                                            capsys):
        # T is constant near each end of a segment: attractive, with no
        # eigenvalue line
        cfg = tmp_path / "segment.cfg"
        cfg.write_text("kind=ball\ncenter=1\nradius=2\n")
        assert main(["classify", "--domain", str(cfg), "--point", "3",
                     "--samples", "0"]) == 0
        assert capsys.readouterr().out == ("fixed point: 3\n"
                                           "fixed-point residual: 0\n"
                                           "theorem label: attractive\n")

    def test_centre_of_a_centred_ball_exits_1(self, tmp_path, capsys):
        # the map fixes the centre (its pick for x = 0), but no tangent
        # eigenvalue exists there
        cfg = tmp_path / "circle.cfg"
        cfg.write_text("kind=ball\ncenter=0,0\nradius=1\n")
        assert main(["classify", "--domain", str(cfg), "--point", "0,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tangent eigenvalues need a nonzero "
                                "fixed point\n")

    def test_non_fixed_point_exits_2(self, disk_cfg):
        assert main(["classify", "--domain", disk_cfg, "--point", "0,2"]) == 2

    def test_huge_non_fixed_point_gives_one_error_line(self, ellipse_cfg,
                                                       capsys):
        # |T(x) - x| is about 1e200: its square overflows, not the residual
        assert main(["classify", "--domain", ellipse_cfg, "--point", "1e200,0",
                     "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: point is not a fixed point (residual "
                                "9.9999999999999997e+199)\n")

    def test_ball_whose_squared_extent_overflows_gives_one_error_line(
            self, tmp_path, capsys):
        # sampled starts near (1e200, 0) would have inf squared norms
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("kind=ball\ncenter=0,0\nradius=1e200\n")
        assert main(["classify", "--domain", str(cfg),
                     "--point", "1e200,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: domain reaches 1e+200 from the origin, "
                                "whose square overflows\n")

    def test_coordinate_file_point_takes_comments(self, disk_cfg, tmp_path,
                                                  capsys):
        point = tmp_path / "point.txt"
        point.write_text("# the disk's far point\n3\n0 # y\n")
        argv = ["classify", "--domain", disk_cfg, "--samples", "2", "--point"]
        assert main(argv + [str(point)]) == 0
        from_file = capsys.readouterr().out
        assert main(argv + ["3,0"]) == 0
        assert from_file == capsys.readouterr().out

    def test_elliptope_domain_file_takes_a_matrix_point(
            self, elliptope_cfg, face_point, capsys):
        code = main(["classify", "--domain", elliptope_cfg, "--point",
                     face_point, "--samples", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("theorem label: not_attractive\nwitness pair: ")
        assert "empirical label: repelling" in out

    @pytest.mark.parametrize("point, samples, code", [
        ("face", "0", 0),
        ("face", "2", 0),
        ("vertex", "4", 0),
        ("not-fixed", "2", 2),
        ("infeasible", "2", 2),
    ])
    def test_an_elliptope_domain_file_classifies_as_matrix_does(
            self, elliptope_cfg, tmp_path, capsys, point, samples, code):
        v = random_gram(3, 2, np.random.default_rng(3))
        x = {"face": [p for p in l3_census() if p.family == "face"][0].matrix,
             "vertex": np.outer([1.0, -1.0, 1.0], [1.0, -1.0, 1.0]),
             "not-fixed": v @ v.T,
             "infeasible": 2.0 * np.eye(3)}[point]
        path = tmp_path / "x.txt"
        write_matrix_text(x, path)
        tail = ["--samples", samples]
        assert main(["classify", "--matrix", str(path)] + tail) == code
        by_matrix = capsys.readouterr()
        assert main(["classify", "--domain", elliptope_cfg,
                     "--point", str(path)] + tail) == code
        by_domain = capsys.readouterr()
        assert (by_domain.out, by_domain.err) == (by_matrix.out, by_matrix.err)
        assert (by_domain.out == "") == (code != 0)

    def test_elliptope_domain_file_point_of_another_order_exits_2(
            self, elliptope_cfg, tmp_path, capsys):
        point = tmp_path / "x.txt"
        write_matrix_text(np.ones((4, 4)), point)
        code = main(["classify", "--domain", elliptope_cfg, "--point", str(point)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "the domain has n = 3" in captured.err


class TestMaxcut:
    def test_triangle_brute_force(self, k3_file, capsys):
        code = main(["maxcut", "--graph", k3_file, "--brute-force",
                     "--baseline", "gw"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cut_value: 2" in out
        assert "brute_force_cut: 2" in out
        assert "baseline_cut: 2" in out
        assert "terminal_status: vertex" in out

    def test_baseline_draws_the_fixed_hyperplane_count(self, k3_file, capsys,
                                                       monkeypatch):
        calls = []
        draw = maxcut.gw_hyperplane_round

        def recorded(v, g, samples=HYPERPLANES, seed=0):
            calls.append((samples, seed))
            return draw(v, g, samples, seed)

        monkeypatch.setattr(maxcut, "gw_hyperplane_round", recorded)
        assert main(["maxcut", "--graph", k3_file, "--baseline", "gw",
                     "--seed", "3"]) == 0
        assert calls == [(HYPERPLANES, 3)]
        assert "baseline_cut: 2\n" in capsys.readouterr().out

    def test_complete_eight(self, tmp_path, capsys):
        p = tmp_path / "k8.txt"
        lines = [f"{u} {v} 1.0" for u in range(8) for v in range(u + 1, 8)]
        p.write_text("\n".join(lines) + "\n")
        code = main(["maxcut", "--graph", str(p), "--brute-force"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cut_value: 16" in out
        assert "brute_force_cut: 16" in out

    @pytest.mark.parametrize("weight, optimum", [("1", "36"), ("0.5", "18")])
    def test_torus_brute_force(self, tmp_path, capsys, weight, optimum):
        # a 4 x 5 torus: n = 20 spans several blocks, in float32 for unit
        # weights and float64 for 0.5; each 5-cycle leaves one edge uncut
        p = tmp_path / "torus.txt"
        p.write_text("".join(f"{u} {v} {weight}\n" for i in range(4)
                             for j in range(5) for u in (5 * i + j,)
                             for v in (5 * ((i + 1) % 4) + j, 5 * i + (j + 1) % 5)))
        assert main(["maxcut", "--graph", str(p), "--brute-force"]) == 0
        assert f"brute_force_cut: {optimum}\n" in capsys.readouterr().out

    def test_brute_force_cap_exits_2(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("\n".join(f"{k} {k + 1} 1.0" for k in range(29)) + "\n")
        assert main(["maxcut", "--graph", str(p), "--brute-force"]) == 2

    def test_a_capped_relaxation_warns_and_keeps_stdout(self, tmp_path,
                                                         capsys, monkeypatch):
        # one sweep certifies no gap on a G(20, 0.3): the relaxation stops
        # at its cap and says so in a warning, and stdout keeps its lines
        rng = np.random.default_rng(4)
        edges = [(u, v, 1.0) for u in range(20) for v in range(u + 1, 20)
                 if rng.random() < 0.3]
        p = tmp_path / "gnp20.txt"
        p.write_text("".join(f"{u} {v}\n" for u, v, _ in edges))
        assert main(["maxcut", "--graph", str(p)]) == 0
        out = capsys.readouterr().out
        fields = [line.split(":")[0] for line in out.splitlines()]
        monkeypatch.setattr(maxcut, "OracleConfig",
                            functools.partial(OracleConfig, max_sweeps=1))
        with pytest.warns(UserWarning, match="its 1-sweep cap"):
            assert maxcut.solve_relaxation(WeightedGraph(20, edges)).sweeps == 1
        with pytest.warns(UserWarning, match="its 1-sweep cap"):
            assert main(["maxcut", "--graph", str(p)]) == 0
        warned = capsys.readouterr().out
        assert [line.split(":")[0] for line in warned.splitlines()] == fields
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["maxcut", "--graph", str(p)]) == 0
        assert capsys.readouterr().out == warned

    def test_the_record_says_how_the_relaxation_stopped(self, k3_file,
                                                        capsys, monkeypatch):
        assert main(["maxcut", "--graph", k3_file]) == 0
        out = capsys.readouterr().out
        assert "relaxation_status: certified_gap\n" in out
        assert "relaxation_sweeps: 8\n" in out
        monkeypatch.setattr(maxcut, "OracleConfig",
                            functools.partial(OracleConfig, max_sweeps=1))
        with pytest.warns(UserWarning, match="its 1-sweep cap"):
            assert main(["maxcut", "--graph", k3_file]) == 0
        out = capsys.readouterr().out
        assert "relaxation_status: max_sweeps\n" in out
        assert "relaxation_sweeps: 1\n" in out

    def test_rank_one_reports_the_gap_it_could_not_close(self):
        # a rank-one factor of K3's relaxation sits at a vertex it cannot
        # leave: its objective is 2, its proven bound 5.36 (Diag(y) - C's
        # Cholesky test passes after the gap stop's delta doubled), and the
        # gap the maxcut record would print is (5.36 - 2) / 2
        k3 = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        res = elliptope_oracle(relaxation_cost(k3), OracleConfig(gap_tol=GAP_TOL),
                               warm_start=random_gram(3, 1, np.random.default_rng(0)))
        assert res.objective == 2.0
        assert res.upper_bound == 5.355442633755872
        assert (res.upper_bound - res.objective) / res.objective == 1.677721316877936

    def test_weights_just_under_the_sum_bound_print_finite_figures(
            self, tmp_path, capsys):
        # a triangle's figures stay below (n + 3) times the sum of |w| over
        # ordered pairs, 36 w, which the loader holds to the largest float
        w = float(np.finfo(float).max) / 37.0
        p = tmp_path / "k3.txt"
        p.write_text(f"0 1 {w!r}\n1 2 {w!r}\n0 2 {w!r}\n")
        assert main(["maxcut", "--graph", str(p), "--brute-force",
                     "--baseline", "gw"]) == 0
        record = dict(ln.split(": ", 1)
                      for ln in capsys.readouterr().out.splitlines())
        for name in ("relaxation_objective", "relaxed_cut", "relative_gap",
                     "rounded_cut", "cut_value", "baseline_cut",
                     "brute_force_cut"):
            assert np.isfinite(float(record[name])), name
        assert float(record["cut_value"]) == 2.0 * w

    def test_parse_error_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0 0 1.0\n")
        assert main(["maxcut", "--graph", str(p)]) == 1

    def test_one_record_for_stdout_csv_and_json(self, k3_file, tmp_path, capsys):
        csv = tmp_path / "k3.csv"
        js = tmp_path / "k3.json"
        code = main(["maxcut", "--graph", k3_file, "--brute-force",
                     "--baseline", "gw", "--csv", str(csv), "--json", str(js)])
        assert code == 0
        order = ["graph", "n", "edges", "iterations", "escapes",
                 "terminal_status", "partition_source", "partition",
                 "relaxation_objective", "relaxed_cut", "relative_gap",
                 "relaxation_status", "relaxation_sweeps", "rounded_cut",
                 "cut_value", "baseline_cut", "brute_force_cut"]
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(": ", 1)[0] for ln in lines] == order
        stdout = dict(ln.split(": ", 1) for ln in lines)
        header, row = csv.read_text().splitlines()
        assert header.split(",") == order
        assert dict(zip(order, row.split(","))) == stdout
        payload = json.loads(js.read_text())
        assert set(payload) == set(order) | {"norms_sq"}
        assert payload["edges"] == 3 and payload["partition"] == [1, -1, 1]

    def test_missing_values_are_empty_csv_cells_and_json_nulls(
            self, k3_file, tmp_path, capsys):
        csv = tmp_path / "k3.csv"
        js = tmp_path / "k3.json"
        assert main(["maxcut", "--graph", k3_file, "--csv", str(csv),
                     "--json", str(js)]) == 0
        out = capsys.readouterr().out
        assert "baseline_cut" not in out and "brute_force_cut" not in out
        assert csv.read_text().splitlines()[1].endswith(",,")
        payload = json.loads(js.read_text())
        assert payload["baseline_cut"] is None
        assert payload["brute_force_cut"] is None

    def test_csv_and_json(self, k3_file, tmp_path, capsys):
        csv = tmp_path / "batch.csv"
        js = tmp_path / "rep.json"
        code = main(["maxcut", "--graph", k3_file, "--brute-force",
                     "--csv", str(csv), "--json", str(js)])
        assert code == 0
        rows = csv.read_text().strip().split("\n")
        assert len(rows) == 2 and rows[0].startswith("graph,n,")
        payload = json.loads(js.read_text())
        assert payload["cut_value"] == 2.0


FACE_POINT = "3\n1 -0.5 -0.5\n-0.5 1 -0.5\n-0.5 -0.5 1\n"  # an L3 face point


@pytest.mark.parametrize("argv, content, code", [
    pytest.param(["maxcut", "--graph", "FILE"], "0 1 nan\n", 1, id="nan-weight"),
    pytest.param(["maxcut", "--graph", "FILE"],
                 "0 1 1e308\n1 2 1e308\n0 2 1e308\n", 1,
                 id="weight-sums-overflow"),
    pytest.param(["maxcut", "--graph", "FILE"], "# no edges\n", 1, id="no-edges"),
    # the relaxation's width, its restart count and the baseline's
    # hyperplane count are set by the graph, not by flags
    pytest.param(["maxcut", "--graph", "FILE", "--rank", "0"], "0 1\n", 2,
                 id="rank-0"),
    pytest.param(["maxcut", "--graph", "FILE", "--restarts", "-1"], "0 1\n", 2,
                 id="restarts-negative"),
    pytest.param(["maxcut", "--graph", "FILE", "--restarts", "0"], "0 1\n", 2,
                 id="restarts-0"),
    pytest.param(["maxcut", "--graph", "FILE", "--baseline-samples", "-1"],
                 "0 1\n", 2, id="baseline-samples-negative"),
    pytest.param(["maxcut", "--graph", "FILE", "--baseline-samples", "0"],
                 "0 1\n", 2, id="baseline-samples-0"),
    pytest.param(["maxcut", "--graph", "FILE"], "0 2048\n", 2,
                 id="graph-cap"),  # n = 2049, one over the cap
    pytest.param(["iterate", "--domain", "elliptope", "--n", "0", "--start",
                  "FILE"], "", 2, id="elliptope-n-0"),
    pytest.param(["census", "--n", "13"], "", 2, id="census-cap"),
    pytest.param(["verify", "--matrix", "FILE", "--seed", "1"], "", 2,
                 id="verify-seed"),
    pytest.param(["census", "--n", "3", "--seed", "1"], "", 2, id="census-seed"),
    pytest.param(["iterate", "--domain", "elliptope", "--n", "3", "--start",
                  "FILE", "--restarts", "2"], "", 2, id="iterate-restarts"),
    pytest.param(["classify", "--matrix", "FILE", "--restarts", "2"], "", 2,
                 id="classify-restarts"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,1"],
                 "kind=ball\ncenter=1,0\nradius=2\nrestarts=5\n", 1,
                 id="domain-restarts-key"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,1"],
                 "kind=ball\ncenter=1,0\nradius=2\nradious=2\n", 1,
                 id="domain-misspelt-key"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,1"],
                 "kind=elliptope\nn=3\nseed=-1\n", 1, id="domain-seed-key"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,1"],
                 "kind=elliptope\nn=3\nrank=2\n", 1, id="domain-rank-key"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,1",
                  "--max-iter", "0"], "", 2, id="iterate-max-iter-0"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,1", "--tol", "0"],
                 "", 2, id="iterate-tol-0"),
    pytest.param(["classify", "--matrix", "FILE", "--max-iter", "0"], "", 2,
                 id="classify-max-iter-0"),
    pytest.param(["classify", "--matrix", "FILE", "--tol", "0"], "", 2,
                 id="classify-tol-0"),
    pytest.param(["classify", "--matrix", "FILE", "--samples", "-2"], "", 2,
                 id="classify-samples-negative"),
    pytest.param(["classify", "--matrix", "FILE", "--eps", "0"], "", 2,
                 id="classify-eps-0"),
    pytest.param(["classify", "--matrix", "FILE", "--eps", "-1"], "", 2,
                 id="classify-eps-negative"),
    pytest.param(["verify", "--matrix", "FILE", "--tol", "-1"], FACE_POINT, 2,
                 id="verify-tol-negative"),
    pytest.param(["verify", "--matrix", "FILE", "--tol", "nan"], FACE_POINT, 2,
                 id="verify-tol-nan"),
    pytest.param(["verify", "--matrix", "FILE", "--tol", "inf"],
                 "2\n1 0.5\n0.5 1\n", 2, id="verify-tol-inf"),
    pytest.param(["verify", "--matrix", "FILE"], "0\n", 1, id="verify-dimension-0"),
    pytest.param(["verify", "--matrix", "FILE"], "-1\n", 1,
                 id="verify-dimension-negative"),
    # membership has one diagonal slack, so verify has no --diag-tol flag:
    # a value for it is refused as an unrecognized argument
    pytest.param(["verify", "--matrix", "FILE", "--diag-tol", "-1"], FACE_POINT,
                 2, id="verify-diag-tol-negative"),
    pytest.param(["verify", "--matrix", "FILE", "--diag-tol", "nan"], FACE_POINT,
                 2, id="verify-diag-tol-nan"),
    pytest.param(["maxcut", "--graph", "FILE", "--seed", "-1"],
                 "0 1\n1 2\n0 2\n", 2, id="maxcut-seed-negative"),
    pytest.param(["iterate", "--domain", "elliptope", "--n", "3", "--start",
                  "FILE", "--seed", "-1"], FACE_POINT, 2,
                 id="iterate-seed-negative"),
    pytest.param(["classify", "--matrix", "FILE", "--seed", "-1"], FACE_POINT, 2,
                 id="classify-seed-negative"),
    pytest.param(["iterate", "--domain", "elliptope", "--n", "3", "--start",
                  "FILE", "--rank", "1"], FACE_POINT, 2, id="iterate-rank"),
    pytest.param(["classify", "--matrix", "FILE", "--rank", "1"], FACE_POINT, 2,
                 id="classify-rank"),
    pytest.param(["classify", "--matrix", "FILE", "--domain", "FILE",
                  "--point", "FILE"], FACE_POINT, 1, id="classify-matrix-and-domain"),
    pytest.param(["iterate", "--domain", "FILE", "--n", "4", "--start", "0,1.9"],
                 "kind=ball\ncenter=1,0\nradius=2\n", 1, id="iterate-file-and-n"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,1"],
                 "kind=ball\ncenter=1,0\nradius=inf\n", 1, id="domain-ball-radius-inf"),
    pytest.param(["iterate", "--domain", "FILE", "--start", "0,0,1"],
                 "kind=cone\napex=0,0,2\nbase_center=0,0,0\nbase_radius=inf\n", 1,
                 id="domain-cone-radius-inf"),
])
def test_bad_input_gives_one_error_line(tmp_path, capsys, argv, content, code):
    f = tmp_path / "input.txt"
    f.write_text(content)
    assert main([str(f) if a == "FILE" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([ln for ln in captured.err.splitlines() if "error: " in ln]) == 1


def _membership_grid():
    """(id, matrix, member) around each edge of the body check: the face
    point with x_00 moved, J3 with one off-diagonal pair above 1, and a
    unit-diagonal matrix with a slightly negative eigenvalue."""
    for dev, member in ((-1e-10, True), (1e-10, True),
                        (-2e-8, False), (2e-8, False)):
        x = sign_kernel_fixed_point((1.0, 1.0, 1.0))
        x[0, 0] = 1.0 + dev
        yield f"face-x00-{dev:+g}", x, member
    for dev, member in ((1e-10, True), (1e-6, False)):
        x = np.ones((3, 3))
        x[0, 1] = x[1, 0] = 1.0 + dev
        yield f"j3-x01-{dev:+g}", x, member
    # the face point plus t (J - I) has the eigenvalue 2t on (1, 1, 1)
    for lam, member in ((-5e-10, True), (-5e-9, False)):
        x = sign_kernel_fixed_point((1.0, 1.0, 1.0)) + lam / 2.0 * (
            np.ones((3, 3)) - np.eye(3))
        yield f"lambda-min-{lam:g}", x, member


@pytest.mark.parametrize("x, member", [
    pytest.param(x, member, id=name) for name, x, member in _membership_grid()])
def test_commands_agree_on_membership(tmp_path, capsys, x, member):
    """verify, classify and iterate --validate-start apply one body check.
    A later "not a fixed point" stop means the body check passed."""
    path = tmp_path / "x.txt"
    write_matrix_text(x, path)
    runs = {
        "verify": (["verify", "--matrix", str(path)],
                   "matrix is not in the feasible body"),
        "classify": (["classify", "--matrix", str(path), "--samples", "0"],
                     "matrix is not in the feasible body"),
        "iterate": (["iterate", "--domain", "elliptope", "--n", "3",
                     "--start", str(path), "--validate-start"],
                    "starting point is not in the domain"),
    }
    passed = {}
    for name, (argv, rejection) in runs.items():
        code = main(argv)
        err = capsys.readouterr().err
        passed[name] = rejection not in err
        if passed[name]:
            assert code in (0, 3) or "not a fixed point" in err, (name, err)
        else:
            assert code == 2, name
    assert passed == dict.fromkeys(runs, member)


@pytest.mark.parametrize("argv", [
    ["iterate", "--domain", "DISK", "--start", "0,1.9", "--trace", "OUT"],
    ["verify", "--matrix", "FACE", "--json", "OUT"],
    ["maxcut", "--graph", "K3", "--json", "OUT"],
    ["maxcut", "--graph", "K3", "--csv", "OUT"],
], ids=["iterate-trace", "verify-json", "maxcut-json", "maxcut-csv"])
def test_an_output_file_that_cannot_be_written_prints_nothing(
        tmp_path, capsys, disk_cfg, face_point, k3_file, argv):
    out = str(tmp_path / "missing" / "out")
    files = {"DISK": disk_cfg, "FACE": face_point, "K3": k3_file, "OUT": out}
    assert main([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["maxcut", "--graph", "FILE"],
    ["verify", "--matrix", "FILE"],
    ["iterate", "--domain", "FILE", "--start", "0,1"],
], ids=["maxcut", "verify", "iterate"])
def test_file_not_in_utf8_gives_one_error_line(tmp_path, capsys, argv):
    f = tmp_path / "input.txt"
    f.write_bytes(b"\xff\xfe0 1\n")
    assert main([str(f) if a == "FILE" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {f}: not UTF-8 text")
    assert len(captured.err.splitlines()) == 1


def _checkout_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(iterlinopt.__file__))
    return {**os.environ, "PYTHONPATH": src}


def _python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], env=_checkout_env(),
                          capture_output=True, **kwargs)


NOT_FIXED = "3\n1 0.5 0\n0.5 1 0.5\n0 0.5 1\n"  # in the body, not fixed
OUTPUT_FILES = ("out.json", "out.csv", "trace.csv")


@pytest.mark.parametrize("argv, code", [
    (["census", "--n", "3"], 0),
    (["verify", "--matrix", "FACE", "--json", "out.json"], 0),
    (["verify", "--matrix", "NOT_FIXED", "--json", "out.json"], 3),
    (["verify", "--matrix", "DIM0"], 1),
    (["classify", "--matrix", "NOT_FIXED", "--samples", "0"], 2),
    (["iterate", "--domain", "DISK", "--start", "0,1.9", "--trace",
      "trace.csv"], 0),
    (["maxcut", "--graph", "K3", "--json", "out.json", "--csv", "out.csv"], 0),
    (["--version"], 0),
    (["census", "--n", "3", "--bogus"], 2),
], ids=["census", "verify-fixed", "verify-not-fixed", "verify-parse-error",
        "classify-invalid", "iterate-trace", "maxcut-json-csv", "version",
        "bad-flag"])
def test_process_entry_matches_main(tmp_path, capsys, monkeypatch, disk_cfg,
                                    face_point, k3_file, argv, code):
    """python -m iterlinopt exits with main's code and writes main's stdout,
    stderr and files byte for byte: freezing the collector once the output
    is written loses none of it. Each run writes its files into its own
    working directory."""
    (tmp_path / "not_fixed.txt").write_text(NOT_FIXED)
    (tmp_path / "dim0.txt").write_text("0\n")
    given = {"DISK": disk_cfg, "FACE": face_point, "K3": k3_file,
             "NOT_FIXED": str(tmp_path / "not_fixed.txt"),
             "DIM0": str(tmp_path / "dim0.txt")}
    argv = [given.get(a, a) for a in argv]
    for side in ("entry", "main"):
        (tmp_path / side).mkdir()
    p = _python("-m", "iterlinopt", *argv, cwd=tmp_path / "entry")
    monkeypatch.chdir(tmp_path / "main")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert p.returncode == code
    assert p.stdout == captured.out.encode()
    assert p.stderr == captured.err.encode()
    written = sorted(os.listdir(tmp_path / "entry"))
    assert written == sorted(os.listdir(tmp_path / "main"))
    assert written == sorted(a for a in argv if a in OUTPUT_FILES)
    for name in written:
        got = (tmp_path / "entry" / name).read_bytes()
        assert got == (tmp_path / "main" / name).read_bytes()
        if name.endswith(".json"):
            json.loads(got)


def test_process_entry_runs_atexit_handlers_after_freezing():
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
             "sys.argv = ['iterlinopt', 'census', '--n', '3']\n"
             "from iterlinopt.__main__ import run\n"
             "run()\n")
    p = _python("-c", probe, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("census n=3: complete")
    assert p.stdout.endswith("\nfrozen: True\n")


def test_profiling_the_process_entry_prints_its_table():
    # cProfile prints its table when the profiled code raises SystemExit,
    # which an os._exit would skip
    p = _python("-m", "cProfile", "-m", "iterlinopt", "census", "--n", "3",
                text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("census n=3: complete")
    assert "function calls" in p.stdout and "ncalls" in p.stdout


def test_main_leaves_the_collector_unfrozen(capsys):
    # the tests and the traced benchmark call main in-process, where a
    # frozen collector would keep their cyclic garbage
    assert main(["census", "--n", "3"]) == 0
    assert main(["verify", "--matrix", "missing.txt"]) == 1
    assert gc.get_freeze_count() == 0


def test_reader_closing_stdout_early_gives_one_error_line():
    # census --n 7 prints far more than a pipe holds, so the command is
    # still writing when the reader closes the pipe after one line
    argv = [sys.executable, "-m", "iterlinopt", "census", "--n", "7"]
    with subprocess.Popen(argv, env=_checkout_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"census n=7: partial")
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert err == "error: stdout closed before the output was written\n"


def test_package_import_leaves_scipy_out():
    # scipy serves only polytope membership, so a fresh interpreter that
    # imports the package and its CLI must not load it
    probe = "import sys, iterlinopt, iterlinopt.cli; print('scipy' in sys.modules)"
    out = _python("-c", probe, check=True, text=True).stdout
    assert out.strip() == "False"


# Each command runs in a fresh interpreter that compiles every module it
# imports, so a command must leave unloaded the modules it does not use
UNUSED_BY_ELLIPTOPE_COMMANDS = {"iterlinopt.engine", "iterlinopt.classify",
                                "iterlinopt.maxcut", "json"}


@pytest.mark.parametrize("argv, unloaded", [
    (["census", "--n", "3"], UNUSED_BY_ELLIPTOPE_COMMANDS),
    (["verify", "--matrix", "FACE"], UNUSED_BY_ELLIPTOPE_COMMANDS),
    (["--help"], UNUSED_BY_ELLIPTOPE_COMMANDS),
    (["--version"], UNUSED_BY_ELLIPTOPE_COMMANDS),
    (["iterate", "--domain", "elliptope", "--n", "3", "--start", "FACE"],
     {"iterlinopt.maxcut", "iterlinopt.classify"}),
    (["maxcut", "--graph", "K3"], {"iterlinopt.classify", "iterlinopt.engine"}),
    (["classify", "--matrix", "FACE", "--samples", "2"], {"iterlinopt.maxcut"}),
], ids=["census", "verify", "help", "version", "iterate", "maxcut", "classify"])
def test_a_command_loads_only_the_modules_it_uses(argv, unloaded, face_point,
                                                   k3_file):
    argv = [{"FACE": face_point, "K3": k3_file}.get(a, a) for a in argv]
    p = _python("-X", "importtime", "-m", "iterlinopt", *argv, text=True)
    assert p.returncode == 0, p.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in p.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"iterlinopt.cli", "iterlinopt.elliptope"} <= loaded
    assert sorted(loaded & (unloaded | {"scipy"})) == []


@pytest.mark.parametrize("argv", [
    ["iterate", "--domain", "DISK", "--start", "-0.5,0.2"],
    ["iterate", "--domain", "DISK", "--start", "-.5 .2", "--tol", "1e-9"],
    ["classify", "--domain", "DISK", "--point", "-1,0", "--samples", "0"],
    ["iterate", "--domain", "DISK", "--sta", "-0.5,0.2"],
    ["classify", "--domain", "DISK", "--poi", "-1,0", "--samples", "0"],
], ids=["iterate", "iterate-spaced", "classify", "iterate-abbreviated",
        "classify-abbreviated"])
def test_coordinates_that_start_with_a_minus_sign_are_a_value(
        disk_cfg, capsys, argv):
    """argparse reads '-0.5,0.2' after a flag as an option unless it is
    one number; the commands read it as the value, as in the form
    '--start=-0.5,0.2', also after an abbreviated flag."""
    argv = [disk_cfg if a == "DISK" else a for a in argv]
    flag = next(i for i, a in enumerate(argv) if a.startswith(("--st", "--po")))
    full = "--start" if argv[0] == "iterate" else "--point"
    joined = [*argv[:flag], f"{full}={argv[flag + 1]}", *argv[flag + 2:]]
    assert main(joined) == 0
    expected = capsys.readouterr().out
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == expected
    if argv[0] == "classify":  # the disk's near point
        assert "theorem label: repelling\n" in expected


def test_a_flag_still_takes_no_flag_for_its_value(disk_cfg, capsys):
    assert main(["iterate", "--domain", disk_cfg, "--start", "--tol",
                 "1e-9"]) == 2
    assert "argument --start: expected one argument" in capsys.readouterr().err
    # a prefix of --point that also names --seed and --samples
    assert main(["classify", "--domain", disk_cfg, "--s", "-1,0"]) == 2
    assert "ambiguous option: --s" in capsys.readouterr().err


class TestReproducibility:
    def test_identical_flags_identical_bytes(self, k3_file, capsys):
        main(["maxcut", "--graph", k3_file, "--brute-force", "--seed", "7"])
        first = capsys.readouterr().out
        main(["maxcut", "--graph", k3_file, "--brute-force", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_classify_reproducible(self, disk_cfg, capsys):
        args = ["classify", "--domain", disk_cfg, "--point", "3,0",
                "--samples", "8", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_seventeen_digit_output(self, k3_file, capsys):
        main(["maxcut", "--graph", k3_file])
        out = capsys.readouterr().out
        line = [ln for ln in out.split("\n") if ln.startswith("relaxed_cut:")][0]
        # the certified bound on K3's relaxation, whose value is 2.25, and
        # the gap of that bound over the relaxation's objective: the
        # tolerance the gap stop's factorization proved
        assert line == "relaxed_cut: 2.2500000749999862"
        assert "\nrelative_gap: 9.9999981480654768e-08\n" in out
