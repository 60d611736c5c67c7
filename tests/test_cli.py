import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import iterlinopt
from iterlinopt import cli, elliptope, l3_census, l4_family, write_matrix_text
from iterlinopt.cli import main


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
    p.write_text("kind=elliptope\nn=3\nseed=2\n")
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
        header = open(trace).readline().strip()
        assert header == "iter,x0,x1,norm_sq,step_norm,residual"

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

        def recorded(*args):
            runs.append(iterlinopt.iterate(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "iterate", recorded)
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

    def test_negative_domain_seed_exits_1(self, tmp_path, capsys):
        # from a zero-row start the map draws its factor from the file's seed
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("kind=elliptope\nn=3\nseed=-1\n")
        start = tmp_path / "zero.txt"
        write_matrix_text(np.diag([0.0, 1.0, 1.0]), start)
        code = main(["iterate", "--domain", str(cfg), "--start", str(start)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: seed must be nonnegative\n"


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

    def test_ellipse_minor_axis_repelling(self, ellipse_cfg, capsys):
        code = main(["classify", "--domain", ellipse_cfg, "--point", "0,1",
                     "--samples", "12", "--eps", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "empirical label: repelling" in out
        assert "curvature label: repelling" in out

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
        assert "curvature label: attractive" in out

    def test_non_fixed_point_exits_2(self, disk_cfg):
        assert main(["classify", "--domain", disk_cfg, "--point", "0,2"]) == 2

    def test_elliptope_domain_file_takes_a_matrix_point(
            self, elliptope_cfg, face_point, capsys):
        code = main(["classify", "--domain", elliptope_cfg, "--point",
                     face_point, "--samples", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fixed point: 1 " in out
        assert "empirical label: repelling" in out

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

    def test_complete_eight(self, tmp_path, capsys):
        p = tmp_path / "k8.txt"
        lines = [f"{u} {v} 1.0" for u in range(8) for v in range(u + 1, 8)]
        p.write_text("\n".join(lines) + "\n")
        code = main(["maxcut", "--graph", str(p), "--brute-force"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cut_value: 16" in out
        assert "brute_force_cut: 16" in out

    def test_brute_force_cap_exits_2(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("\n".join(f"{k} {k + 1} 1.0" for k in range(29)) + "\n")
        assert main(["maxcut", "--graph", str(p), "--brute-force"]) == 2

    def test_rank_one_reports_the_gap_it_could_not_close(self, k3_file, capsys):
        # a rank-one relaxation of K3 sits at a vertex it cannot leave: its
        # objective is 2, its proven bound 5
        assert main(["maxcut", "--graph", k3_file, "--rank", "1"]) == 0
        assert "relative_gap: 1.500000000000004\n" in capsys.readouterr().out

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
                 "rounding_starts", "terminal_status", "partition_source",
                 "partition", "relaxation_objective", "relaxed_cut",
                 "relative_gap", "restart_spread", "cut_value",
                 "baseline_cut", "brute_force_cut"]
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
    (["maxcut", "--graph", "FILE"], "0 1 nan\n", 1),
    (["maxcut", "--graph", "FILE"], "# no edges\n", 1),
    (["maxcut", "--graph", "FILE", "--rank", "0"], "0 1\n", 2),
    (["maxcut", "--graph", "FILE", "--restarts", "-1"], "0 1\n", 2),
    (["maxcut", "--graph", "FILE", "--restarts", "0"], "0 1\n", 2),
    (["maxcut", "--graph", "FILE"], "0 2048\n", 2),  # n = 2049, one over the cap
    (["iterate", "--domain", "elliptope", "--n", "0", "--start", "FILE"], "", 2),
    (["census", "--n", "13"], "", 2),
    (["verify", "--matrix", "FILE", "--seed", "1"], "", 2),
    (["census", "--n", "3", "--seed", "1"], "", 2),
    (["iterate", "--domain", "elliptope", "--n", "3", "--start", "FILE",
      "--restarts", "2"], "", 2),
    (["classify", "--matrix", "FILE", "--restarts", "2"], "", 2),
    (["iterate", "--domain", "FILE", "--start", "0,1"],
     "kind=ball\ncenter=1,0\nradius=2\nrestarts=5\n", 1),
    (["iterate", "--domain", "FILE", "--start", "0,1"],
     "kind=ball\ncenter=1,0\nradius=2\nradious=2\n", 1),
    (["iterate", "--domain", "FILE", "--start", "0,1", "--max-iter", "0"], "", 2),
    (["iterate", "--domain", "FILE", "--start", "0,1", "--tol", "0"], "", 2),
    (["classify", "--matrix", "FILE", "--max-iter", "0"], "", 2),
    (["classify", "--matrix", "FILE", "--tol", "0"], "", 2),
    (["classify", "--matrix", "FILE", "--samples", "-2"], "", 2),
    (["maxcut", "--graph", "FILE", "--baseline-samples", "-1"], "0 1\n", 2),
    (["maxcut", "--graph", "FILE", "--baseline-samples", "0"], "0 1\n", 2),
    (["classify", "--matrix", "FILE", "--eps", "0"], "", 2),
    (["classify", "--matrix", "FILE", "--eps", "-1"], "", 2),
    (["verify", "--matrix", "FILE", "--tol", "-1"], FACE_POINT, 2),
    (["verify", "--matrix", "FILE", "--tol", "nan"], FACE_POINT, 2),
    (["verify", "--matrix", "FILE", "--tol", "inf"], "2\n1 0.5\n0.5 1\n", 2),
    (["verify", "--matrix", "FILE", "--diag-tol", "-1"], FACE_POINT, 2),
    (["verify", "--matrix", "FILE", "--diag-tol", "nan"], FACE_POINT, 2),
    (["maxcut", "--graph", "FILE", "--seed", "-1"], "0 1\n1 2\n0 2\n", 2),
    (["iterate", "--domain", "elliptope", "--n", "3", "--start", "FILE",
      "--seed", "-1"], FACE_POINT, 2),
    (["classify", "--matrix", "FILE", "--seed", "-1"], FACE_POINT, 2),
], ids=["nan-weight", "no-edges", "rank-0", "restarts-negative", "restarts-0", "graph-cap",
        "elliptope-n-0", "census-cap", "verify-seed", "census-seed",
        "iterate-restarts", "classify-restarts", "domain-restarts-key",
        "domain-misspelt-key", "iterate-max-iter-0", "iterate-tol-0",
        "classify-max-iter-0", "classify-tol-0", "classify-samples-negative",
        "baseline-samples-negative", "baseline-samples-0", "classify-eps-0",
        "classify-eps-negative", "verify-tol-negative", "verify-tol-nan", "verify-tol-inf",
        "verify-diag-tol-negative", "verify-diag-tol-nan", "maxcut-seed-negative",
        "iterate-seed-negative", "classify-seed-negative"])
def test_bad_input_gives_one_error_line(tmp_path, capsys, argv, content, code):
    f = tmp_path / "input.txt"
    f.write_text(content)
    assert main([str(f) if a == "FILE" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([ln for ln in captured.err.splitlines() if "error: " in ln]) == 1


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


@pytest.mark.parametrize("argv, content", [
    (["maxcut", "--graph", "FILE", "--restarts", "1000000000"], "0 1\n1 2\n0 2\n"),
    (["maxcut", "--graph", "FILE", "--rank", "1000000"], "0 1\n1 2\n0 2\n"),
    (["maxcut", "--graph", "FILE", "--baseline-samples", "2000000"],
     "0 1\n1 2\n0 2\n"),
    (["iterate", "--domain", "elliptope", "--n", "3", "--rank", "2000000",
      "--start", "FILE"], FACE_POINT),
    (["classify", "--matrix", "FILE", "--rank", "2000000"], FACE_POINT),
], ids=["maxcut-restarts", "maxcut-rank", "maxcut-baseline-samples",
        "iterate-rank", "classify-rank"])
def test_size_caps_reject_before_allocating(tmp_path, capsys, monkeypatch,
                                            argv, content):
    # n * restarts * rank, samples * max(n, rank) and the elliptope's
    # n * rank are capped at GRAPH_CAP^2 entries; nothing may get as far
    # as allocating them
    def unreachable(*args, **kwargs):
        raise AssertionError("size cap not checked first")

    for owner, name in [(cli, "maxcut_pipeline"), (cli, "iterate"),
                        (cli, "classify_empirical"), (elliptope, "random_gram"),
                        (elliptope, "_oracle")]:
        monkeypatch.setattr(owner, name, unreachable)
    f = tmp_path / "input.txt"
    f.write_text(content)
    assert main([str(f) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "over the cap" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_elliptope_domain_file_rank_is_capped(tmp_path, capsys, face_point):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("kind=elliptope\nn=3\nrank=2000000\n")
    for argv in (["iterate", "--domain", str(cfg), "--start", face_point],
                 ["classify", "--domain", str(cfg), "--point", face_point]):
        assert main(argv) == 2
        assert "over the cap" in capsys.readouterr().err


def test_package_import_leaves_scipy_out():
    # scipy serves only polytope membership, so a fresh interpreter that
    # imports the package and its CLI must not load it
    src = os.path.dirname(os.path.dirname(iterlinopt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, iterlinopt, iterlinopt.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
        # the gap of that bound over the relaxation's objective
        assert line == "relaxed_cut: 2.2500000019423347"
        assert "\nrelative_gap: 2.5897795019602654e-09\n" in out
