import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

import graphsimplex
from graphsimplex import cli
from graphsimplex.cli import main

from conftest import UNRESOLVED_TREE, eigen_only
from oracles import random_graph, run_cli

PATH3 = "a b 1\nb c 1\n"
TRIANGLE = "a b 1\nb c 1\na c 1\n"


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "path3.el"
    p.write_text(PATH3)
    return str(p)


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.el"
    p.write_text(TRIANGLE)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixOutput:
    def test_laplacian_tsv(self, capsys, path3_file):
        code, out, err = run(capsys, ["laplacian", path3_file])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "a\tb\tc"
        assert lines[1] == "1\t-1\t0"
        assert lines[2] == "-1\t2\t-1"
        assert lines[3] == "0\t-1\t1"

    def test_pinv_tsv_values(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["pinv", triangle_file])
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        got = np.array([[float(v) for v in row] for row in rows])
        expected = np.eye(3) / 3 - np.full((3, 3), 1 / 9)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_resistance_json(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["resistance", triangle_file, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["a", "b", "c"]
        got = np.array(doc["rows"])
        assert got == pytest.approx((2 / 3) * (np.ones((3, 3)) - np.eye(3)), rel=1e-15)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(PATH3))
        code, out, _ = run(capsys, ["resistance", "-"])
        assert code == 0
        assert out.splitlines()[1] == "0\t1\t2"

    def test_deterministic_output(self, capsys, triangle_file):
        _, first, _ = run(capsys, ["embed", triangle_file])
        _, second, _ = run(capsys, ["embed", triangle_file])
        assert first == second


class TestAngles:
    def test_path_tsv(self, capsys, path3_file):
        code, out, _ = run(capsys, ["angles", path3_file])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        labels = {tuple(l.split("\t")[:2]): l.split("\t")[3] for l in lines}
        assert labels[("a", "b")] == "acute"
        assert labels[("b", "c")] == "acute"
        assert labels[("a", "c")] == "right"

    def test_json(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["angles", triangle_file, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert all(p["label"] == "acute" for p in doc["pairs"])


class TestReduce:
    def test_keep_pair(self, capsys, path3_file):
        code, out, _ = run(capsys, ["reduce", path3_file, "--keep", "a,c"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a\tc"
        assert lines[1] == "0.5\t-0.5"

    def test_unknown_label(self, capsys, path3_file):
        code, out, err = run(capsys, ["reduce", path3_file, "--keep", "a,zzz"])
        assert code == 2
        assert "zzz" in err


class TestChecks:
    def test_metric_check_passes(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["metric-check", triangle_file])
        assert code == 0
        assert out.startswith("0 violations")

    def test_metric_check_sqrt_json(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["metric-check", triangle_file, "--sqrt",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"mode": "sqrt", "violations": 0, "passed": True}

    def test_metric_check_names_the_worst_triple(self, capsys, monkeypatch, path3_file):
        report = graphsimplex.MetricReport(
            mode="plain", positive_offdiag=True, violations=3,
            worst_triple=(0, 2, 1), worst_slack=0.25, slack=1e-12)
        monkeypatch.setattr(graphsimplex.resistance, "check_metric",
                            lambda d, mode: report)
        code, out, err = run(capsys, ["metric-check", path3_file])
        assert (code, err) == (1, "")
        assert out == "3 violations (mode plain)\nworst: (a, c, b) deficit 0.25\n"

    @pytest.mark.parametrize("n", [200, 300, 320, 340, 380, 400])
    def test_metric_check_passes_on_unit_paths(self, capsys, monkeypatch, n):
        # every triple on a path is tight: resistances off by more than the
        # slack, as the spectral route's were at these sizes, read as a
        # violation of the triangle inequality
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "".join(f"{i} {i + 1} 1\n" for i in range(n - 1))))
        code, out, _ = run(capsys, ["metric-check", "-"])
        assert (code, out) == (0, "0 violations (mode plain)\n")

    def test_verify_identity(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["verify-identity", triangle_file])
        assert code == 0
        residuals = dict(line.split("\t") for line in out.splitlines())
        assert float(residuals["residual_ab"]) <= 1e-10
        assert float(residuals["residual_ba"]) <= 1e-10

    def test_verify_identity_impossible_tol(self, capsys, triangle_file):
        # a tolerance of zero can only be met by exact arithmetic
        code, _, _ = run(capsys, ["verify-identity", triangle_file, "--tol", "0"])
        assert code == 1


class TestScalars:
    def test_spanning_trees(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["spanning-trees", triangle_file])
        assert code == 0
        assert float(out) == pytest.approx(3.0, abs=1e-6)

    def test_volume(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["volume", triangle_file])
        assert code == 0
        # equilateral with squared side 2/3: area = sqrt(3)/4 * (2/3)
        assert float(out) == pytest.approx(np.sqrt(3) / 6, rel=1e-9)

    def test_volume_large_graph(self, capsys, monkeypatch, rng):
        # a volume, or one typed error line; never an uncaught exception
        g = random_graph(rng, n=200)
        doc = "".join(f"{g.labels[i]} {g.labels[j]} {w!r}\n"
                      for (i, j), w in zip(g.links, g.weights))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, ["volume", "-"])
        if code == 0:
            assert math.isfinite(float(out)) and float(out) > 0.0
        else:
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("graphsimplex: error:")

    def test_blocks_json(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["blocks", triangle_file, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["r"] == pytest.approx([1 / 3] * 3, abs=1e-12)
        assert doc["R"] == pytest.approx(np.sqrt(2) / 3, rel=1e-12)


class TestFailures:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["laplacian", "/nonexistent/file.el"])
        assert code == 2
        assert "error" in err

    def test_disconnected_graph(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1\nc d 1\n"))
        code, _, err = run(capsys, ["laplacian", "-"])
        assert code == 2
        assert "error" in err

    def test_bad_weight(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b -1\n"))
        code, _, err = run(capsys, ["resistance", "-"])
        assert code == 2

    def test_undecodable_input(self, capsys, tmp_path):
        path = tmp_path / "bad.el"
        path.write_bytes(b"a b 1\n\xff c 1\n")
        code, out, err = run(capsys, ["laplacian", str(path)])
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("graphsimplex: error:")


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(graphsimplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c",
         "import graphsimplex.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"



def test_a_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # 79,800 angle lines; the reader takes one and closes the pipe
    path = tmp_path / "path400.el"
    path.write_text("".join(f"{k} {k + 1} 1\n" for k in range(399)))
    src = os.path.dirname(os.path.dirname(graphsimplex.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphsimplex.cli", "angles", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline() == b"0\t1\t-0.707106781187\tacute\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


QUAD = 'a b 2\nb x"y 0.5\nx"y é 3\na é 1\nb é 0.25\n'

ANGLES_GOLDEN = {
    (PATH3, "tsv"):
        "a\tb\t-0.707106781187\tacute\na\tc\t0\tright\nb\tc\t-0.707106781187\tacute\n",
    (PATH3, "json"):
        '{"pairs": [{"i": "a", "j": "b", "cosine": -0.70710678118654746, "label": "acute"}, '
        '{"i": "a", "j": "c", "cosine": 0, "label": "right"}, '
        '{"i": "b", "j": "c", "cosine": -0.70710678118654746, "label": "acute"}]}\n',
    (TRIANGLE, "tsv"): "a\tb\t-0.5\tacute\na\tc\t-0.5\tacute\nb\tc\t-0.5\tacute\n",
    (TRIANGLE, "json"):
        '{"pairs": [{"i": "a", "j": "b", "cosine": -0.5, "label": "acute"}, '
        '{"i": "a", "j": "c", "cosine": -0.5, "label": "acute"}, '
        '{"i": "b", "j": "c", "cosine": -0.5, "label": "acute"}]}\n',
    (QUAD, "tsv"):
        'a\tb\t-0.696310623823\tacute\na\tx"y\t0\tright\n'
        'a\té\t-0.280056016806\tacute\nb\tx"y\t-0.161164592805\tacute\n'
        'b\té\t-0.0731272424127\tacute\nx"y\té\t-0.777844468263\tacute\n',
    (QUAD, "json"):
        '{"pairs": [{"i": "a", "j": "b", "cosine": -0.69631062382279141, "label": "acute"}, '
        '{"i": "a", "j": "x\\"y", "cosine": 0, "label": "right"}, '
        '{"i": "a", "j": "\\u00e9", "cosine": -0.28005601680560194, "label": "acute"}, '
        '{"i": "b", "j": "x\\"y", "cosine": -0.16116459280507606, "label": "acute"}, '
        '{"i": "b", "j": "\\u00e9", "cosine": -0.073127242412713067, "label": "acute"}, '
        '{"i": "x\\"y", "j": "\\u00e9", "cosine": -0.77784446826259734, "label": "acute"}]}\n',
}


@pytest.mark.parametrize("doc, fmt", sorted(ANGLES_GOLDEN))
def test_angles_golden_output(capsys, monkeypatch, doc, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, ["angles", "-", "--format", fmt])
    assert (code, err) == (0, "")
    assert out == ANGLES_GOLDEN[doc, fmt]


# Exact TSV output of every subcommand on the three fixtures; a refactor
# must keep these bytes. Each fixture's grounded factor is certified, so
# embed prints the factor's frame. They hold for one numpy/OpenBLAS build:
# another LAPACK may round the residuals and near-zero entries differently.
CLI_GOLDEN = {
    (PATH3, "laplacian"):
        "a\tb\tc\n"
        "1\t-1\t0\n"
        "-1\t2\t-1\n"
        "0\t-1\t1\n",
    (PATH3, "pinv"):
        "a\tb\tc\n"
        "0.555555555556\t-0.111111111111\t-0.444444444444\n"
        "-0.111111111111\t0.222222222222\t-0.111111111111\n"
        "-0.444444444444\t-0.111111111111\t0.555555555556\n",
    (PATH3, "resistance"):
        "a\tb\tc\n"
        "0\t1\t2\n"
        "1\t0\t1\n"
        "2\t1\t0\n",
    (PATH3, "embed"):
        "a\tb\tc\n"
        "0.666666666667\t-0.333333333333\t-0.333333333333\n"
        "0.333333333333\t0.333333333333\t-0.666666666667\n",
    (PATH3, "angles"):
        "a\tb\t-0.707106781187\tacute\n"
        "a\tc\t0\tright\n"
        "b\tc\t-0.707106781187\tacute\n",
    (PATH3, "reduce --keep a,c"):
        "a\tc\n"
        "0.5\t-0.5\n"
        "-0.5\t0.5\n",
    (PATH3, "metric-check"):
        "0 violations (mode plain)\n",
    (PATH3, "metric-check --sqrt"):
        "0 violations (mode sqrt)\n",
    (PATH3, "volume"):
        "0.5\n",
    (PATH3, "verify-identity"):
        "residual_ab\t1.66533453694e-16\n"
        "residual_ba\t1.66533453694e-16\n",
    (PATH3, "spanning-trees"):
        "1\n",
    (PATH3, "blocks"):
        "zeta\t0.555555555556\t0.222222222222\t0.555555555556\n"
        "r\t0.5\t-5.55111512313e-17\t0.5\n"
        "R\t0.707106781187\n",
    (TRIANGLE, "laplacian"):
        "a\tb\tc\n"
        "2\t-1\t-1\n"
        "-1\t2\t-1\n"
        "-1\t-1\t2\n",
    (TRIANGLE, "pinv"):
        "a\tb\tc\n"
        "0.222222222222\t-0.111111111111\t-0.111111111111\n"
        "-0.111111111111\t0.222222222222\t-0.111111111111\n"
        "-0.111111111111\t-0.111111111111\t0.222222222222\n",
    (TRIANGLE, "resistance"):
        "a\tb\tc\n"
        "0\t0.666666666667\t0.666666666667\n"
        "0.666666666667\t0\t0.666666666667\n"
        "0.666666666667\t0.666666666667\t0\n",
    (TRIANGLE, "embed"):
        "a\tb\tc\n"
        "0.471404520791\t-0.235702260396\t-0.235702260396\n"
        "-1.11022302463e-16\t0.408248290464\t-0.408248290464\n",
    (TRIANGLE, "angles"):
        "a\tb\t-0.5\tacute\n"
        "a\tc\t-0.5\tacute\n"
        "b\tc\t-0.5\tacute\n",
    (TRIANGLE, "reduce --keep b,c"):
        "b\tc\n"
        "1.5\t-1.5\n"
        "-1.5\t1.5\n",
    (TRIANGLE, "metric-check"):
        "0 violations (mode plain)\n",
    (TRIANGLE, "metric-check --sqrt"):
        "0 violations (mode sqrt)\n",
    (TRIANGLE, "volume"):
        "0.288675134595\n",
    (TRIANGLE, "verify-identity"):
        "residual_ab\t3.33066907388e-16\n"
        "residual_ba\t3.33066907388e-16\n",
    (TRIANGLE, "spanning-trees"):
        "3\n",
    (TRIANGLE, "blocks"):
        "zeta\t0.222222222222\t0.222222222222\t0.222222222222\n"
        "r\t0.333333333333\t0.333333333333\t0.333333333333\n"
        "R\t0.471404520791\n",
    (QUAD, "laplacian"):
        'a\tb\tx"y\té\n'
        "3\t-2\t0\t-1\n"
        "-2\t2.75\t-0.5\t-0.25\n"
        "0\t-0.5\t3.5\t-3\n"
        "-1\t-0.25\t-3\t4.25\n",
    (QUAD, "pinv"):
        'a\tb\tx"y\té\n'
        "0.239491150442\t0.0425884955752\t-0.165376106195\t-0.116703539823\n"
        "0.0425884955752\t0.261615044248\t-0.158738938053\t-0.14546460177\n"
        "-0.165376106195\t-0.158738938053\t0.252765486726\t0.0713495575221\n"
        "-0.116703539823\t-0.14546460177\t0.0713495575221\t0.190818584071\n",
    (QUAD, "resistance"):
        'a\tb\tx"y\té\n'
        "0\t0.41592920354\t0.823008849558\t0.663716814159\n"
        "0.41592920354\t0\t0.83185840708\t0.743362831858\n"
        "0.823008849558\t0.83185840708\t0\t0.300884955752\n"
        "0.663716814159\t0.743362831858\t0.300884955752\t0\n",
    (QUAD, "embed"):
        'a\tb\tx"y\té\n'
        "0.433012701892\t-0.144337567297\t-0.144337567297\t-0.144337567297\n"
        "0.210042012604\t0.49009802941\t-0.350070021007\t-0.350070021007\n"
        "-0.088732763868\t-0.0241998446913\t0.330731210781\t-0.217798602221\n",
    (QUAD, "angles"):
        "a\tb\t-0.696310623823\tacute\n"
        'a\tx"y\t0\tright\n'
        "a\té\t-0.280056016806\tacute\n"
        'b\tx"y\t-0.161164592805\tacute\n'
        "b\té\t-0.0731272424127\tacute\n"
        'x"y\té\t-0.777844468263\tacute\n',
    (QUAD, 'reduce --keep x"y,é'):
        'x"y\té\n'
        "3.32352941176\t-3.32352941176\n"
        "-3.32352941176\t3.32352941176\n",
    (QUAD, "metric-check"):
        "0 violations (mode plain)\n",
    (QUAD, "metric-check --sqrt"):
        "0 violations (mode sqrt)\n",
    (QUAD, "volume"):
        "0.0443460070158\n",
    (QUAD, "verify-identity"):
        "residual_ab\t4.57966997658e-16\n"
        "residual_ba\t4.57966997658e-16\n",
    (QUAD, "spanning-trees"):
        "14.125\n",
    (QUAD, "blocks"):
        "zeta\t0.239491150442\t0.261615044248\t0.252765486726\t0.190818584071\n"
        "r\t0.252212389381\t0.283185840708\t0.340707964602\t0.12389380531\n"
        "R\t0.490112911948\n",
}
# The same in JSON (17 significant digits), for every subcommand but
# angles, whose JSON ANGLES_GOLDEN pins.
CLI_GOLDEN_JSON = {
    (PATH3, "laplacian"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[1, -1, 0], '
        '[-1, 2, -1], '
        '[0, -1, 1]]}\n',
    (PATH3, "pinv"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[0.55555555555555569, -0.1111111111111111, -0.44444444444444448], '
        '[-0.1111111111111111, 0.22222222222222224, -0.11111111111111113], '
        '[-0.44444444444444448, -0.11111111111111113, 0.55555555555555547]]}\n',
    (PATH3, "resistance"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[0, 1, 2], '
        '[1, 0, 1], '
        '[2, 1, 0]]}\n',
    (PATH3, "embed"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[0.66666666666666674, -0.33333333333333331, -0.33333333333333331], '
        '[0.33333333333333337, 0.33333333333333337, -0.66666666666666663]]}\n',
    (PATH3, "reduce --keep a,c"):
        '{"labels": ["a", "c"], '
        '"rows": ['
        '[0.49999999999999989, -0.49999999999999989], '
        '[-0.49999999999999989, 0.49999999999999989]]}\n',
    (PATH3, "metric-check"):
        '{"mode": "plain", "violations": 0, "passed": true}\n',
    (PATH3, "metric-check --sqrt"):
        '{"mode": "sqrt", "violations": 0, "passed": true}\n',
    (PATH3, "volume"):
        '0.50000000000000011\n',
    (PATH3, "verify-identity"):
        '{"residual_ab": 1.6653345369377348e-16, "residual_ba": 1.6653345369377348e-16, '
        '"passed": true}\n',
    (PATH3, "spanning-trees"):
        '1\n',
    (PATH3, "blocks"):
        '{"zeta": [0.55555555555555569, 0.22222222222222224, 0.55555555555555547], '
        '"r": [0.5, -5.5511151231257827e-17, 0.49999999999999994], '
        '"R": 0.70710678118654746}\n',
    (TRIANGLE, "laplacian"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[2, -1, -1], '
        '[-1, 2, -1], '
        '[-1, -1, 2]]}\n',
    (TRIANGLE, "pinv"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[0.22222222222222221, -0.11111111111111113, -0.11111111111111105], '
        '[-0.11111111111111113, 0.22222222222222224, -0.11111111111111117], '
        '[-0.11111111111111105, -0.11111111111111117, 0.22222222222222224]]}\n',
    (TRIANGLE, "resistance"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[0, 0.66666666666666674, 0.66666666666666652], '
        '[0.66666666666666674, 0, 0.66666666666666685], '
        '[0.66666666666666652, 0.66666666666666685, 0]]}\n',
    (TRIANGLE, "embed"):
        '{"labels": ["a", "b", "c"], '
        '"rows": ['
        '[0.47140452079103168, -0.23570226039551581, -0.23570226039551581], '
        '[-1.1102230246251565e-16, 0.40824829046386307, -0.40824829046386307]]}\n',
    (TRIANGLE, "reduce --keep b,c"):
        '{"labels": ["b", "c"], '
        '"rows": ['
        '[1.5, -1.5], '
        '[-1.5, 1.5]]}\n',
    (TRIANGLE, "metric-check"):
        '{"mode": "plain", "violations": 0, "passed": true}\n',
    (TRIANGLE, "metric-check --sqrt"):
        '{"mode": "sqrt", "violations": 0, "passed": true}\n',
    (TRIANGLE, "volume"):
        '0.28867513459481292\n',
    (TRIANGLE, "verify-identity"):
        '{"residual_ab": 3.3306690738754696e-16, "residual_ba": 3.3306690738754696e-16, '
        '"passed": true}\n',
    (TRIANGLE, "spanning-trees"):
        '3\n',
    (TRIANGLE, "blocks"):
        '{"zeta": [0.22222222222222221, 0.22222222222222224, 0.22222222222222224], '
        '"r": [0.33333333333333326, 0.33333333333333331, 0.33333333333333337], '
        '"R": 0.47140452079103168}\n',
    (QUAD, "laplacian"):
        '{"labels": ["a", "b", "x\\"y", "\\u00e9"], '
        '"rows": ['
        '[3, -2, 0, -1], '
        '[-2, 2.75, -0.5, -0.25], '
        '[0, -0.5, 3.5, -3], '
        '[-1, -0.25, -3, 4.25]]}\n',
    (QUAD, "pinv"):
        '{"labels": ["a", "b", "x\\"y", "\\u00e9"], '
        '"rows": ['
        '[0.23949115044247801, 0.042588495575221319, -0.16537610619469034, '
        '-0.11670353982300896], '
        '[0.042588495575221319, 0.2616150442477877, -0.15873893805309738, '
        '-0.14546460176991161], '
        '[-0.16537610619469034, -0.15873893805309738, 0.25276548672566379, '
        '0.071349557522123991], '
        '[-0.11670353982300896, -0.14546460176991161, 0.071349557522123991, '
        '0.19081858407079658]]}\n',
    (QUAD, "resistance"):
        '{"labels": ["a", "b", "x\\"y", "\\u00e9"], '
        '"rows": ['
        '[0, 0.4159292035398231, 0.82300884955752251, 0.66371681415929251], '
        '[0.4159292035398231, 0, 0.8318584070796462, 0.74336283185840746], '
        '[0.82300884955752251, 0.8318584070796462, 0, 0.30088495575221236], '
        '[0.66371681415929251, 0.74336283185840746, 0.30088495575221236, 0]]}\n',
    (QUAD, "embed"):
        '{"labels": ["a", "b", "x\\"y", "\\u00e9"], '
        '"rows": ['
        '[0.43301270189221941, -0.14433756729740646, -0.14433756729740646, '
        '-0.14433756729740646], '
        '[0.21004201260420163, 0.49009802940980352, -0.35007002100700257, '
        '-0.35007002100700257], '
        '[-0.088732763868000497, -0.024199844691272815, 0.33073121078072931, '
        '-0.21779860222145597]]}\n',
    (QUAD, 'reduce --keep x"y,é'):
        '{"labels": ["x\\"y", "\\u00e9"], '
        '"rows": ['
        '[3.3235294117647061, -3.3235294117647061], '
        '[-3.3235294117647061, 3.3235294117647061]]}\n',
    (QUAD, "metric-check"):
        '{"mode": "plain", "violations": 0, "passed": true}\n',
    (QUAD, "metric-check --sqrt"):
        '{"mode": "sqrt", "violations": 0, "passed": true}\n',
    (QUAD, "volume"):
        '0.044346007015849266\n',
    (QUAD, "verify-identity"):
        '{"residual_ab": 4.5796699765787707e-16, "residual_ba": 4.5796699765787707e-16, '
        '"passed": true}\n',
    (QUAD, "spanning-trees"):
        '14.124999999999991\n',
    (QUAD, "blocks"):
        '{"zeta": [0.23949115044247801, 0.2616150442477877, 0.25276548672566379, '
        '0.19081858407079658], '
        '"r": [0.25221238938053103, 0.28318584070796454, 0.34070796460176977, '
        '0.12389380530973459], '
        '"R": 0.4901129119476732}\n',
}
GOLDEN_NAMES = {PATH3: "path3", TRIANGLE: "triangle", QUAD: "quad"}
GOLDEN_TABLES = {"tsv": CLI_GOLDEN, "json": CLI_GOLDEN_JSON}
GOLDEN_CASES = [(d, c, fmt) for fmt, table in GOLDEN_TABLES.items() for d, c in table]


@pytest.mark.parametrize("doc, command, fmt", GOLDEN_CASES,
                         ids=[f"{GOLDEN_NAMES[d]}-{c}" + ("-json" if fmt == "json" else "")
                              for d, c, fmt in GOLDEN_CASES])
def test_cli_golden_output(capsys, monkeypatch, doc, command, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, [*command.split(), "-", "--format", fmt])
    assert (code, err) == (0, "")
    assert out == GOLDEN_TABLES[fmt][doc, command]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_tol_only_where_it_is_read(capsys, path3_file, command):
    extra = ["--keep", "a,c"] if command == "reduce" else []
    argv = [command, path3_file, "--tol", "1e-6", *extra]
    if command in ("angles", "verify-identity"):
        assert run(capsys, argv)[0] == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# before: exit 0 with wrong angle labels, or exit 1 on a 4.4e-16 residual
@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("command", ["angles", "verify-identity"])
def test_tol_must_be_finite_and_nonnegative(capsys, path3_file, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, path3_file, f"--tol={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --tol: must be finite and >= 0" in captured.err


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("graphsimplex: error:")


class TestRangeErrors:
    def test_degree_overflow(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1e308\nb c 1e308\na c 1e308\n"))
        assert_one_error_line(*run(capsys, ["laplacian", "-"]))

    def test_volume_overflow(self, capsys, monkeypatch):
        doc = "a b 1e-250\nb c 1e-250\nc d 1e-250\na d 1e-250\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert_one_error_line(*run(capsys, ["volume", "-"]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_volume_underflow(self, capsys, monkeypatch):
        # the volume, about 8e-377, underflows to 0.0: a refusal, not "0"
        doc = "a b 1e250\nb c 1e250\nc d 1e250\na d 1e250\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, ["volume", "-"])
        assert_one_error_line(code, out, err)
        assert "volume leaves the float range" in err

    def test_squared_distance_overflow(self, capsys, monkeypatch):
        # the vertices (+-5e159) are finite, the squared edge length is not
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1e-320\n"))
        assert_one_error_line(*run(capsys, ["volume", "-"]))

    @pytest.mark.parametrize("command", ["resistance", "verify-identity"])
    def test_resistance_overflow(self, capsys, monkeypatch, command):
        # Q^dagger is finite, omega(a, c) = 2e308 is not; before: an inf with
        # a RuntimeWarning, and a false identity failure on nan residuals
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1e-308\nb c 1e-308\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [command, "-"])
        assert_one_error_line(code, out, err)
        assert "squared distance" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["spanning-trees", "embed", "volume"])
    def test_eigenvalue_overflow(self, capsys, monkeypatch, command):
        # finite degrees, but the largest eigenvalue (2.4e308) is not
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 8e307\nb c 8e307\n"))
        assert_one_error_line(*run(capsys, [command, "-"]))

    @pytest.mark.parametrize("command", ["embed", "volume"])
    def test_mixed_scale_eigenvalue_rounds_to_zero(self, capsys, monkeypatch, command):
        # a tree whose weights span ~500 decades: one nonzero eigenvalue of a
        # double-precision eigh would round to <= 0, and the factor declines
        doc = ("4 3 2.8e29\n5 2 8.9e-27\n4 0 5.1e185\n0 6 3.9e151\n"
               "2 3 1.9e206\n1 5 1.3e-300\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [command, "-"])
        assert_one_error_line(code, out, err)
        assert "too many decades" in err

    @pytest.mark.parametrize("command", ["pinv", "resistance", "embed", "blocks", "volume",
                                         "metric-check", "verify-identity", "spanning-trees"])
    def test_unresolved_spectrum(self, capsys, monkeypatch, command):
        # before: exit 0 with negative resistances and tree count, or exit 1
        # with false metric and identity failures
        monkeypatch.setattr("sys.stdin", io.StringIO(UNRESOLVED_TREE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [command, "-"])
        assert_one_error_line(code, out, err)
        assert "too many decades" in err

    @pytest.mark.parametrize("keep", ["n0,n1", "n1,n5"])
    def test_kron_reduction_overflow(self, keep):
        # the update X^T X overflows: with the overflow ignored, n1,n5 would
        # print a link of -4.40e276 where the exact one is -2.13e195
        doc = ("n0 n1 3.98881e+175\nn0 n2 5.57527e-184\nn2 n3 1.55358e+189\n"
               "n1 n4 7.78832e+304\nn4 n5 2.12652e+195\nn4 n5 9.80142e-185\n"
               "n2 n4 3.81158e+260\n")
        assert run_cli(["reduce", "--keep", keep], doc) == (2, "")

    @pytest.mark.parametrize("weight", ["1e200", "1e-200"])
    def test_tree_count_out_of_range(self, capsys, monkeypatch, weight):
        # tau = 3 w^2 is not a finite positive float
        monkeypatch.setattr("sys.stdin", io.StringIO(f"a b {weight}\nb c {weight}\n"))
        code, out, err = run(capsys, ["spanning-trees", "-"])
        assert_one_error_line(code, out, err)
        assert "spanning tree count" in err

    def test_memory_error(self, capsys, monkeypatch, path3_file):
        def exhausted(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr("graphsimplex.cli.build_laplacian", exhausted)
        code, out, err = run(capsys, ["pinv", path3_file])
        assert_one_error_line(code, out, err)
        assert "cannot allocate" in err


def test_volume_reads_the_one_factor(capsys, monkeypatch, eigh_calls, cholesky_calls, rng):
    # the embedding comes off the Laplacian's one grounded factor; with its
    # screen off, volume is refused, with no eigh
    g = random_graph(rng, n=6)
    doc = "".join(f"{g.labels[i]} {g.labels[j]} {w!r}\n"
                  for (i, j), w in zip(g.links, g.weights))
    runs = []
    for route in (nullcontext, eigen_only):
        with route():
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            runs.append(run(capsys, ["volume", "-"]))
    (code, out, _), refused = runs
    assert code == 0 and float(out) > 0.0
    assert_one_error_line(*refused)
    assert "too many decades" in refused[2]
    assert cholesky_calls == [(5, 5)] and eigh_calls == []
    with eigen_only():  # the Gram side's eigen route, as a reference
        ref = graphsimplex.pinv_kernel_u(graphsimplex.build_laplacian(g).matrix)
    want = graphsimplex.cayley_menger_volume(graphsimplex.linalg.squared_distances(ref))
    assert float(out) == pytest.approx(want, rel=1e-10)


def reference_tsv(labels, matrix):
    """The per-element writers the row templates replaced."""
    lines = ["\t".join(labels)]
    for row in np.atleast_2d(matrix):
        lines.append("\t".join(cli._fmt(v, cli.TSV_DIGITS) for v in row))
    return "\n".join(lines) + "\n"


def reference_json(labels, matrix):
    rows = ", ".join(
        "[" + ", ".join(cli._fmt(v, cli.JSON_DIGITS) for v in row) + "]"
        for row in np.atleast_2d(matrix)
    )
    return '{"labels": %s, "rows": [%s]}\n' % (json.dumps(list(labels)), rows)


def test_matrix_writers_match_per_element_format(rng):
    q = graphsimplex.build_laplacian(random_graph(rng, n=200))
    labels = [str(k) for k in range(q.n)]
    special = [0.0, -0.0, 5e-324, -5e-324, 1.8e308, -1.8e308,
               math.inf, -math.inf, math.nan, 1 / 3, 1e-5, 123456789012345678.0]
    cases = [(labels, m) for m in (q.matrix, q.pinv, graphsimplex.resistance_matrix(q),
                                   graphsimplex.embed_from_laplacian(q).vertices)]
    cases += [(["a", "b", "c", "d"], np.reshape(special, (3, 4))), (["x"], [[2.5]])]
    for names, m in cases:
        assert "".join(cli._matrix(names, m, "tsv")) == reference_tsv(names, m)
        assert "".join(cli._matrix(names, m, "json")) == reference_json(names, m)


def cycle(w):
    return "".join(f"{a} {b} {w}\n" for a, b in ("ab", "bc", "cd", "ad"))


# 4-cycles at three scales must give finite answers; the 8e307 path (largest
# eigenvalue beyond the float range) and the 1e-310 cycle (Q^dagger beyond
# it) may also exit 2 with one error line. Left out: volume and
# spanning-trees, whose log-space forms are still open (ROADMAP item 2),
# and verify-identity, whose residual carries units of the weights and
# fails at 1e-250 (ROADMAP item 5).
SWEEP_INPUTS = {"cycle 1e-250": (cycle("1e-250"), {0}), "cycle 1": (cycle("1"), {0}),
                "cycle 1e250": (cycle("1e250"), {0}),
                "path 8e307": ("a b 8e307\nb c 8e307\n", {0, 2}),
                "cycle 1e-310": (cycle("1e-310"), {0, 2}),
                "path 1e-308": ("a b 1e-308\nb c 1e-308\n", {0, 2})}
SWEEP_COMMANDS = ["laplacian", "pinv", "resistance", "embed", "angles", "reduce --keep a,c",
                  "metric-check", "metric-check --sqrt", "blocks"]


@pytest.mark.parametrize("command", SWEEP_COMMANDS)
@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_extreme_scales_without_warnings(name, command):
    doc, allowed = SWEEP_INPUTS[name]
    src = os.path.dirname(os.path.dirname(graphsimplex.__file__))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "graphsimplex.cli",
         *command.split(), "-"],
        input=doc, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode in allowed, result.stderr
    assert "Traceback" not in result.stderr
    if result.returncode == 0:
        assert result.stdout and result.stderr == ""
        assert re.search(r"\b(inf|nan)\b", result.stdout) is None, result.stdout
    else:
        assert_one_error_line(result.returncode, result.stdout, result.stderr)


# Seeded fuzz through main(argv): every subcommand must print a finite
# answer with exit 0 or exit 2 with one error line; any RuntimeWarning fails
# the test (pyproject turns it into an error). A soup document has one
# positive weight spelling, so its graphs are never mixed-scale; its other
# lines hold 1, 2 or 4 tokens, or start with '#', and so add no links, so
# every label is one of FUZZ_LABELS and "inf"/"nan" in stdout is a value.
FUZZ_LABELS = ["0", "1", "2", "3"]
FUZZ_WEIGHTS = ["1", "2.5", "1e308", "1e-320"]
FUZZ_NOISE = ["nan", "inf", "1e308", "1e-320", "#", "\xff"]
FUZZ_SPACE = [" ", "\t", "  ", " \t "]
FUZZ_CASES = [("soup", k) for k in range(24)] + [("bytes", k) for k in range(16)]


def soup_document(rng):
    weight = str(rng.choice(FUZZ_WEIGHTS))
    vocab = FUZZ_LABELS + FUZZ_NOISE + [weight]
    lines = []
    for _ in range(int(rng.integers(1, 9))):
        if rng.random() < 0.75:
            tokens = [str(t) for t in rng.choice(FUZZ_LABELS, size=2, replace=False)]
            tokens.append(weight if rng.random() < 0.9 else str(rng.choice(FUZZ_NOISE)))
        else:
            tokens = [str(t) for t in rng.choice(vocab, size=int(rng.choice([1, 2, 4])))]
            if rng.random() < 0.6:
                tokens[0] = "#" + tokens[0]
        spaces = rng.choice(FUZZ_SPACE, size=len(tokens) + 1)
        lines.append(str(spaces[0]) + "".join(t + str(s) for t, s in zip(tokens, spaces[1:])))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("kind, k", FUZZ_CASES)
def test_fuzz_inputs(capsys, tmp_path, kind, k):
    rng = np.random.default_rng([kind == "bytes", k])
    doc = soup_document(rng) if kind == "soup" else rng.bytes(int(rng.integers(1, 200)))
    path = tmp_path / "fuzz.el"
    path.write_bytes(doc)
    for command in cli._COMMANDS:
        extra = ["--keep", "0,1"] if command == "reduce" else []
        code, out, err = run(capsys, [command, str(path), *extra])
        if code == 0:
            assert out and err == "", (command, doc)
            assert re.search(r"\b(inf|nan)\b", out) is None, (command, doc, out)
        else:
            assert_one_error_line(code, out, err)


def test_angles_read_the_laplacian(capsys, monkeypatch, eigh_calls, rng):
    g = random_graph(rng, n=30)
    doc = "".join(f"{g.labels[i]} {g.labels[j]} {w!r}\n"
                  for (i, j), w in zip(g.links, g.weights))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, ["angles", "-"])
    assert code == 0 and err == "" and len(out.splitlines()) == 30 * 29 // 2
    assert eigh_calls == []


# the test_fuzz_inputs[soup-16] document, and a tree whose weights span ~500
# decades: scaled by a power of two, products of their small diagonal
# entries fall below the normal range
MIXED_SCALE_ANGLES = ["1 2 1\n1 2 1e308\n1 0 1\n0 3 1\n",
                      "4 3 2.8e29\n5 2 8.9e-27\n4 0 5.1e185\n0 6 3.9e151\n"
                      "2 3 1.9e206\n1 5 1.3e-300\n"]


@pytest.mark.parametrize("doc", MIXED_SCALE_ANGLES, ids=["soup-16", "tree-500-decades"])
def test_angles_across_the_float_range(capsys, monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["angles", "-", "--format", "json"])
    assert code == 0 and err == ""
    g = graphsimplex.parse_graph(doc)
    q = graphsimplex.build_laplacian(g).matrix.tolist()
    pairs = json.loads(out)["pairs"]
    assert len(pairs) == g.n * (g.n - 1) // 2
    for pair in pairs:
        i, j = g.index_of(pair["i"]), g.index_of(pair["j"])
        want = q[i][j] / (math.sqrt(q[i][i]) * math.sqrt(q[j][j]))
        assert pair["cosine"] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_angles_where_the_spectrum_is_unresolved(capsys, monkeypatch):
    # cos(pi - phi_ij) = q_ij / sqrt(q_ii q_jj): the tree's angles need no
    # spectrum, so they are answered where the spectral subcommands exit 2
    monkeypatch.setattr("sys.stdin", io.StringIO(UNRESOLVED_TREE))
    code, out, err = run(capsys, ["angles", "-"])
    assert code == 0 and err == ""
    q = graphsimplex.build_laplacian(graphsimplex.parse_graph(UNRESOLVED_TREE)).matrix
    for line in out.splitlines():
        a, b, cosine, label = line.split("\t")
        i, j = int(a), int(b)
        want = q[i, j] / math.sqrt(q[i, i] * q[j, j])
        assert float(cosine) == pytest.approx(want, rel=1e-11, abs=1e-300)
        # the sign dead-band is 1e-9 of the largest degree
        assert label == ("acute" if q[i, j] < -1e-9 * q.max() else "right")


class Recorder:
    """A stdout that keeps each write, to show how output was split."""

    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)

    def flush(self):
        pass


def edge_list(g):
    return "".join(f"{g.labels[i]} {g.labels[j]} {w!r}\n"
                   for (i, j), w in zip(g.links, g.weights))


def one_shot_angles(g, cls, fmt):
    """CLI angles output as one join over rows built from n(n-1)/2 index
    arrays, as it was written before it was streamed."""
    i, j = np.triu_indices(cls.n, 1)
    labels = [graphsimplex.simplex.ANGLE_LABELS[k] for k in cls.codes[i, j].tolist()]
    rows = zip(i.tolist(), j.tolist(), cls.cosines[i, j].tolist(), labels)
    if fmt == "json":
        names = [json.dumps(label) for label in g.labels]
        return '{"pairs": [%s]}\n' % ", ".join(
            '{"i": %s, "j": %s, "cosine": %s, "label": "%s"}'
            % (names[a], names[b], cli._fmt(c, cli.JSON_DIGITS), label)
            for a, b, c, label in rows)
    return "".join(f"{g.labels[a]}\t{g.labels[b]}\t{cli._fmt(c, cli.TSV_DIGITS)}\t{label}\n"
                   for a, b, c, label in rows)


def one_shot_matrix(labels, matrix, fmt):
    """The matrix writers before they were streamed: one string of all rows."""
    rows = np.atleast_2d(matrix).tolist()
    if fmt == "json":
        row = "[" + ", ".join([f"%.{cli.JSON_DIGITS}g"] * len(rows[0])) + "]"
        body = ", ".join(row % tuple(r) for r in rows)
        return '{"labels": %s, "rows": [%s]}\n' % (json.dumps(list(labels)), body)
    row = "\t".join([f"%.{cli.TSV_DIGITS}g"] * len(rows[0]))
    return "\n".join(["\t".join(labels)] + [row % tuple(r) for r in rows]) + "\n"


def first_difference(got: str, want: str):
    """The offset of the first character where two strings differ, or None;
    a plain == on megabyte strings makes pytest diff them for minutes."""
    if got == want:
        return None
    return next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)))


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_streamed_output_matches_one_shot_join(monkeypatch, tmp_path, fmt):
    g_in = random_graph(np.random.default_rng(300), n=300)
    path = tmp_path / "g300.el"
    path.write_text(edge_list(g_in))
    g = graphsimplex.parse_graph(path.read_text())
    q = graphsimplex.build_laplacian(g)
    expected = {
        "angles": one_shot_angles(g, graphsimplex.dihedral_angles(q), fmt),
        "pinv": one_shot_matrix(g.labels, q.pinv, fmt),
        "embed": one_shot_matrix(g.labels, graphsimplex.embed_from_laplacian(q).vertices, fmt),
    }
    for command, want in expected.items():
        out = Recorder()
        monkeypatch.setattr("sys.stdout", out)
        assert main([command, str(path), "--format", fmt]) == 0
        assert first_difference("".join(out.writes), want) is None
        if command == "angles":  # 44,850 pairs in 4096-line writes
            lines = [w.count("\n") if fmt == "tsv" else w.count('"label"') for w in out.writes]
            assert max(lines) == cli.ANGLE_LINES_PER_WRITE
            assert sum(lines) == 300 * 299 // 2 and len(out.writes) >= 11
        else:  # the header, then one row per write
            assert len(out.writes) >= 300


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_angles_memory_stays_below_the_output(monkeypatch, tmp_path, fmt):
    g = random_graph(np.random.default_rng(600), n=600)
    path = tmp_path / "g600.el"
    path.write_text(edge_list(g))
    with open(os.devnull, "w") as sink:  # so only the CLI's own memory counts
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            assert main(["angles", str(path), "--format", fmt]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # 9.3 MiB streamed, nearly all of it dihedral_angles' n x n arrays; the
    # one-shot writer peaked at 34.5 MiB (TSV) and 47.6 MiB (JSON)
    assert peak < 12 * 2**20
