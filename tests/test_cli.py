import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import graphsimplex
from graphsimplex.cli import main

from oracles import random_graph

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

    def test_memory_error(self, capsys, monkeypatch, path3_file):
        def exhausted(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr("graphsimplex.cli.build_laplacian", exhausted)
        code, out, err = run(capsys, ["pinv", path3_file])
        assert_one_error_line(code, out, err)
        assert "cannot allocate" in err
