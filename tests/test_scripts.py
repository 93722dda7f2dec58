import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsimplex

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["residual_report.py", "angle_census.py"])
def test_script_runs(script):
    src = os.path.dirname(os.path.dirname(graphsimplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--graphs", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].startswith("corpus: 5 graphs, n <= ")


def test_residual_report_without_reducible_graphs():
    # no sampled graph has n >= 3, so the Schur lines have no samples
    src = os.path.dirname(os.path.dirname(graphsimplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "residual_report.py"),
         "--graphs", "1", "--max-nodes", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "resistance preservation      n/a (0 samples)" in result.stdout
