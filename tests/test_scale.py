"""Answers that do not depend on the weight scale.

Every weight is multiplied by 10^k, k from -250 to 250, on small connected
graphs and on the n = 200 benchmark fixture: Q^dagger stays a
pseudoinverse, resistances scale as 1/s, and neither the angle codes nor
the validation verdicts change.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import graphsimplex as gs

from oracles import random_graph

SCALES = [-250, -100, -12, -6, 0, 6, 12, 100, 250]
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def sized_graph(seed, index, n):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)  # its dataclass looks itself up there
    return gs.parse_graph(inputs.sized_graph(seed, index, n).text)


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(2468)
    cycle = gs.parse_graph("a b 1\nb c 1\nc d 1\na d 1\n")
    return [cycle] + [random_graph(rng, max_n=12) for _ in range(8)] + [
        sized_graph(7, 0, 200)]


def scaled(g, k):
    return gs.WeightedGraph(g.labels, g.links, tuple(w * 10.0**k for w in g.weights))


@pytest.mark.parametrize("k", SCALES)
def test_pinv_residual(graphs, k):
    for g in graphs:
        q = gs.build_laplacian(scaled(g, k))
        m = q.matrix
        assert np.abs(m @ q.pinv @ m - m).max() <= 1e-13 * np.abs(m).max()


@pytest.mark.parametrize("k", SCALES)
def test_resistance_scales_as_one_over_s(graphs, k):
    for g in graphs:
        want = gs.resistance_matrix(gs.build_laplacian(g))
        got = 10.0**k * gs.resistance_matrix(gs.build_laplacian(scaled(g, k)))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", SCALES)
def test_angles_do_not_change(graphs, k):
    for g in graphs:
        want = gs.dihedral_angles(gs.gram_pair_from_laplacian(gs.build_laplacian(g)))
        got = gs.dihedral_angles(gs.gram_pair_from_laplacian(gs.build_laplacian(scaled(g, k))))
        assert np.array_equal(got.codes, want.codes)
        assert np.abs(got.cosines - want.cosines).max() <= 1e-12


def verdicts(report):
    return ({name: c.passed for name, c in report.checks.items()},
            report.passed, report.spectral_passed, report.consistent)


@pytest.mark.parametrize("k", SCALES)
def test_validation_verdicts_do_not_change(graphs, k):
    k2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    specimens = [gs.build_laplacian(g).matrix for g in graphs] + [
        np.block([[k2, np.zeros((2, 2))], [np.zeros((2, 2)), k2]]),  # two components
        np.array([[2.0, 1.0, -3.0], [1.0, 2.0, -3.0], [-3.0, -3.0, 6.0]]),  # a positive link
    ]
    for m in specimens:
        assert verdicts(gs.validate_laplacian(10.0**k * m)) == verdicts(gs.validate_laplacian(m))
