import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from graphsimplex import WeightedGraph, build_laplacian, linalg, parse_graph

from oracles import random_graph

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@contextmanager
def eigen_only():
    """The grounded factor's screen switched off: inside, every Laplacian
    and kernel-u matrix is answered by its eigendecomposition."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "grounded_factor", lambda m: None)
        yield


def record_shapes(monkeypatch, name):
    """Patch np.linalg.<name> to record the shape of each matrix passed
    to it; returns the list of shapes."""
    calls = []
    solver = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.eigh, the one
    eigensolver behind gs.eigh, during the test."""
    return record_shapes(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.eigvalsh during the
    test; validation reads the one factor or eigh, so the library calls
    none."""
    return record_shapes(monkeypatch, "eigvalsh")


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.cholesky, the
    factorization behind every grounded factor and Kron reduction, during
    the test."""
    return record_shapes(monkeypatch, "cholesky")


@pytest.fixture(scope="session")
def small_corpus():
    """Thirty random connected graphs (n <= 20) shared by property tests."""
    gen = np.random.default_rng(777)
    return [build_laplacian(random_graph(gen, max_n=20)) for _ in range(30)]


def sized_graph(seed, index, n):
    """The benchmark's graph ``index`` of workload seed ``seed`` at size n."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)  # its dataclass looks itself up there
    return parse_graph(inputs.sized_graph(seed, index, n).text)


@st.composite
def connected_graphs(draw, max_nodes=10):
    """Hypothesis strategy: random spanning tree plus extra links."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    weights = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        weights[(u, v)] = draw(
            st.floats(min_value=0.1, max_value=10.0,
                      allow_nan=False, allow_infinity=False)
        )
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for i, j in extra:
        if i != j:
            weights.setdefault((min(i, j), max(i, j)), draw(
                st.floats(min_value=0.1, max_value=10.0,
                          allow_nan=False, allow_infinity=False)))
    links = tuple(sorted(weights))
    return WeightedGraph(
        labels=tuple(str(k) for k in range(n)),
        links=links,
        weights=tuple(weights[l] for l in links),
    )


# A valid 7-node tree whose weights span ~19 decades: the smallest nonzero
# eigenvalue of one double-precision eigh is rounding noise (-5e-15, against
# the rounding level n eps mu_max = 1.6e-5), so every answer read off the
# spectrum would be too: negative resistances and tree counts.
UNRESOLVED_TREE = ("0 1 0.005276392962428927\n1 2 1.6377153146406776e-09\n"
                   "1 3 5235585105.357121\n3 4 1.2678402188748882e-05\n"
                   "3 5 6.932329083485788e-10\n4 6 250.23256488980707\n")
