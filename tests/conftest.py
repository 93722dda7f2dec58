import numpy as np
import pytest
from hypothesis import strategies as st

from graphsimplex import WeightedGraph, build_laplacian

from oracles import random_graph


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.eigh, the one
    eigensolver behind gs.eigh, during the test."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture(scope="session")
def small_corpus():
    """Thirty random connected graphs (n <= 20) shared by property tests."""
    gen = np.random.default_rng(777)
    return [build_laplacian(random_graph(gen, max_n=20)) for _ in range(30)]


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
