"""Answers against exact rational references, and metamorphic relations.

``oracles.exact_resistances`` solves the grounded Laplacian over Fractions,
so Omega and the spanning tree count are exact for the float weights given.
The bounds below are relative to max Omega (max|Q| for a Laplacian). Each
test states the largest error measured on ``EXACT_CORPUS``; its bound is at
least four times that.
"""

import numpy as np
import pytest

import graphsimplex as gs

from conftest import UNRESOLVED_TREE
from oracles import (
    complete_graph,
    count_spanning_trees_brute,
    exact_resistances,
    path_graph,
    random_graph,
)

# forty graphs, n <= 12, weights uniform in [0.1, 10)
_GEN = np.random.default_rng(777)
EXACT_CORPUS = [random_graph(_GEN, max_n=12) for _ in range(40)]


def exact_omega(g):
    """The exact Omega of g, each entry correctly rounded to a float."""
    return np.array([[float(x) for x in row] for row in exact_resistances(g)[0]])


def edge_document(g):
    return "".join(f"{g.labels[i]} {g.labels[j]} {w!r}\n"
                   for (i, j), w in zip(g.links, g.weights))


def relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.fixture(scope="module")
def exact_answers():
    """(graph, Laplacian, exact Omega, exact tau) per corpus graph."""
    return [(g, gs.build_laplacian(g), exact_omega(g), exact_resistances(g)[1])
            for g in EXACT_CORPUS]


class TestOracle:
    def test_unit_graphs(self):
        for n in range(2, 7):
            omega, tau = exact_resistances(path_graph(n))
            assert omega[0][n - 1] == n - 1 and tau == 1
            omega, tau = exact_resistances(complete_graph(n))
            assert omega[0][1] * n == 2 and tau == n ** (n - 2)

    def test_tree_count_matches_enumeration(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=7)
            unit = gs.WeightedGraph(g.labels, g.links, (1.0,) * len(g.links))
            assert exact_resistances(unit)[1] == count_spanning_trees_brute(g.n, list(g.links))


class TestForwardError:
    def test_resistance_matrix(self, exact_answers):
        # measured worst 9.1e-15
        for _, q, omega, _ in exact_answers:
            assert relative_error(gs.resistance_matrix(q), omega) <= 1e-13

    def test_spanning_tree_count(self, exact_answers):
        # measured worst 8.9e-15 relative
        for _, q, _, tau in exact_answers:
            assert abs(gs.spanning_tree_count(q) - float(tau)) <= 1e-13 * float(tau)


class TestMetamorphic:
    def test_line_order_permutes_omega(self, exact_answers):
        # measured worst 2.3e-14
        for seed, (g, q, _, _) in enumerate(exact_answers):
            lines = edge_document(g).splitlines(keepends=True)
            shuffled = gs.parse_graph("".join(np.random.default_rng(seed).permutation(lines)))
            perm = [shuffled.index_of(label) for label in g.labels]
            omega = gs.resistance_matrix(gs.build_laplacian(shuffled))[np.ix_(perm, perm)]
            assert relative_error(omega, gs.resistance_matrix(q)) <= 1e-13

    def test_parallel_halves_parse_to_the_same_laplacian(self):
        # w/2 + w/2 = w exactly; the second halves come in reverse order
        # with their ends swapped, so no label moves
        for g in EXACT_CORPUS:
            halves = [(g.labels[i], g.labels[j], w / 2) for (i, j), w in zip(g.links, g.weights)]
            doc = "".join(f"{a} {b} {w!r}\n" for a, b, w in halves)
            doc += "".join(f"{b} {a} {w!r}\n" for a, b, w in reversed(halves))
            whole, split = gs.parse_graph(edge_document(g)), gs.parse_graph(doc)
            assert split.labels == whole.labels
            assert np.array_equal(gs.build_laplacian(split).matrix,
                                  gs.build_laplacian(whole).matrix)

    def test_subdivided_link(self, exact_answers):
        # (i, j, w) becomes (i, mid, 2w) and (mid, j, 2w), one link at a
        # time: measured worst 2.1e-14 in Omega and 3.2e-16 in the reduction
        for g, q, _, _ in exact_answers:
            omega = gs.resistance_matrix(q)
            lines = edge_document(g).splitlines(keepends=True)
            for t, ((i, j), w) in enumerate(zip(g.links, g.weights)):
                doc = lines.copy()
                doc[t] = f"{g.labels[i]} mid {2 * w!r}\nmid {g.labels[j]} {2 * w!r}\n"
                longer = gs.parse_graph("".join(doc))
                old = [longer.index_of(label) for label in g.labels]
                q2 = gs.build_laplacian(longer)
                assert relative_error(gs.resistance_matrix(q2)[np.ix_(old, old)], omega) <= 1e-13
                assert relative_error(gs.schur_complement(q2, old).matrix, q.matrix) <= 1e-14


class TestKnownDefects:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a Cholesky pivot absorbs the "
                                           "1.6e-9 link into a 5.2e9 degree")
    def test_kron_reduction_of_a_19_decade_tree(self):
        g = gs.parse_graph(UNRESOLVED_TREE)
        keep = [g.index_of("2"), g.index_of("6")]
        # onto two nodes of a tree: one link of conductance 1/omega (exactly
        # 1.637503792310466e-09; 1.8144621467851913e-09 today)
        conductance = 1.0 / exact_omega(g)[keep[0], keep[1]]
        got = -gs.schur_complement(gs.build_laplacian(g), keep).matrix[0, 1]
        assert abs(got - conductance) <= 1e-13 * conductance

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the spectral route's error is "
                                           "about eps times the condition number")
    def test_resistances_across_14_decades(self):
        # omega(a, c) is 1.00000000000001e14 exactly; 99760466376730.47 today
        g = gs.parse_graph("a b 1\nb c 1e-14\n")
        omega = exact_omega(g)
        assert relative_error(gs.resistance_matrix(gs.build_laplacian(g)), omega) <= 1e-12
