import itertools

import numpy as np
import pytest
from hypothesis import given, settings

import graphsimplex as gs
from graphsimplex.errors import (
    DisconnectedError,
    EdgeListSyntaxError,
    NonFiniteEntryError,
    NonPositiveWeightError,
    NotALaplacianError,
    SelfLoopError,
    TooFewNodesError,
)

from conftest import connected_graphs
from oracles import (
    complete_graph,
    count_spanning_trees_brute,
    path_graph,
    random_graph,
    unit_graph,
)

# non-hyperacute pseudoinverse Gram used as a non-Laplacian specimen
NONHYPERACUTE = 9.0 * np.array(
    [[7, 1, -4, -4], [1, 7, -4, -4], [-4, -4, 12, -4], [-4, -4, -4, 12]], float
)


class TestParseGraph:
    def test_minimal(self):
        g = gs.parse_graph("a b 1")
        assert g.labels == ("a", "b")
        assert g.links == ((0, 1),)
        assert g.weights == (1.0,)

    def test_duplicate_lines_summed(self):
        g = gs.parse_graph("a b 1\na b 1")
        assert g.links == ((0, 1),)
        assert g.weights == (2.0,)

    def test_reversed_duplicate_summed(self):
        g = gs.parse_graph("a b 1\nb a 0.5")
        assert g.weights == (1.5,)

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            gs.parse_graph("a b 1\nc d 1")

    def test_comments_and_blank_lines(self):
        g = gs.parse_graph("# header\n\na b 1\n  \nb c 2\n")
        assert g.labels == ("a", "b", "c")
        assert g.weights == (1.0, 2.0)

    def test_label_order_is_first_appearance(self):
        g = gs.parse_graph("z y 1\ny x 1")
        assert g.labels == ("z", "y", "x")

    @pytest.mark.parametrize("doc,err", [
        ("a b", EdgeListSyntaxError),
        ("a b one", EdgeListSyntaxError),
        ("a b 1 2", EdgeListSyntaxError),
        ("a b 0", NonPositiveWeightError),
        ("a b -1", NonPositiveWeightError),
        ("a b inf", NonPositiveWeightError),
        ("a a 1", SelfLoopError),
        ("", TooFewNodesError),
    ])
    def test_bad_documents(self, doc, err):
        with pytest.raises(err):
            gs.parse_graph(doc)


class TestBuildLaplacian:
    def test_single_edge_weight_2(self):
        q = gs.build_laplacian(gs.parse_graph("a b 2"))
        assert np.array_equal(q.matrix, [[2, -2], [-2, 2]])

    def test_path(self):
        q = gs.build_laplacian(gs.parse_graph("a b 1\nb c 1"))
        assert np.array_equal(q.matrix, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_triangle(self):
        q = gs.build_laplacian(complete_graph(3))
        assert np.array_equal(q.matrix, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


class TestValidateLaplacian:
    def test_triangle_passes(self):
        report = gs.validate_laplacian(gs.build_laplacian(complete_graph(3)).matrix)
        assert report.passed and report.spectral_passed and report.consistent
        assert report.failed_properties() == []

    def test_block_diagonal_fails_irreducibility(self):
        k2 = np.array([[1, -1], [-1, 1]], float)
        block = np.block([[k2, np.zeros((2, 2))], [np.zeros((2, 2)), k2]])
        report = gs.validate_laplacian(block)
        assert not report.passed
        failed = set(report.failed_properties())
        assert {"irreducible", "single_zero_eigenvalue"} <= failed
        assert report.consistent

    def test_nonhyperacute_fails_only_sign_property(self):
        report = gs.validate_laplacian(NONHYPERACUTE)
        assert report.failed_properties() == ["offdiag_nonpositive"]
        assert not report.passed and not report.spectral_passed
        assert report.consistent


class TestGraphFromLaplacian:
    def test_single_unit_edge(self):
        g = gs.graph_from_laplacian(np.array([[1, -1], [-1, 1]], float))
        assert g.labels == ("0", "1")
        assert g.links == ((0, 1),)
        assert g.weights == (1.0,)

    def test_nonhyperacute_rejected(self):
        with pytest.raises(NotALaplacianError) as exc:
            gs.graph_from_laplacian(NONHYPERACUTE)
        assert "offdiag_nonpositive" in exc.value.report.failed_properties()

    def test_asymmetric_rejected(self):
        with pytest.raises(NotALaplacianError) as exc:
            gs.graph_from_laplacian(np.array([[1, -1], [-2, 2]], float))
        assert "symmetric" in exc.value.report.failed_properties()

    def test_round_trip_from_matrix(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_n=12)
            q = gs.build_laplacian(g)
            g2 = gs.graph_from_laplacian(q.matrix)
            q2 = gs.build_laplacian(g2)
            assert np.abs(q.matrix - q2.matrix).max() <= 1e-12


class TestSpanningTreeCount:
    def test_complete_graphs(self):
        assert gs.spanning_tree_count(gs.build_laplacian(complete_graph(3))) == pytest.approx(3, abs=1e-6)
        assert gs.spanning_tree_count(gs.build_laplacian(complete_graph(4))) == pytest.approx(16, abs=1e-6)

    def test_path_is_a_tree(self):
        assert gs.spanning_tree_count(gs.build_laplacian(path_graph(4))) == pytest.approx(1, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_small_unit_graphs(self, n):
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for r in range(n - 1, len(all_edges) + 1):
            for edges in itertools.combinations(all_edges, r):
                try:
                    g = unit_graph(n, list(edges))
                except DisconnectedError:
                    continue
                expected = count_spanning_trees_brute(n, list(edges))
                got = gs.spanning_tree_count(gs.build_laplacian(g))
                assert got == pytest.approx(expected, abs=1e-6)

    def test_random_unit_graphs_n6(self, rng):
        for _ in range(40):
            g = random_graph(rng, n=6)
            edges = list(g.links)
            g_unit = unit_graph(6, edges)
            expected = count_spanning_trees_brute(6, edges)
            got = gs.spanning_tree_count(gs.build_laplacian(g_unit))
            assert got == pytest.approx(expected, abs=1e-6)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_round_trip_and_validation_properties(g):
    q = gs.build_laplacian(g)
    report = gs.validate_laplacian(q.matrix)
    assert report.passed and report.consistent
    g2 = gs.graph_from_laplacian(q.matrix)
    assert g2.links == g.links
    assert np.abs(np.array(g2.weights) - np.array(g.weights)).max() <= 1e-12


def reference_laplacian(g):
    """The per-link loop that built Laplacians before the vectorised form."""
    q = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.links, g.weights):
        q[i, j] -= w
        q[j, i] -= w
        q[i, i] += w
        q[j, j] += w
    return q


class TestBuildLaplacianVectorised:
    def test_bitwise_equal_to_reference_loop(self, rng):
        graphs = [random_graph(rng, max_n=50) for _ in range(20)]
        graphs += [random_graph(rng, n=1000), path_graph(7), complete_graph(6)]
        for g in graphs:
            q = gs.build_laplacian(g)
            assert np.array_equal(q.matrix, reference_laplacian(g))
            assert np.array_equal(g.degrees, np.diag(q.matrix))

    def test_degree_overflow_rejected(self):
        g = gs.parse_graph("a b 1e308\nb c 1e308\na c 1e308\n")
        with pytest.raises(NonFiniteEntryError, match="'a'"):
            gs.build_laplacian(g)

    def test_largest_finite_degrees_accepted(self):
        q = gs.build_laplacian(gs.parse_graph("a b 8e307\nb c 8e307\n"))
        assert q.matrix[1, 1] == 1.6e308


class TestLabelIndex:
    def test_index_of_matches_tuple_index(self, rng):
        g = random_graph(rng, n=40)
        assert g.label_index == {label: k for k, label in enumerate(g.labels)}
        for label in g.labels:
            assert g.index_of(label) == g.labels.index(label)

    def test_unknown_label(self):
        g = gs.parse_graph("a b 1\nb c 1\n")
        with pytest.raises(ValueError, match=r"^tuple.index\(x\): x not in tuple$"):
            g.index_of("zzz")
