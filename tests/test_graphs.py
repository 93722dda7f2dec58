import itertools
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings

import graphsimplex as gs
from graphsimplex import graphs
from graphsimplex.errors import (
    DisconnectedError,
    EdgeListSyntaxError,
    NonFiniteEntryError,
    NonPositiveWeightError,
    NonSquareError,
    NotALaplacianError,
    RankDeficientError,
    SelfLoopError,
    TooFewNodesError,
)

from conftest import UNRESOLVED_TREE, connected_graphs, eigen_only
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
        ("a b 1_0", EdgeListSyntaxError),  # float() reads 10
        ("a b \u0661", EdgeListSyntaxError),  # Arabic-Indic one
        ("a b \uff11", EdgeListSyntaxError),  # fullwidth one
        ("a a 1", SelfLoopError),
        ("", TooFewNodesError),
    ])
    def test_bad_documents(self, doc, err):
        with pytest.raises(err):
            gs.parse_graph(doc)

    @pytest.mark.parametrize("doc", ["", "# only a comment\n", "\n  \n"])
    def test_no_data_lines_is_too_few_nodes(self, doc):
        with pytest.raises(TooFewNodesError, match="need at least 2 nodes, got 0"):
            gs.parse_graph(doc)


class TestDirectConstruction:
    @pytest.mark.parametrize("labels, links, weights, err, match", [
        (("a",), (), (), TooFewNodesError, "at least 2 nodes"),
        (("a", "a"), ((0, 1),), (1.0,), EdgeListSyntaxError, "duplicate node labels"),
        (("a", "b"), ((1, 1), (0, 1)), (1.0, 1.0), SelfLoopError, "self-loop at node 'b'"),
        (("a", "b"), ((0, 2),), (1.0,), EdgeListSyntaxError, "out of range"),
        (("a", "b"), ((5, 5),), (1.0,), EdgeListSyntaxError, "out of range"),
        (("a", "b"), ((1, 0),), (1.0,), EdgeListSyntaxError, "canonical"),
        (("a", "b"), ((0, 1), (0, 1)), (1.0, 1.0), EdgeListSyntaxError, "duplicate link"),
        (("a", "b", "c"), ((0, 1), (1, 2)), (2.0,), EdgeListSyntaxError,
         "^2 links but 1 weights$"),
    ], ids=["one-node", "duplicate-labels", "self-loop", "out-of-range",
            "out-of-range-loop", "not-canonical", "duplicate-link", "weights-short"])
    def test_bad_graphs(self, labels, links, weights, err, match):
        with pytest.raises(err, match=match):
            gs.WeightedGraph(labels, links, weights)


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

    def test_from_matrix_rejects_with_the_report(self):
        with pytest.raises(NotALaplacianError) as exc:
            gs.LaplacianMatrix.from_matrix(NONHYPERACUTE)
        assert exc.value.report.failed_properties() == ["offdiag_nonpositive"]


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

    @pytest.mark.parametrize("weight", [1e200, 1e-200])
    def test_count_beyond_the_float_range_raises(self, weight):
        # tau = 3 w^2 overflows to inf or underflows to 0
        q = gs.build_laplacian(gs.parse_graph(f"a b {weight}\nb c {weight}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEntryError, match="spanning tree count"):
                gs.spanning_tree_count(q)


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


class TestLinkArray:
    def test_links_as_one_read_only_array(self, rng):
        g = random_graph(rng, n=40)
        assert g.link_array is g.link_array
        assert g.link_array.dtype == np.intp
        assert np.array_equal(g.link_array, np.array(g.links))
        with pytest.raises(ValueError):
            g.link_array[0, 0] = 1

    def test_built_once_per_graph(self, rng, monkeypatch):
        g = random_graph(rng, n=40)
        made = []
        array = np.array

        def counting(obj, *args, **kwargs):
            if obj is g.links:
                made.append(1)
            return array(obj, *args, **kwargs)

        monkeypatch.setattr(np, "array", counting)
        graph = gs.WeightedGraph(g.labels, g.links, g.weights)
        gs.build_laplacian(graph)
        graph.degrees
        assert made == [1]


class TestLaplacianCaches:
    def test_pinv_is_read_only(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=6))
        omega = gs.resistance_matrix(q)
        with pytest.raises(ValueError):
            q.pinv[0, 0] += 1
        assert np.array_equal(gs.resistance_matrix(q), omega)

    def test_resistance_matrix_is_cached_and_read_only(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=6))
        omega = gs.resistance_matrix(q)
        assert gs.resistance_matrix(q) is omega
        with pytest.raises(ValueError):
            omega[0, 1] = 1.0

    def test_spectrum_is_read_only(self):
        # where the factor declines, validation reads eigenvalues it keeps
        # read-only; it keeps no eigenvectors
        q = unresolved_tree()
        gs.validate_laplacian(q)
        with pytest.raises(ValueError):
            q._scaled_eigenvalues[0] = 1.0

    def test_spectrum_is_the_eigendecomposition(self, small_corpus):
        for q in small_corpus[:10]:
            scaled = np.ldexp(q.matrix, -gs.linalg.exponent(q.matrix))
            assert np.array_equal(q._scaled_eigenvalues, gs.eigh(scaled).eigenvalues)

    def test_embed_and_trees_share_one_factor(self, eigh_calls, cholesky_calls, rng):
        # one grounded factor serves both; with its screen off, both refuse
        g = random_graph(rng, n=12)
        q = gs.build_laplacian(g)
        gs.embed_from_laplacian(q)
        gs.spanning_tree_count(q)
        gs.embed_from_laplacian(q)
        with eigen_only():
            q = gs.build_laplacian(g)
            for answer in (gs.embed_from_laplacian, gs.spanning_tree_count):
                with pytest.raises(RankDeficientError, match="too many decades"):
                    answer(q)
        assert cholesky_calls == [(11, 11)]
        assert eigh_calls == []

    def test_graph_from_laplacian_reads_the_validation(self, eigh_calls, eigvalsh_calls,
                                                       cholesky_calls, rng):
        q = gs.build_laplacian(random_graph(rng, n=9))
        report = gs.validate_laplacian(q)
        gs.graph_from_laplacian(q)
        assert cholesky_calls == [(8, 8)]
        assert eigh_calls == []
        assert eigvalsh_calls == []
        assert gs.validate_laplacian(q) is report
        assert_same_report_but_min_eigenvalue(report, gs.validate_laplacian(q.matrix), q)

    def test_from_matrix_keeps_its_report(self, eigh_calls, eigvalsh_calls, cholesky_calls, rng):
        q = gs.LaplacianMatrix.from_matrix(gs.build_laplacian(random_graph(rng, n=7)).matrix)
        assert cholesky_calls == [(6, 6)]
        assert gs.validate_laplacian(q).passed
        q.pinv
        assert cholesky_calls == [(6, 6)]
        assert eigh_calls == eigvalsh_calls == []

    def test_each_tolerance_has_its_own_report(self, eigh_calls, eigvalsh_calls,
                                               cholesky_calls, rng):
        q = gs.build_laplacian(random_graph(rng, n=8))
        default = gs.validate_laplacian(q)
        loose = gs.validate_laplacian(q, gs.Tolerances(1e-6))
        assert loose is not default
        assert loose.tol_scale == 1e3 * default.tol_scale
        assert gs.validate_laplacian(q, gs.Tolerances(validation=1e-6)) is loose
        assert cholesky_calls == [(7, 7)]  # two Tolerances, one factor
        assert eigh_calls == eigvalsh_calls == []
        for tol, report in ((gs.DEFAULT, default), (gs.Tolerances(1e-6), loose)):
            assert_same_report_but_min_eigenvalue(report, gs.validate_laplacian(q.matrix, tol), q)

    def test_report_checks_are_read_only(self, rng):
        report = gs.validate_laplacian(gs.build_laplacian(random_graph(rng, n=5)))
        with pytest.raises(TypeError):
            report.checks["symmetric"] = report.checks["irreducible"]
        with pytest.raises(TypeError):
            del report.checks["symmetric"]

    def test_symmetric_part_is_kept_once(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=6))
        assert q.symmetric is q.matrix
        m = q.matrix.copy()
        m[0, 1] += 1e-12
        m[0, 0] -= 1e-12
        asym = gs.LaplacianMatrix.from_matrix(m)
        assert np.array_equal(asym.symmetric, 0.5 * m + 0.5 * m.T)
        assert asym.symmetric is asym.symmetric
        with pytest.raises(ValueError):
            asym.symmetric[0, 0] = 1.0


def assert_same_report_but_min_eigenvalue(report, raw, q):
    """``report``, read off q's shared factor or eigh, equals ``raw``, the
    report of q.matrix as a plain array, in every verdict and every detail
    but, on the eigen route, the digits of the min eigenvalue, which must be
    within n eps mu_max of 0."""
    assert report.tol_scale == raw.tol_scale
    assert list(report.checks) == list(raw.checks)
    for name, check in report.checks.items():
        assert check.passed == raw.checks[name].passed
        if name != "positive_semidefinite" or q.factor is not None:
            assert check == raw.checks[name]
    if q.factor is not None:
        return
    prefix = "min eigenvalue = "
    detail = report.checks["positive_semidefinite"].detail
    assert detail.startswith(prefix)
    mu = gs.eigh(q.symmetric).eigenvalues
    assert abs(float(detail[len(prefix):])) <= q.n * np.finfo(float).eps * mu[0]


def unresolved_tree():
    return gs.build_laplacian(gs.parse_graph(UNRESOLVED_TREE))


def mixed_scale_tree():
    # weights across ~500 decades; one nonzero eigenvalue rounds to <= 0
    return gs.build_laplacian(gs.parse_graph(
        "4 3 2.8e29\n5 2 8.9e-27\n4 0 5.1e185\n0 6 3.9e151\n2 3 1.9e206\n1 5 1.3e-300\n"))


def overflowing_path():
    # finite entries, but the largest eigenvalue (2.4e308) is not: the
    # scaled eigh serves validation, and the factor declines
    return gs.build_laplacian(gs.parse_graph("a b 8e307\nb c 8e307\n"))


def subnormal_cycle():
    return gs.build_laplacian(gs.parse_graph("a b 1e-310\nb c 1e-310\nc d 1e-310\na d 1e-310\n"))


def scaled_random_graph(k):
    g = random_graph(np.random.default_rng(5), 200)
    return gs.build_laplacian(
        gs.WeightedGraph(g.labels, g.links, tuple(w * 10.0**k for w in g.weights)))


SWEEP_SCALES = [-300, -250, -100, -8, 0, 12, 100, 250, 300]


class TestValidationReadsTheSharedSpectrum:
    def test_one_eigh_per_laplacian(self, eigh_calls, eigvalsh_calls, cholesky_calls, rng):
        # one grounded factor per Laplacian; with its screen off, one eigh
        # serves validation, and the factor's answers refuse
        g = random_graph(rng, n=11)
        answers = (gs.laplacian_pseudoinverse, gs.embed_from_laplacian, gs.spanning_tree_count)
        for route in (nullcontext, eigen_only):
            with route():
                q = gs.build_laplacian(g)
                assert gs.validate_laplacian(q).passed
                gs.graph_from_laplacian(q)
                for answer in answers:
                    if q.factor is None:
                        with pytest.raises(RankDeficientError):
                            answer(q)
                    else:
                        answer(q)
        assert cholesky_calls == [(10, 10)]
        assert eigh_calls == [(11, 11)]
        assert eigvalsh_calls == []

    def test_plain_arrays_take_one_eigh(self, eigh_calls, eigvalsh_calls, cholesky_calls, rng):
        # one factor per plain array; with the screen off, one eigh
        m = gs.build_laplacian(random_graph(rng, n=10)).matrix
        for route in (nullcontext, eigen_only):
            with route():
                gs.graph_from_laplacian(m)
                gs.LaplacianMatrix.from_matrix(m)
        assert cholesky_calls == [(9, 9), (9, 9)]
        assert eigh_calls == [(10, 10), (10, 10)]
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("make", [
        unresolved_tree, mixed_scale_tree, overflowing_path, subnormal_cycle,
        *(lambda k=k: scaled_random_graph(k) for k in SWEEP_SCALES)],
        ids=["unresolved-tree", "tree-500-decades", "path-8e307", "cycle-1e-310",
             *(f"random-200-1e{k}" for k in SWEEP_SCALES)])
    def test_verdicts_match_the_plain_array(self, make):
        q = make()
        got, want = gs.validate_laplacian(q), gs.validate_laplacian(q.matrix)
        assert ({name: c.passed for name, c in got.checks.items()}
                == {name: c.passed for name, c in want.checks.items()})
        assert (got.passed, got.spectral_passed, got.consistent) == (
            want.passed, want.spectral_passed, want.consistent)
        assert got.tol_scale == want.tol_scale
        assert all(got.checks[name] == c for name, c in want.checks.items()
                   if name != "positive_semidefinite")

    def test_overflowing_spectrum_is_decomposed_once(self, eigh_calls, eigvalsh_calls):
        q = overflowing_path()
        for tol in (gs.DEFAULT, gs.Tolerances(1e-6)):
            assert gs.validate_laplacian(q, tol).passed
        for _ in range(3):
            with pytest.raises(RankDeficientError, match="leave the float range"):
                q.pinv
        assert eigh_calls == [(3, 3)]
        assert eigvalsh_calls == []

    def test_empty_matrix_has_no_spectrum(self):
        with pytest.raises(NonSquareError, match="non-empty"):
            gs.LaplacianMatrix(np.zeros((0, 0)))

    def test_unresolved_spectrum_validates_and_refuses_once(self, eigh_calls):
        # validation reads the eigenvalues of one eigh where the factor
        # declines; the 1.6e-9 links fall in the dead-band, so both verdicts
        # fail
        q = unresolved_tree()
        report = gs.validate_laplacian(q)
        assert report.consistent and not report.passed
        for _ in range(2):
            with pytest.raises(RankDeficientError, match="too many decades"):
                q.pinv
        assert eigh_calls == [(7, 7)]


class TestAcceptedAsymmetry:
    def test_pinv_and_embedding_are_those_of_the_symmetric_part(self, rng):
        # from_matrix accepts asymmetry within the validation tolerance;
        # the grounded factor must accept the same matrices
        m = gs.build_laplacian(random_graph(rng, n=12)).matrix.copy()
        m += np.triu(rng.normal(scale=1e-11, size=m.shape), 1)
        m -= np.diag(m.sum(axis=1))
        q = gs.LaplacianMatrix.from_matrix(m)
        sym = gs.LaplacianMatrix(0.5 * (m + m.T))
        assert np.array_equal(q.pinv, sym.pinv)
        assert np.array_equal(gs.laplacian_pseudoinverse(m), sym.pinv)
        assert np.array_equal(gs.embed_from_laplacian(q).vertices,
                              gs.embed_from_laplacian(sym).vertices)


    def test_subnormal_asymmetry_is_half_summed_once(self):
        # a 30-node Laplacian times 1e-310, with a 1e-13 asymmetry: the
        # constant-kernel detail reads the exact half-sum, as that of the
        # scaled matrix; halving each subnormal entry first gave 2.470e-322
        m = gs.build_laplacian(random_graph(np.random.default_rng(119), n=30)).matrix.copy()
        m[0, 1] += 1e-13 * np.abs(m).max()
        m *= 1e-310
        detail = gs.validate_laplacian(gs.LaplacianMatrix(m)).checks["constant_kernel"].detail
        assert detail == "|A u|_inf = 2.372e-322"
        e = int(np.frexp(np.abs(m).max())[1])
        scaled = np.ldexp(m, -e)
        ker = np.abs(0.5 * (scaled + scaled.T) @ np.ones(30)).max()
        assert detail == f"|A u|_inf = {float(np.ldexp(ker, e)):.3e}"


def reference_spectral_checks(m, tol=gs.DEFAULT):
    """The unscaled spectral checks validate_laplacian ran before it scaled
    the matrix: (passed, detail) of the two eigenvalue properties."""
    vals = np.linalg.eigvalsh(0.5 * (m + m.T))
    zero_cut = tol.zero_eigenvalue * max(float(np.abs(vals).max()), np.finfo(float).tiny)
    min_val = float(vals.min())
    n_zero = int(np.sum(np.abs(vals) <= zero_cut))
    return {
        "positive_semidefinite": (min_val >= -zero_cut, f"min eigenvalue = {min_val:.3e}"),
        "single_zero_eigenvalue": (n_zero == 1, f"{n_zero} zero eigenvalues"),
    }


def reference_sum_checks(m, tol=gs.DEFAULT):
    """The unscaled difference and sum checks validate_laplacian ran before
    it scaled the matrix: (passed, detail) of the three properties."""
    atol = tol.validation * max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
    sym_err = float(np.abs(m - m.T).max())
    row_err = float(np.abs(m.sum(axis=1)).max())
    col_err = float(np.abs(m.sum(axis=0)).max())
    ker_err = float(np.abs(0.5 * (m + m.T) @ np.ones(len(m))).max())
    return {
        "symmetric": (sym_err <= atol, f"max |A - A^T| = {sym_err:.3e}"),
        "zero_row_sums": (max(row_err, col_err) <= atol,
                          f"max |row sum| = {row_err:.3e}, max |col sum| = {col_err:.3e}"),
        "constant_kernel": (ker_err <= atol, f"|A u|_inf = {ker_err:.3e}"),
    }


class TestScaleFreeValidation:
    @pytest.mark.parametrize("m", [
        [[0.0, -0.0], [-0.0, 0.0]],
        [[1.0, -0.0, -1.0], [-0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]],
        [[5.0]],
    ], ids=["zero-2", "path-3", "one-node"])
    def test_negative_zero_off_diagonal_reads_as_zero(self, m):
        # the off-diagonal maximum is -0.0, or there is no off-diagonal;
        # the detail prints +0, as when the diagonal was zeroed in a copy
        report = gs.validate_laplacian(np.array(m))
        check = report.checks["offdiag_nonpositive"]
        assert check.passed and check.detail == "max off-diagonal = 0.000e+00"
        assert report.checks["irreducible"].passed == (len(m) != 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_spectrum_is_consistent(self):
        # finite entries, but the largest eigenvalue (2.4e308) is not
        q = gs.build_laplacian(gs.parse_graph("a b 8e307\nb c 8e307\n"))
        report = gs.validate_laplacian(q.matrix)
        assert report.passed and report.spectral_passed and report.consistent
        assert report.checks["single_zero_eigenvalue"].detail == "1 zero eigenvalues"

    def test_matches_unscaled_reference(self, small_corpus, rng):
        k2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        specimens = [q.matrix for q in small_corpus] + [
            NONHYPERACUTE, np.block([[k2, np.zeros((2, 2))], [np.zeros((2, 2)), k2]])]
        for _ in range(20):
            a = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-5, 6)
            specimens.append(a + a.T)
        prefix = "min eigenvalue = "
        for m in specimens:
            with eigen_only():
                report = gs.validate_laplacian(m)
            reference = reference_spectral_checks(m)
            for name, (passed, detail) in reference.items():
                assert report.checks[name].passed == passed
                # the grounded factor, where it is certified, agrees
                assert gs.validate_laplacian(m).checks[name].passed == passed
            zeros = report.checks["single_zero_eigenvalue"].detail
            assert zeros == reference["single_zero_eigenvalue"][1]
            # the min eigenvalue comes from eigh, not eigvalsh: within
            # n eps max|lambda| of the reference, up to the 4 digits printed
            got = float(report.checks["positive_semidefinite"].detail.removeprefix(prefix))
            want = float(reference["positive_semidefinite"][1].removeprefix(prefix))
            mu_max = np.abs(np.linalg.eigvalsh(0.5 * (m + m.T))).max()
            bound = len(m) * np.finfo(float).eps * mu_max + 5e-4 * (abs(got) + abs(want))
            assert abs(got - want) <= bound

    def test_sums_near_the_float_limit_do_not_overflow(self):
        # finite entries whose row sums, A - A^T and A u are not
        antisymmetric = np.zeros((3, 3))
        antisymmetric[0, 1:] = 1.7e308
        antisymmetric[1:, 0] = -1.7e308
        for m in (np.full((3, 3), -1.7e308), antisymmetric):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = gs.validate_laplacian(m)
            assert not report.passed and not report.spectral_passed
            assert not report.checks["zero_row_sums"].passed
        assert report.checks["symmetric"].detail == "max |A - A^T| = inf"

    def test_small_positive_offdiagonal_is_seen_at_any_scale(self):
        # 1e-300 scaled by 2^-e, e the exponent of 1e300, underflows to
        # zero; the sign and support checks must still see it
        m = np.array([[0.0, -1e300, 1e-300], [-1e300, 0.0, 0.0], [1e-300, 0.0, 0.0]])
        report = gs.validate_laplacian(m)
        assert not report.checks["offdiag_nonpositive"].passed
        assert report.checks["offdiag_nonpositive"].detail == "max off-diagonal = 1.000e-300"
        assert report.checks["irreducible"].passed
        assert report.checks["irreducible"].passed == reference_irreducible(m, report.tol_scale)
        assert not report.passed and not report.spectral_passed

    def test_sums_match_unscaled_reference(self, small_corpus, rng):
        specimens = [q.matrix for q in small_corpus] + [NONHYPERACUTE]
        for _ in range(20):
            a = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-5, 6)
            specimens += [a + a.T, a]
        for m in specimens:
            report = gs.validate_laplacian(m)
            for name, (passed, detail) in reference_sum_checks(m).items():
                assert (report.checks[name].passed, report.checks[name].detail) == (passed, detail)


def reference_links_connected(n, links):
    """The link-list BFS that WeightedGraph ran before ``_connected``."""
    adj = [[] for _ in range(n)]
    for i, j in links:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for m in adj[k]:
            if not seen[m]:
                seen[m] = True
                stack.append(m)
    return all(seen)


def reference_irreducible(m, atol):
    """The support-matrix BFS that validate_laplacian ran before ``_connected``."""
    n = m.shape[0]
    if n == 1:
        return True
    support = np.abs(m) > atol
    np.fill_diagonal(support, False)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for j in np.nonzero(support[k] | support[:, k])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def two_blocks(k):
    """Block-diagonal Laplacian of two unit paths on k nodes each."""
    p = gs.build_laplacian(path_graph(k)).matrix
    z = np.zeros((k, k))
    return np.block([[p, z], [z, p]])


class TestConnected:
    def assert_agrees(self, m):
        """``_connected`` on the links (i < j) and on the support matrix of
        m against both reference bodies, and validate_laplacian's verdict."""
        n = m.shape[0]
        i, j = np.nonzero(np.triu(m < 0, 1))
        links = list(zip(i.tolist(), j.tolist()))
        expected = reference_links_connected(n, links)
        assert graphs._connected(n, i, j) is expected
        atol = gs.DEFAULT.validation * max(np.abs(np.diag(m)).max(), np.finfo(float).tiny)
        support = np.abs(m) > atol
        np.fill_diagonal(support, False)
        assert graphs._connected(n, *np.nonzero(support)) is reference_irreducible(m, atol)
        assert gs.validate_laplacian(m).checks["irreducible"].passed is expected
        return expected

    def test_corpus(self, small_corpus):
        for q in small_corpus:
            assert self.assert_agrees(q.matrix)

    def test_two_components(self):
        assert not self.assert_agrees(two_blocks(5))
        with pytest.raises(DisconnectedError):
            gs.WeightedGraph(("a", "b", "c", "d"), ((0, 1), (2, 3)), (1.0, 1.0))

    def test_long_path(self):
        assert self.assert_agrees(gs.build_laplacian(path_graph(1000)).matrix)

    def test_dense_kron_reduction(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=120))
        reduced = gs.schur_complement(q, list(range(0, 120, 4)))
        assert np.count_nonzero(reduced.matrix) > 0.9 * 30**2
        assert self.assert_agrees(reduced.matrix)

    def test_single_node(self):
        assert self.assert_agrees(np.zeros((1, 1)))

    def test_blocks_joined_on_one_side_only(self):
        # the support is the union of A and A^T: one entry joins the blocks
        for r, c in ((0, 7), (7, 0)):
            m = two_blocks(4)
            m[r, c] = -1.0
            n = m.shape[0]
            atol = gs.DEFAULT.validation
            support = np.abs(m) > atol
            np.fill_diagonal(support, False)
            assert reference_irreducible(m, atol)
            assert graphs._connected(n, *np.nonzero(support))
            assert gs.validate_laplacian(m).checks["irreducible"].passed
