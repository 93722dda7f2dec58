import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import graphsimplex as gs
from graphsimplex import resistance
from graphsimplex.config import DEFAULT
from graphsimplex.errors import (
    AsymmetricError,
    IndexOutOfRangeError,
    NonZeroDiagonalError,
    RankDeficientError,
)

from conftest import connected_graphs
from oracles import (
    Parallel,
    Resistor,
    Series,
    complete_graph,
    random_graph,
    random_sp_network,
    sp_document,
    sp_resistance,
    sp_terminals,
)

NONHYPERACUTE = 9.0 * np.array(
    [[7, 1, -4, -4], [1, 7, -4, -4], [-4, -4, 12, -4], [-4, -4, -4, 12]], float
)


def laplacian(doc):
    return gs.build_laplacian(gs.parse_graph(doc))


class TestEffectiveResistance:
    def test_single_edge(self):
        # one resistor of 1/w ohms
        q = laplacian("a b 4")
        assert gs.effective_resistance(q, 0, 1) == pytest.approx(0.25, rel=1e-12)

    def test_path_series_rule(self):
        q = laplacian("a b 1\nb c 1")
        assert gs.effective_resistance(q, 0, 2) == pytest.approx(2.0, rel=1e-12)

    def test_triangle_parallel_rule(self):
        # 1 ohm in parallel with 1+1 ohms
        q = gs.build_laplacian(complete_graph(3))
        assert gs.effective_resistance(q, 0, 1) == pytest.approx(2 / 3, rel=1e-12)

    def test_diagonal_zero_and_errors(self):
        q = laplacian("a b 1")
        assert gs.effective_resistance(q, 0, 0) == 0.0
        with pytest.raises(IndexOutOfRangeError):
            gs.effective_resistance(q, 0, 2)

    def test_series_parallel_oracle(self, rng):
        for _ in range(25):
            net = random_sp_network(rng)
            g = gs.parse_graph(sp_document(net))
            a, b = sp_terminals(g)
            got = gs.effective_resistance(gs.build_laplacian(g), a, b)
            assert got == pytest.approx(sp_resistance(net), rel=1e-10)

    def test_nested_fixed_network(self):
        net = Series(Parallel(Resistor(2.0), Resistor(2.0)), Resistor(3.0))
        g = gs.parse_graph(sp_document(net))
        a, b = sp_terminals(g)
        assert gs.effective_resistance(gs.build_laplacian(g), a, b) == pytest.approx(4.0, rel=1e-12)


class TestResistanceMatrix:
    def test_single_edge(self):
        assert gs.resistance_matrix(laplacian("a b 1")) == pytest.approx(
            np.array([[0, 1], [1, 0]]), abs=1e-12)

    def test_triangle(self):
        omega = gs.resistance_matrix(gs.build_laplacian(complete_graph(3)))
        off = omega[~np.eye(3, dtype=bool)]
        assert off == pytest.approx(np.full(6, 2 / 3), rel=1e-12)

    def test_matches_pairwise(self, small_corpus):
        for q in small_corpus:
            omega = gs.resistance_matrix(q)
            assert np.abs(np.diag(omega)).max() == 0.0
            for i in range(q.n):
                for j in range(q.n):
                    pair = gs.effective_resistance(q, i, j)
                    assert abs(omega[i, j] - pair) <= 1e-10 * max(1.0, pair)


class TestFiedlerBlocks:
    def test_single_edge(self):
        fb = gs.fiedler_blocks(laplacian("a b 1"))
        assert fb.zeta == pytest.approx([0.25, 0.25], abs=1e-12)
        assert fb.r == pytest.approx([0.5, 0.5], abs=1e-12)
        assert fb.radius == pytest.approx(0.5, abs=1e-12)

    def test_triangle(self):
        fb = gs.fiedler_blocks(gs.build_laplacian(complete_graph(3)))
        assert fb.r == pytest.approx(np.full(3, 1 / 3), abs=1e-12)
        # equilateral circumradius side/sqrt(3) with side sqrt(2/3)
        assert fb.radius == pytest.approx(np.sqrt(2) / 3, rel=1e-12)

    def test_affine_coordinate_and_radius_identities(self, small_corpus):
        for q in small_corpus:
            fb = gs.fiedler_blocks(q)
            assert fb.r.sum() == pytest.approx(1.0, abs=1e-9)
            omega = gs.resistance_matrix(q)
            quad = fb.r @ omega @ fb.r
            assert np.abs(omega @ fb.r - quad).max() <= 1e-8 * max(1.0, abs(quad))
            assert fb.radius**2 == pytest.approx(0.5 * quad, rel=1e-8)


class TestBlockIdentity:
    def test_single_edge(self):
        assert gs.verify_fiedler_identity(laplacian("a b 1")).residual <= 1e-12

    def test_triangle(self):
        q = gs.build_laplacian(complete_graph(3))
        assert gs.verify_fiedler_identity(q).residual <= 1e-10

    def test_random_graph_n20(self, rng):
        from oracles import random_graph
        q = gs.build_laplacian(random_graph(rng, n=20))
        assert gs.verify_fiedler_identity(q).residual <= 1e-8

    def test_general_form_matches_on_laplacians(self, small_corpus):
        for q in small_corpus[:5]:
            specific = gs.verify_fiedler_identity(q)
            general = gs.verify_identity_general(q.matrix)
            assert general.residual <= max(1e-8, 10 * specific.residual)

    def test_general_form_nonhyperacute(self):
        assert gs.verify_identity_general(NONHYPERACUTE).residual <= 1e-8

    def test_two_point_distances(self):
        mdag = np.array([[0.5, -0.5], [-0.5, 0.5]])
        # pinv has diagonal 1/2, so the derived squared distance is 2
        report = gs.verify_identity_general(mdag, np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert report.residual <= 1e-12

    def test_rank_deficient_rejected(self):
        k2 = np.array([[1, -1], [-1, 1]], float)
        block = np.block([[k2, np.zeros((2, 2))], [np.zeros((2, 2)), k2]])
        with pytest.raises(RankDeficientError):
            gs.verify_identity_general(block)


class TestInverseResistanceMatrix:
    def test_single_edge(self):
        # -1/2 ([[1,-1],[-1,1]] - rr^T/R^2) with r = u/2, R = 1/2 gives the
        # matrix [[0,1],[1,0]], its own inverse
        inv = gs.inverse_resistance_matrix(laplacian("a b 1"))
        assert inv == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]), abs=1e-12)

    def test_triangle_product(self):
        q = gs.build_laplacian(complete_graph(3))
        product = gs.resistance_matrix(q) @ gs.inverse_resistance_matrix(q)
        assert np.abs(product - np.eye(3)).max() <= 1e-10

    def test_symmetry_and_inverse_on_corpus(self, small_corpus):
        for q in small_corpus:
            inv = gs.inverse_resistance_matrix(q)
            assert np.abs(inv - inv.T).max() == 0.0
            product = gs.resistance_matrix(q) @ inv
            assert np.abs(product - np.eye(q.n)).max() <= 1e-8


class TestCheckMetric:
    def test_resistances_are_metric(self, small_corpus):
        for q in small_corpus:
            omega = gs.resistance_matrix(q)
            assert gs.check_metric(omega, "plain").passed
            assert gs.check_metric(omega, "sqrt").passed

    def test_constructed_violation(self):
        d = np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]], float)
        report = gs.check_metric(d, "plain")
        assert not report.passed
        assert report.violations > 0
        assert report.worst_slack == pytest.approx(7.0)
        # the square roots 1, 1, 3 still violate 1 + 1 >= 3
        assert not gs.check_metric(d, "sqrt").passed

    def test_sqrt_can_pass_where_plain_fails(self):
        d = np.array([[0, 1, 3.9], [1, 0, 1], [3.9, 1, 0]], float)
        assert not gs.check_metric(d, "plain").passed
        assert gs.check_metric(d, "sqrt").passed

    def test_input_errors(self):
        with pytest.raises(NonZeroDiagonalError):
            gs.check_metric(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(AsymmetricError):
            gs.check_metric(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            gs.check_metric(np.zeros((2, 2)), mode="cubed")


def full_tensor_metric(d, mode):
    """(violations, worst_triple, worst_slack) from the whole n^3 deficit
    tensor, the reference for the slab-wise check."""
    m = np.sqrt(np.maximum(d, 0.0)) if mode == "sqrt" else d
    slack = DEFAULT.metric_slack * max(float(m.max(initial=0.0)), np.finfo(float).tiny)
    deficit = m[:, None, :] - m[:, :, None] - m[None, :, :]
    violations = int(np.count_nonzero(deficit > slack))
    triple = None
    if violations:
        triple = tuple(int(x) for x in
                       np.unravel_index(int(np.argmax(deficit)), deficit.shape))
    return violations, triple, float(deficit.max())


def metric_inputs(n, rng):
    """A resistance matrix, a random symmetric matrix, and unit distances
    with a few planted long pairs, whose worst deficit ties on many triples."""
    if n >= 2:
        yield gs.resistance_matrix(gs.build_laplacian(random_graph(rng, n=n)))
    a = rng.uniform(0.1, 1.0, (n, n))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    yield a
    planted = np.ones((n, n))
    np.fill_diagonal(planted, 0.0)
    if n >= 3:
        for _ in range(3):
            i, k = rng.choice(n, size=2, replace=False)
            planted[i, k] = planted[k, i] = 5.0
    yield planted


class TestCheckMetricSlabs:
    @pytest.mark.parametrize("slab", [None, 1, 40, 1000])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40, 130])
    def test_matches_full_tensor(self, n, slab, rng, monkeypatch):
        if slab is not None:
            monkeypatch.setattr(resistance, "_SLAB_ENTRIES", slab)
        for d in metric_inputs(n, rng):
            for mode in ("plain", "sqrt"):
                report = gs.check_metric(d, mode)
                got = (report.violations, report.worst_triple, report.worst_slack)
                assert got == full_tensor_metric(d, mode)

    def test_memory_is_bounded(self):
        points = np.random.default_rng(5).normal(size=(200, 3))
        d = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        tracemalloc.start()
        try:
            gs.check_metric(d, "plain")
            gs.check_metric(d, "sqrt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full 200^3 deficit tensor alone is 64 MB
        assert peak < 40e6


@given(connected_graphs())
@settings(max_examples=30, deadline=None)
def test_metric_and_identity_properties(g):
    q = gs.build_laplacian(g)
    omega = gs.resistance_matrix(q)
    assert gs.check_metric(omega, "plain").passed
    assert gs.check_metric(omega, "sqrt").passed
    assert gs.verify_fiedler_identity(q).residual <= 1e-8


def test_resistance_matches_networkx(small_corpus):
    nx = pytest.importorskip("networkx")
    for q in small_corpus:
        g = nx.Graph()
        i, j = np.nonzero(np.triu(q.matrix, 1))
        g.add_weighted_edges_from(
            (a, b, -q.matrix[a, b]) for a, b in zip(i.tolist(), j.tolist()))
        ref = nx.resistance_distance(g, weight="weight", invert_weight=False)
        want = np.array([[ref[a][b] for b in range(q.n)] for a in range(q.n)])
        got = gs.resistance_matrix(q)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
