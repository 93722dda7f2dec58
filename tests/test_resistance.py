import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import graphsimplex as gs
from graphsimplex import resistance
from graphsimplex.config import DEFAULT
from graphsimplex.errors import (
    AsymmetricError,
    DegenerateDistanceMatrixError,
    GraphSimplexError,
    IndexOutOfRangeError,
    NonFiniteEntryError,
    NonZeroDiagonalError,
    RankDeficientError,
)

from conftest import connected_graphs, sized_graph
from oracles import (
    Parallel,
    Resistor,
    Series,
    complete_graph,
    contract_corpus,
    path_graph,
    random_graph,
    random_sp_network,
    run_cli,
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

    @pytest.mark.parametrize("i, j", [(True, 2), (0, False), (0.0, 2), (0, 1.5), ("0", 2)])
    def test_indices_must_be_integers(self, i, j):
        # (True, 2) used to raise a bare TypeError
        q = laplacian("a b 1\nb c 1")
        with pytest.raises(IndexOutOfRangeError, match="not an integer"):
            gs.effective_resistance(q, i, j)

    def test_numpy_integers_are_indices(self):
        q = laplacian("a b 1\nb c 1")
        assert gs.effective_resistance(q, np.int64(0), np.intp(2)) == \
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

    def test_resistance_beyond_the_float_range(self):
        # Q^dagger is finite (|entries| <= 5.6e307), omega(a, c) = 2e308 is
        # not; every answer that reads it raises, and none warns
        q = laplacian("a b 1e-308\nb c 1e-308\n")
        answers = [lambda: gs.effective_resistance(q, 0, 2),
                   lambda: gs.resistance_matrix(q),
                   lambda: gs.verify_fiedler_identity(q),
                   lambda: gs.check_resistance_preservation(q, [0, 2])]
        for answer in answers:
            with pytest.raises(NonFiniteEntryError,
                               match="^a squared distance overflows the float range$"):
                answer()
        assert gs.effective_resistance(q, 0, 1) == pytest.approx(1e308, rel=1e-12)
        assert gs.effective_resistance(q, 2, 2) == 0.0


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

    def test_distances_of_another_size_rejected(self):
        q = gs.build_laplacian(complete_graph(3))
        with pytest.raises(DegenerateDistanceMatrixError, match="shape"):
            gs.verify_identity_general(q.matrix, np.zeros((2, 2)))


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
        with pytest.raises(AsymmetricError):  # and no overflow warning
            gs.check_metric(np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]))
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
    """A resistance matrix, a random symmetric matrix, unit distances with a
    few planted long pairs, whose worst deficit ties on many triples, the
    unit path's resistances |i - j| and the squared distances of a 3-D
    point cloud: strict metrics in sqrt mode that the O(n^2) bound leaves
    open on most rows."""
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
    nodes = np.arange(n, dtype=float)
    yield np.abs(nodes[:, None] - nodes)
    points = rng.normal(size=(n, 3))
    yield ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)


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

    def test_violations_only_in_the_last_ragged_slab(self, monkeypatch):
        # on the unit path |i - j| the O(n^2) bound leaves most rows open;
        # d(99, 100) = 9 makes only the rows (99, j) and (100, j) with j in
        # 96..98 (98 alone in sqrt mode) violate, and those come last in C
        # order. 250 rows per chunk leave a ragged last chunk that holds them.
        n = 101
        monkeypatch.setattr(resistance, "_SLAB_ENTRIES", 250 * n)
        nodes = np.arange(n, dtype=float)
        d = np.abs(nodes[:, None] - nodes)
        d[99, 100] = d[100, 99] = 9.0
        calls = open_rows(monkeypatch)
        for mode, bad in (("plain", [96, 97, 98]), ("sqrt", [98])):
            assert_matches_full_tensor(d, mode)
            calls.clear()
            assert gs.check_metric(d, mode).violations == 2 * len(bad)
            (rows,) = calls
            pairs = np.flatnonzero(rows)
            last = (pairs.size - 1) // 250 * 250  # the last chunk's first row
            assert 0 < last and pairs.size % 250
            violating = [i * n + j for i in (99, 100) for j in bad]
            assert set(violating) <= set(pairs[last:].tolist())

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


def link_products(q):
    """The links i < j of the Laplacian q and w_ij * omega_ij on each."""
    omega = gs.resistance_matrix(q)
    i, j = np.nonzero(np.triu(q.matrix < 0, 1))
    return list(zip(i.tolist(), j.tolist())), -q.matrix[i, j] * omega[i, j]


@pytest.fixture(scope="module")
def theorem_corpus(small_corpus):
    return small_corpus + [gs.build_laplacian(sized_graph(7, 0, 200))]


def test_foster_theorem(theorem_corpus, rng):
    # sum over links of w * omega = n - 1, on Q and on its Kron reductions,
    # which are Laplacians again
    for q in theorem_corpus:
        laplacians = [q]
        if q.n >= 3:
            keep = rng.choice(q.n, size=q.n // 2 + 1, replace=False).tolist()
            laplacians += [gs.schur_complement(q, keep),
                           gs.kron_reduce_single(q, int(rng.integers(q.n)))]
        for r in laplacians:
            total = link_products(r)[1].sum()
            assert abs(total - (r.n - 1)) <= 1e-12 * (r.n - 1)


def test_a_link_is_a_bridge_iff_its_product_is_one(theorem_corpus):
    nx = pytest.importorskip("networkx")
    for q in theorem_corpus:
        links, products = link_products(q)
        bridges = {frozenset(link) for link in nx.bridges(nx.Graph(links))}
        assert bridges == {frozenset(link) for link, p in zip(links, products)
                           if p > 1.0 - 1e-9}


def assert_matches_full_tensor(d, mode):
    report = gs.check_metric(d, mode)
    got = (report.violations, report.worst_triple, report.worst_slack)
    want = full_tensor_metric(d, mode)
    assert got == want
    # == cannot tell 0.0 from -0.0
    assert np.signbit(got[2]) == np.signbit(want[2])


def understated_triangle():
    """Three points whose triangle inequality fails by 2^-38 in float64 on
    two triples, (0, 1, 2) and (2, 1, 0), while float32 rounds d02 down and
    d01 up: a float32 bound puts both rows at -7 * 2^-28 and -2^-25, inside
    delta = 2^-20 of the trivial maximum 0 but below -2^-28."""
    a = 0.3125 + 7 * 2.0**-28  # d01; rounds up to 0.3125 + 2^-25 in float32
    b = 0.375  # d12; exact in float32
    c = 0.6875 + 7 * 2.0**-28 + 2.0**-38  # d02; rounds down to 0.6875
    return np.array([[0, a, c], [a, 0, b], [c, b, 0]])


class TestMetricScreen:
    def test_deficit_the_float32_bound_understates(self):
        d = understated_triangle()
        f32 = np.float32
        assert (d[0, 2] - d[0, 1]) - d[1, 2] == 2.0**-38
        assert float(f32(d[0, 2]) - f32(d[1, 2])) - d[0, 1] == -7 * 2.0**-28
        assert float(f32(d[2, 0]) - f32(d[1, 0])) - d[2, 1] == -(2.0**-25)
        report = gs.check_metric(d, "plain")
        assert report.violations == 2 and report.worst_triple == (0, 1, 2)
        assert report.worst_slack == 2.0**-38
        for mode in ("plain", "sqrt"):
            assert_matches_full_tensor(d, mode)

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_power_of_two_scaling(self, power, rng):
        inputs = [understated_triangle(), *metric_inputs(17, rng), *metric_inputs(40, rng)]
        for d in inputs:
            for mode in ("plain", "sqrt"):
                assert_matches_full_tensor(np.ldexp(d, power), mode)

    def test_nonzero_diagonal_and_negative_entries(self, rng):
        for n in (3, 9, 30):
            a = rng.normal(size=(n, n))
            d = a + a.T  # about half the entries negative
            d[0, 1] = d[1, 0] = -2.0 * d.max()  # so max|d| > 1.1 max(d)
            scale = np.abs(d).max()
            for sign in (1.0, -1.0, 0.0):
                # within the allowed 1e-12 max|d|; a negative one exceeds the
                # slack, 1e-12 max(d), so the trivial triples (i, j, j) violate
                np.fill_diagonal(d, sign * 1e-12 * scale * rng.uniform(0.6, 1.0, n))
                for mode in ("plain", "sqrt"):
                    assert_matches_full_tensor(d, mode)
            np.fill_diagonal(d, 0.0)
            assert_matches_full_tensor(np.abs(d), "plain")  # positive, not a metric

    def test_trivial_triple_ties_an_earlier_one(self):
        # sqrt mode: node 3 sits at distance 0 from node 2 (d23 < 0) and
        # sqrt(d22) = eps = 2^-21, so the trivial triple (2, 3, 2) has
        # deficit eps, as do (0, 1, 2) and (0, 1, 3), which come first
        eps = 2.0**-21
        m = np.array([[0, 0.5, 0.75 + eps, 0.75 + eps], [0.5, 0, 0.25, 0.25],
                      [0.75 + eps, 0.25, eps, 0], [0.75 + eps, 0.25, 0, 0]])
        d = m * m
        d[2, 3] = d[3, 2] = -1.0
        report = gs.check_metric(d, "sqrt")
        assert report.worst_slack == eps and report.worst_triple == (0, 1, 2)
        for mode in ("plain", "sqrt"):
            assert_matches_full_tensor(d, mode)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewest_nodes(self, n, rng):
        for d in [*metric_inputs(n, rng), np.zeros((n, n))]:
            for mode in ("plain", "sqrt"):
                assert_matches_full_tensor(d, mode)
        if n == 3:
            assert_matches_full_tensor(understated_triangle(), "plain")

    @pytest.mark.parametrize("slab", [1, 40, 1000])
    def test_chunk_sizes(self, slab, rng, monkeypatch):
        monkeypatch.setattr(resistance, "_SLAB_ENTRIES", slab)
        d = np.ones((23, 23))
        np.fill_diagonal(d, 0.0)
        d[3, 20] = d[20, 3] = 2.0  # ties with the trivial maximum, 0
        d[5, 7] = d[7, 5] = 2.5  # violations
        inputs = [understated_triangle(), d, *metric_inputs(23, rng)]
        for d in inputs:
            for mode in ("plain", "sqrt"):
                assert_matches_full_tensor(d, mode)


def open_rows(monkeypatch):
    """The rows check_metric's O(n^2) bound leaves open, as an n x n mask
    per call: those it hands to ``_recheck`` in float64."""
    calls = []
    inner = resistance._recheck

    def recheck(m, pairs, *tally):
        rows = np.zeros(m.shape, bool)
        rows.flat[pairs] = True
        calls.append(rows)
        return inner(m, pairs, *tally)

    monkeypatch.setattr(resistance, "_recheck", recheck)
    return calls


def row_maxima_and_cut(d, mode):
    """max over k outside {i, j} of the full tensor's deficit[i, j, k] for
    each row (i, j) with j != i, and min(worst trivial deficit, slack)."""
    m = np.sqrt(np.maximum(d, 0.0)) if mode == "sqrt" else d
    slack = DEFAULT.metric_slack * max(float(m.max(initial=0.0)), np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        deficit = m[:, None, :] - m[:, :, None] - m[None, :, :]
    i, j, k = np.indices(deficit.shape)
    trivial = (i == j) | (k == i) | (k == j)
    cut = min(float(deficit[trivial].max()), slack)
    deficit[trivial] = -np.inf
    return deficit.max(axis=2), cut


def certificate_inputs(rng):
    inputs = [understated_triangle()]
    for n in (3, 4, 17, 40, 130):
        inputs += metric_inputs(n, rng)
    return inputs + [np.ldexp(d, power) for d in inputs for power in (-1000, 1000)]


class TestMetricCertificate:
    """check_metric's O(n^2) bound closes rows before the float64 recheck; a
    closed row is not rechecked, so it must hold no deficit at the cut, and
    the report stays the full tensor's."""

    def test_closed_rows_hold_no_deficit_at_the_cut(self, rng, monkeypatch):
        calls = open_rows(monkeypatch)
        closed_somewhere = 0
        for d in certificate_inputs(rng):
            for mode in ("plain", "sqrt"):
                calls.clear()
                gs.check_metric(d, mode)
                (rows,) = calls
                closed = ~rows & ~np.eye(len(d), dtype=bool)
                maxima, cut = row_maxima_and_cut(d, mode)
                assert (maxima[closed] < cut).all()
                closed_somewhere += int(closed.any())
        assert closed_somewhere >= 10  # the bound closes rows on most inputs

    def test_row_just_below_the_cut_stays_open(self, monkeypatch):
        # collinear points: the triple (0, 1, 3) is tight until d03 drops
        # by 2^-40, so row (0, 1) peaks 2^-40 below the trivial maximum 0
        x = np.array([0.25, 0.5, 0.0, 0.75])
        d = np.abs(x[:, None] - x[None, :])
        d[0, 3] = d[3, 0] = 0.5 - 2.0**-40
        maxima, cut = row_maxima_and_cut(d, "plain")
        assert cut == 0.0 and maxima[0, 1] == -(2.0**-40)
        calls = open_rows(monkeypatch)
        assert_matches_full_tensor(d, "plain")  # (2, 0, 3) now fails by 2^-40
        assert calls[0][0, 1]

    def test_every_corpus_resistance_matrix(self):
        answered = 0
        for text, _ in itertools.chain(contract_corpus(0), contract_corpus(1)):
            try:
                omega = gs.resistance_matrix(gs.build_laplacian(gs.parse_graph(text)))
            except GraphSimplexError:
                continue
            answered += 1
            for mode in ("plain", "sqrt"):
                gs.check_metric(omega, mode)  # without a RuntimeWarning
                with np.errstate(over="ignore"):  # for the n^3 reference
                    assert_matches_full_tensor(omega, mode)
        assert answered >= 100

    def test_no_tile_on_a_bench_resistance_matrix(self, monkeypatch):
        omega = gs.resistance_matrix(gs.build_laplacian(sized_graph(7, 0, 200)))
        calls = open_rows(monkeypatch)
        assert gs.check_metric(omega, "sqrt").passed
        (rows,) = calls
        assert not rows.any()  # no row to recheck: no chunk is formed

    def test_tight_metric_screens_almost_every_row(self, monkeypatch):
        n = 200
        omega = gs.resistance_matrix(gs.build_laplacian(path_graph(n)))
        calls = open_rows(monkeypatch)
        assert gs.check_metric(omega, "plain").passed
        (rows,) = calls
        assert rows.sum() >= 0.99 * n * (n - 1)


class TestDeficitOverflow:
    """omega(a, c) = 1.625e308 is finite, but (m_ik - m_ij) - m_jk is not:
    it overflows to -inf, the sign of the exact deficit, without a
    RuntimeWarning (pytest makes one an error)."""

    TEXT = "a b 1e-308\nb c 1.6e-308\n"

    def test_library(self):
        omega = gs.resistance_matrix(laplacian(self.TEXT))
        assert np.isfinite(omega).all() and omega.max() > 1.6e308
        for mode in ("plain", "sqrt"):
            report = gs.check_metric(omega, mode)
            assert report.passed and report.violations == 0
            with np.errstate(over="ignore"):  # for the n^3 reference
                assert_matches_full_tensor(omega, mode)

    def test_cli(self):
        for argv, line in ((["metric-check", "-"], "0 violations (mode plain)"),
                           (["metric-check", "--sqrt", "-"], "0 violations (mode sqrt)")):
            assert run_cli(argv, self.TEXT) == (0, line + "\n")


class TestSymmetricBlocks:
    """Both sides of the block identity are symmetric, so one product A @ B
    decides it; a matrix that is not symmetric is refused, not averaged."""

    PATH_OMEGA = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])

    def test_asymmetric_distances_rejected(self):
        d = self.PATH_OMEGA.copy()
        d[1, 0] = 1.5
        with pytest.raises(AsymmetricError):
            gs.verify_identity_general(laplacian("a b 1\nb c 1").matrix, d)

    def test_rounding_asymmetry_is_half_summed(self):
        d = self.PATH_OMEGA.copy()
        d[0, 2] *= 1.0 + 1e-13
        mdag = laplacian("a b 1\nb c 1").matrix
        report = gs.verify_identity_general(mdag, d)
        assert report == gs.verify_identity_general(mdag, 0.5 * (d + d.T))
        assert report.residual_ab == report.residual_ba <= 1e-12

    def test_one_product_per_check(self, monkeypatch):
        calls = []
        inner = resistance._max_abs_minus_identity
        monkeypatch.setattr(resistance, "_max_abs_minus_identity",
                            lambda x: calls.append(x.shape) or inner(x))
        q = gs.build_laplacian(complete_graph(4))
        gs.verify_fiedler_identity(q)
        assert calls == [(5, 5)]
        gs.verify_identity_general(q.matrix, gs.resistance_matrix(q))
        assert calls == [(5, 5)] * 2

    def test_asymmetric_laplacian_answers_as_its_symmetric_part(self, small_corpus):
        for q0 in small_corpus[:5]:
            a = np.array(q0.matrix)
            a[0, 1] += 1e-12 * np.diag(a).max()
            q = gs.LaplacianMatrix.from_matrix(a)
            assert not np.array_equal(q.matrix, q.matrix.T)
            ref = gs.LaplacianMatrix(q.symmetric)
            assert gs.verify_fiedler_identity(q) == gs.verify_fiedler_identity(ref)
            got, want = gs.inverse_resistance_matrix(q), gs.inverse_resistance_matrix(ref)
            assert got.tobytes() == want.tobytes()
