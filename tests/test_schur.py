
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

import graphsimplex as gs
from graphsimplex.config import DEFAULT
from graphsimplex.errors import (
    DuplicateIndexError,
    EmptySubsetError,
    FaceTooSmallError,
    GraphSimplexError,
    IndexOutOfRangeError,
    SubsetViolationError,
    TooSmallError,
)

from graphsimplex import linalg
from graphsimplex.schur import (
    _canonicalize,
    _canonicalize_in_place,
    _eliminate_in_order,
)

from conftest import UNRESOLVED_TREE, connected_graphs, record_shapes, sized_graph
from oracles import complete_graph, path_graph, random_graph, unit_graph


def laplacian(doc):
    return gs.build_laplacian(gs.parse_graph(doc))


class TestSchurComplement:
    def test_path_endpoints(self):
        # eliminating the middle of a unit path leaves a single 1/2 link
        q = gs.build_laplacian(path_graph(3))
        reduced = gs.schur_complement(q, [0, 2])
        assert reduced.matrix == pytest.approx(
            np.array([[0.5, -0.5], [-0.5, 0.5]]), abs=1e-12)

    def test_triangle_pair(self):
        # parallel combination: 1 + 1/2 = 3/2 siemens between the kept pair
        q = gs.build_laplacian(complete_graph(3))
        reduced = gs.schur_complement(q, [0, 1])
        assert reduced.matrix == pytest.approx(
            np.array([[1.5, -1.5], [-1.5, 1.5]]), abs=1e-12)

    def test_keep_all_is_identity(self):
        q = gs.build_laplacian(complete_graph(4))
        assert np.array_equal(gs.schur_complement(q, [0, 1, 2, 3]).matrix, q.matrix)

    def test_keep_all_permuted(self):
        q = gs.build_laplacian(path_graph(3))
        reduced = gs.schur_complement(q, [2, 0, 1])
        perm = [2, 0, 1]
        assert np.array_equal(reduced.matrix, q.matrix[np.ix_(perm, perm)])

    def test_closure_on_corpus(self, small_corpus, rng):
        for q in small_corpus:
            if q.n < 3:
                continue
            k = int(rng.integers(2, q.n))
            keep = sorted(rng.choice(q.n, size=k, replace=False).tolist())
            reduced = gs.schur_complement(q, keep)
            report = gs.validate_laplacian(reduced.matrix)
            assert report.passed and report.consistent

    def test_errors(self):
        q = gs.build_laplacian(path_graph(3))
        with pytest.raises(EmptySubsetError):
            gs.schur_complement(q, [])
        with pytest.raises(DuplicateIndexError):
            gs.schur_complement(q, [0, 0])
        with pytest.raises(IndexOutOfRangeError):
            gs.schur_complement(q, [0, 3])

    @pytest.mark.parametrize("keep", [[0, 1.5], [0, True], [0.0, 2.0], [np.float64(0), 2]],
                             ids=["fraction", "bool", "whole-floats", "numpy-float"])
    def test_indices_must_be_integers(self, keep):
        # 1.5 used to reach numpy as a bare IndexError, True to keep node 1
        q = gs.build_laplacian(path_graph(3))
        with pytest.raises(IndexOutOfRangeError, match="not an integer"):
            gs.schur_complement(q, keep)

    def test_whole_floats_do_not_match_the_kept_reduction(self):
        # 0.0 == 0 and hash(0.0) == hash(0): a float key used to answer
        # exactly when the integer reduction was the one kept
        q = gs.build_laplacian(path_graph(3))
        gs.schur_complement(q, [0, 2])
        with pytest.raises(IndexOutOfRangeError, match="not an integer"):
            gs.schur_complement(q, [0.0, 2.0])

    def test_numpy_integers_are_indices(self):
        q = gs.build_laplacian(path_graph(3))
        want = gs.schur_complement(q, [0, 2]).matrix
        assert np.array_equal(gs.schur_complement(q, np.array([0, 2])).matrix, want)
        assert np.array_equal(gs.schur_complement(q, [np.int32(0), np.uint8(2)]).matrix, want)

    def test_single_kept_node_is_positive_zero(self):
        # a lone node has no links; -0.0 would print as "-0" in the CLI
        q = gs.build_laplacian(path_graph(3))
        reduced = gs.schur_complement(q, [1]).matrix
        assert reduced.shape == (1, 1) and reduced[0, 0] == 0.0
        assert not np.signbit(reduced[0, 0])

    def test_not_positive_definite_rejected(self):
        # link a-b plus an isolated node c: eliminating {b, c} leaves a
        # singular block, which no valid connected Laplacian has
        q = gs.LaplacianMatrix(np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], float))
        with pytest.raises(GraphSimplexError):
            gs.schur_complement(q, [0])


class TestKronReduceSingle:
    def test_star_becomes_triangle(self):
        # unit star on 4 nodes: eliminating the hub yields K3 with weight 1/3
        q = laplacian("h a 1\nh b 1\nh c 1")
        reduced = gs.kron_reduce_single(q, 0)
        expected = (np.eye(3) - np.full((3, 3), 1 / 3)) * 1.0
        assert reduced.matrix == pytest.approx(expected, abs=1e-12)

    def test_matches_schur_complement(self, small_corpus, rng):
        for q in small_corpus[:10]:
            if q.n < 3:
                continue
            node = int(rng.integers(0, q.n))
            keep = [i for i in range(q.n) if i != node]
            single = gs.kron_reduce_single(q, node)
            block = gs.schur_complement(q, keep)
            assert np.abs(single.matrix - block.matrix).max() <= 1e-12 * max(
                1.0, np.abs(block.matrix).max())

    def test_bitwise_equal_to_reference_formula(self, small_corpus):
        # the rank-one formula Q' + diag(q_v) - q_v q_v^T / d_v, then
        # re-canonicalization; the Cholesky step agrees with it to rounding
        def reference(m, node):
            rest = [i for i in range(len(m)) if i != node]
            qv = -m[rest, node]
            core = m[np.ix_(rest, rest)] - np.diag(qv)
            raw = core + np.diag(qv) - np.outer(qv, qv) / m[node, node]
            sym = 0.5 * (raw + raw.T)
            scale = max(float(np.abs(np.diag(sym)).max()), np.finfo(float).tiny)
            off = sym - np.diag(np.diag(sym))
            off[(off > 0) & (off <= DEFAULT.clamp * scale)] = 0.0
            out = off.copy()
            np.fill_diagonal(out, -off.sum(axis=1))
            return out

        eps = np.finfo(float).eps
        for q in small_corpus:
            if q.n < 3:
                continue
            for node in range(q.n):
                got = gs.kron_reduce_single(q, node).matrix
                others = [i for i in range(q.n) if i != node]
                assert np.array_equal(got, gs.schur_complement(q, others).matrix)
                ref = reference(q.matrix, node)
                assert np.abs(got - ref).max() <= 4 * eps * np.abs(ref).max()

    @pytest.mark.parametrize("w", ["1e-310", "1e-200", "1e300"])
    def test_star_becomes_triangle_at_any_scale(self, w):
        # here q_v q_v^T, formed as written, underflows to zero (1e-200,
        # 1e-310) or overflows (1e300)
        q = laplacian(f"h a {w}\nh b {w}\nh c {w}")
        want = (3.0 * np.eye(3) - np.ones((3, 3))) * (float(w) / 3.0)
        got = gs.kron_reduce_single(q, 0).matrix
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("matrix", [
        [[0, 0, 0], [0, 1, -1], [0, -1, 1]],  # node 0 has degree zero
        [[-1, 0.5, 0.5], [0.5, 0.5, -1], [0.5, -1, 0.5]],  # a negative pivot
    ], ids=["zero-degree", "negative-pivot"])
    def test_not_positive_definite_pivot_rejected(self, matrix):
        # no valid connected Laplacian has a zero or negative pivot
        q = gs.LaplacianMatrix(np.array(matrix, float))
        with pytest.raises(GraphSimplexError, match="not positive definite"):
            gs.kron_reduce_single(q, 0)

    def test_asymmetric_input_gives_symmetric_result(self, rng):
        # from_matrix accepts asymmetry within the validation tolerance; the
        # reduction must still be an exactly symmetric Laplacian
        m = gs.build_laplacian(random_graph(rng, n=12)).matrix.copy()
        noise = np.triu(rng.normal(scale=1e-11, size=m.shape), 1)
        m += noise
        m -= np.diag(m.sum(axis=1))
        q = gs.LaplacianMatrix.from_matrix(m)
        assert not np.array_equal(q.matrix, q.matrix.T)
        for node in range(q.n):
            reduced = gs.kron_reduce_single(q, node).matrix
            assert np.array_equal(reduced, reduced.T)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            gs.kron_reduce_single(laplacian("a b 1"), 0)

    @pytest.mark.parametrize("node", [True, 1.5, np.float64(1.0), "1"],
                             ids=["bool", "fraction", "numpy-float", "string"])
    def test_node_must_be_an_integer(self, node):
        # True used to eliminate node 1; the others reached numpy as a bare
        # IndexError or TypeError
        q = gs.build_laplacian(path_graph(3))
        with pytest.raises(IndexOutOfRangeError, match="not an integer"):
            gs.kron_reduce_single(q, node)

    @pytest.mark.parametrize("node", [3, -1])
    def test_node_out_of_range(self, node):
        with pytest.raises(IndexOutOfRangeError, match="out of range for n=3"):
            gs.kron_reduce_single(gs.build_laplacian(path_graph(3)), node)

    def test_numpy_integers_are_nodes(self):
        q = gs.build_laplacian(path_graph(4))
        want = gs.kron_reduce_single(q, 1).matrix
        for node in (np.int64(1), np.uint8(1)):
            assert np.array_equal(gs.kron_reduce_single(q, node).matrix, want)


class TestSchurViaPinv:
    def test_matches_block_elimination(self, small_corpus, rng):
        for q in small_corpus:
            if q.n < 3:
                continue
            k = int(rng.integers(2, q.n))
            keep = sorted(rng.choice(q.n, size=k, replace=False).tolist())
            via_pinv = gs.schur_via_pinv(q, keep)
            direct = gs.schur_complement(q, keep)
            scale = max(1.0, np.abs(direct.matrix).max())
            assert np.abs(via_pinv.matrix - direct.matrix).max() <= 1e-8 * scale

    def test_keep_all_recovers_input(self, small_corpus):
        for q in small_corpus[:10]:
            recovered = gs.schur_via_pinv(q, list(range(q.n)))
            scale = max(1.0, np.abs(q.matrix).max())
            assert np.abs(recovered.matrix - q.matrix).max() <= 1e-9 * scale

    def test_agrees_with_face_gram(self, rng):
        # for a Laplacian the reduced matrix is the face pseudoinverse Gram
        q = gs.build_laplacian(random_graph(rng, n=8))
        keep = [1, 3, 4, 6]
        face = gs.face_gram(gs.gram_pair_from_laplacian(q), keep)
        reduced = gs.schur_complement(q, keep)
        scale = max(1.0, np.abs(reduced.matrix).max())
        assert np.abs(face.pinv_gram - reduced.matrix).max() <= 1e-8 * scale

    def test_needs_two_nodes(self):
        q = gs.build_laplacian(path_graph(3))
        with pytest.raises(FaceTooSmallError):
            gs.schur_via_pinv(q, [1])

    def test_matches_projector_reference(self, small_corpus, rng):
        # the route before it became the face Gram: the dense projector
        # J = I - uu^T/k around the kept block of Q^dagger
        for q in small_corpus:
            k = int(rng.integers(2, q.n + 1))
            keep = rng.choice(q.n, size=k, replace=False).tolist()
            j = np.eye(k) - np.full((k, k), 1.0 / k)
            centered = j @ q.pinv[np.ix_(keep, keep)] @ j
            reduced = gs.pinv_kernel_u(0.5 * (centered + centered.T))
            want = _canonicalize(reduced)
            got = gs.schur_via_pinv(q, keep).matrix
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestCheckQuotient:
    def test_no_elimination_is_exact(self):
        q = gs.build_laplacian(complete_graph(4))
        v = [0, 1, 2, 3]
        report = gs.check_quotient(q, v, v)
        assert report.residual == 0.0

    def test_path4_two_stage(self):
        q = gs.build_laplacian(path_graph(4))
        report = gs.check_quotient(q, [0, 1, 3], [0, 3])
        assert report.residual <= 1e-12

    def test_random_corpus(self, small_corpus, rng):
        for seed, q in enumerate(small_corpus[:10]):
            if q.n < 4:
                continue
            k_v = int(rng.integers(3, q.n))
            v = sorted(rng.choice(q.n, size=k_v, replace=False).tolist())
            k_w = int(rng.integers(2, k_v))
            w = sorted(rng.choice(v, size=k_w, replace=False).tolist())
            report = gs.check_quotient(q, v, w, seed=seed)
            assert report.residual <= 1e-9
            assert report.seed == seed
            assert set(report.elimination_order) == set(range(q.n)) - set(w)

    def test_subset_violation(self):
        q = gs.build_laplacian(path_graph(4))
        with pytest.raises(SubsetViolationError):
            gs.check_quotient(q, [0, 1], [0, 3])

    def test_incremental_matches_folded_single_eliminations(self, small_corpus, rng):
        graphs = small_corpus + [gs.build_laplacian(random_graph(rng, n=60))]
        for seed, q in enumerate(graphs):
            if q.n < 4:
                continue
            v = sorted(rng.choice(q.n, size=int(rng.integers(3, q.n)),
                                  replace=False).tolist())
            w = sorted(rng.choice(v, size=int(rng.integers(2, len(v))),
                                  replace=False).tolist())
            report = gs.check_quotient(q, v, w, seed=seed)
            complement = [i for i in range(q.n) if i not in w]
            assert report.elimination_order == tuple(
                np.random.default_rng(seed).permutation(complement))

            folded, remaining = q, list(range(q.n))
            for node in report.elimination_order:
                folded = gs.kron_reduce_single(folded, remaining.index(node))
                remaining.remove(node)
            perm = [remaining.index(i) for i in w]
            expected = folded.matrix[np.ix_(perm, perm)]
            incremental = _eliminate_in_order(q, w, report.elimination_order)
            assert np.abs(incremental - expected).max() <= 1e-12 * np.abs(expected).max()
            one_shot = gs.schur_complement(q, w).matrix
            assert report.incremental_residual == np.abs(one_shot - incremental).max()


def folded_single_eliminations(q, w, order):
    """Q reduced onto W by one kron_reduce_single per node of ``order``,
    rows following W."""
    folded, remaining = q, list(range(q.n))
    for node in order:
        folded = gs.kron_reduce_single(folded, remaining.index(node))
        remaining.remove(node)
    perm = [remaining.index(i) for i in w]
    return folded.matrix[np.ix_(perm, perm)]


class TestPanelElimination:
    # n - |W| nodes are eliminated: 197, 512 and 123
    @pytest.mark.parametrize("n, k_w", [(200, 3), (516, 4), (128, 5)])
    def test_matches_folded_single_eliminations(self, n, k_w):
        rng = np.random.default_rng(n)
        q = gs.build_laplacian(random_graph(rng, n=n))
        w = sorted(rng.choice(n, size=k_w, replace=False).tolist())
        v = sorted(set(w) | set(rng.choice(n, size=n // 2, replace=False).tolist()))
        report = gs.check_quotient(q, v, w, seed=n)
        complement = [i for i in range(n) if i not in w]
        assert report.elimination_order == tuple(
            np.random.default_rng(n).permutation(complement))
        expected = folded_single_eliminations(q, w, report.elimination_order)
        incremental = _eliminate_in_order(q, w, report.elimination_order)
        assert np.abs(incremental - expected).max() <= 1e-12 * np.abs(expected).max()
        assert report.incremental_residual <= 1e-12 * np.abs(expected).max()

    def test_ragged_panel_after_full_ones(self):
        # 549 nodes eliminated
        n = 552
        rng = np.random.default_rng(n)
        q = gs.build_laplacian(random_graph(rng, n=n))
        w = sorted(rng.choice(n, size=3, replace=False).tolist())
        order = tuple(rng.permutation([i for i in range(n) if i not in w]).tolist())
        expected = folded_single_eliminations(q, w, order)
        incremental = _eliminate_in_order(q, w, order)
        assert np.abs(incremental - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_not_positive_definite_pivot_rejected(self):
        # the isolated node c makes the eliminated block singular
        q = gs.LaplacianMatrix(np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], float))
        with pytest.raises(GraphSimplexError, match="not positive definite"):
            _eliminate_in_order(q, [0, 1], [2])


def lu_route_reduction(q, keep):
    """Q reduced onto ``keep`` with the whole Cholesky factor of the
    eliminated block passed to one np.linalg.solve, a pivoted LU: the
    reference for forward substitution."""
    elim = [i for i in range(q.n) if i not in keep]
    perm = list(keep) + elim
    buf = q.symmetric[np.ix_(perm, perm)]
    k = len(keep)
    x = np.linalg.solve(np.linalg.cholesky(buf[k:, k:]), buf[k:, :k])
    core = buf[:k, :k]
    core -= x.T @ x
    _canonicalize_in_place(core)
    return core


class TestForwardSubstitution:
    # 280, 150 and 20 eliminated nodes: the last fits in one leaf
    @pytest.mark.parametrize("k", [20, 150, 280])
    def test_matches_the_lu_route(self, k):
        rng = np.random.default_rng(k)
        q = gs.build_laplacian(random_graph(rng, n=300))
        keep = rng.permutation(300)[:k].tolist()
        got = gs.schur_complement(q, keep).matrix
        want = lu_route_reduction(q, keep)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if q.n - k <= linalg._LEAF:
            assert np.array_equal(got, want)

    def test_reductions_solve_only_leaves(self, monkeypatch):
        # every pivoted LU inside a reduction is on one leaf of lower_solve
        rng = np.random.default_rng(3)
        q = gs.build_laplacian(random_graph(rng, n=300))
        v = rng.permutation(300)[:100].tolist()
        solve_calls = record_shapes(monkeypatch, "solve")
        gs.schur_complement(q, v)
        gs.check_resistance_preservation(q, v)
        gs.check_quotient(q, v, v[:30], seed=3)
        assert solve_calls
        assert all(rows <= linalg._LEAF for rows, _ in solve_calls)


class TestGathers:
    def test_no_reduction_gathers_the_whole_matrix(self, monkeypatch):
        # each reduction gathers its kept, eliminated and coupling blocks,
        # never Q permuted whole
        rng = np.random.default_rng(60)
        q = gs.build_laplacian(random_graph(rng, n=60))
        v = rng.permutation(60)[:30].tolist()
        shapes = []
        gather = linalg.submatrix

        def recording(m, rows, cols):
            out = gather(m, rows, cols)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(linalg, "submatrix", recording)
        gs.schur_complement(q, v)
        assert shapes == [(30, 30), (30, 30), (30, 30)]
        for reduce in (lambda: gs.kron_reduce_single(q, 7),
                       lambda: gs.check_quotient(q, v, v[:10], seed=1)):
            shapes.clear()
            reduce()
            assert shapes and (60, 60) not in shapes


class TestKeptReduction:
    @pytest.fixture
    def graph(self):
        rng = np.random.default_rng(40)
        q = gs.build_laplacian(random_graph(rng, n=40))
        v = rng.permutation(40)[:20].tolist()
        return q, v, v[:5]

    def test_one_factorization_of_v(self, graph, cholesky_calls):
        q, v, w = graph
        reduced = gs.schur_complement(q, v)
        gs.check_resistance_preservation(q, v)
        assert gs.schur_complement(q, v) is reduced
        gs.check_quotient(q, v, w)
        # V's 20 eliminated nodes; the grounded factors of the reduction and
        # of Q, whose resistances are compared; then check_quotient's
        # one-shot reduction onto W, its second stage from V, and its seeded
        # order in one factorization
        assert cholesky_calls == [(20, 20), (19, 19), (39, 39), (35, 35), (15, 15), (35, 35)]

    def test_another_order_misses(self, graph, cholesky_calls):
        q, v, _ = graph
        first = gs.schur_complement(q, v)
        reversed_order = gs.schur_complement(q, v[::-1])
        assert gs.schur_complement(q, v[::-1]) is reversed_order
        assert len(cholesky_calls) == 2
        # one slot: the reversed order displaced the first reduction
        again = gs.schur_complement(q, v)
        assert len(cholesky_calls) == 3
        assert again is not first and np.array_equal(again.matrix, first.matrix)


class TestNoLinkTurnsPositive:
    # elimination subtracts X^T X >= 0 from links <= 0, so the kernel needs
    # no clamp; only schur_via_pinv's rounding leaves positive links
    @staticmethod
    def assert_no_positive_link(reduced):
        off = reduced - np.diag(np.diag(reduced))
        assert not (off > 0).any()

    def test_small_corpus(self, small_corpus, rng):
        for q in small_corpus:
            for node in range(q.n):
                others = [i for i in range(q.n) if i != node]
                self.assert_no_positive_link(_eliminate_in_order(q, others, [node]))
            keep = rng.permutation(q.n)[: max(1, q.n // 3)].tolist()
            order = rng.permutation([i for i in range(q.n) if i not in keep]).tolist()
            self.assert_no_positive_link(_eliminate_in_order(q, keep, order))

    def test_benchmark_fixture(self):
        q = gs.build_laplacian(sized_graph(7, 0, 200))
        rng = np.random.default_rng(200)
        for _ in range(3):
            perm = rng.permutation(200).tolist()
            self.assert_no_positive_link(_eliminate_in_order(q, perm[:100], perm[100:]))

    def test_pairs_of_a_19_decade_tree(self):
        q = gs.build_laplacian(gs.parse_graph(UNRESOLVED_TREE))
        reduced = 0
        for pair in itertools.combinations(range(q.n), 2):
            try:
                reduction = gs.schur_complement(q, list(pair)).matrix
            except GraphSimplexError:  # {2, 5}: a pivot cancels (ROADMAP item 1)
                continue
            self.assert_no_positive_link(reduction)
            reduced += 1
        assert reduced == 20


class TestResistancePreservation:
    def test_path(self):
        q = gs.build_laplacian(path_graph(4))
        assert gs.check_resistance_preservation(q, [0, 3]).passed()

    def test_corpus(self, small_corpus, rng):
        for q in small_corpus:
            if q.n < 3:
                continue
            k = int(rng.integers(2, q.n))
            keep = sorted(rng.choice(q.n, size=k, replace=False).tolist())
            report = gs.check_resistance_preservation(q, keep)
            assert report.passed(1e-9)


@pytest.mark.parametrize("check", [
    lambda q: gs.check_quotient(q, [0, 1, 2], [1]),
    lambda q: gs.check_resistance_preservation(q, [2]),
], ids=["quotient-one-node-w", "preservation-one-kept-node"])
def test_a_face_needs_two_nodes(check):
    with pytest.raises(FaceTooSmallError):
        check(gs.build_laplacian(path_graph(4)))


@given(connected_graphs(max_nodes=9))
@settings(max_examples=30, deadline=None)
def test_reduction_properties(g):
    q = gs.build_laplacian(g)
    if q.n < 3:
        return
    keep = list(range(q.n - 1))
    reduced = gs.schur_complement(q, keep)
    assert gs.validate_laplacian(reduced.matrix).passed
    assert gs.check_resistance_preservation(q, keep).passed(1e-9)
