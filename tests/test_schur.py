import numpy as np
import pytest
from hypothesis import given, settings

import graphsimplex as gs
from graphsimplex.errors import (
    DuplicateIndexError,
    EmptySubsetError,
    FaceTooSmallError,
    GraphSimplexError,
    IndexOutOfRangeError,
    SubsetViolationError,
    TooSmallError,
)

from conftest import connected_graphs
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

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            gs.kron_reduce_single(laplacian("a b 1"), 0)


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
