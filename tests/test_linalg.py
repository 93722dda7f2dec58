import numpy as np
import pytest

import graphsimplex as gs
from graphsimplex import linalg
from graphsimplex.errors import (
    AsymmetricError,
    NonFiniteEntryError,
    RankDeficientError,
)

from oracles import complete_graph, random_graph


class TestEigh:
    def test_zero_matrix(self):
        dec = gs.eigh(np.zeros((3, 3)))
        assert np.array_equal(dec.eigenvalues, [0, 0, 0])

    def test_single_edge(self):
        # characteristic polynomial mu^2 - 2 mu = 0 -> eigenvalues 2, 0
        dec = gs.eigh(np.array([[1, -1], [-1, 1]], float))
        assert dec.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)
        v = dec.eigenvectors[:, 0]
        assert abs(abs(v @ [1, -1]) - np.sqrt(2)) <= 1e-12

    def test_triangle_spectrum(self):
        # det(Q - mu I) = -mu (mu - 3)^2 for the unit triangle
        q = gs.build_laplacian(complete_graph(3))
        dec = gs.eigh(q.matrix)
        assert dec.eigenvalues == pytest.approx([3.0, 3.0, 0.0], abs=1e-12)

    def test_descending_order_with_zero_last(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=9))
        vals = gs.eigh(q.matrix).eigenvalues
        assert np.all(np.diff(vals) <= 1e-12)
        assert abs(vals[-1]) <= 1e-10 * vals[0]

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 31))
            a = rng.standard_normal((n, n))
            a = a + a.T
            dec = gs.eigh(a)
            scale = np.abs(a).max()
            assert np.abs(dec.reconstruct() - a).max() <= 1e-8 * scale
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricError):
            gs.eigh(np.array([[0, 1], [2, 0]], float))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteEntryError):
            gs.eigh(np.array([[np.nan, 0], [0, 0]]))

    def test_rejects_overflowing_eigenvalue(self):
        # eigenvalues 3e308 and 0: the matrix is finite, its spectrum is not
        with pytest.raises(NonFiniteEntryError):
            gs.eigh(np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]]))


class TestLaplacianPseudoinverse:
    def test_single_edge(self):
        # mu = 2 with eigenvector (1,-1)/sqrt(2): Q^dagger = (1/2) z z^T
        p = gs.laplacian_pseudoinverse(np.array([[1, -1], [-1, 1]], float))
        assert p == pytest.approx(np.array([[0.25, -0.25], [-0.25, 0.25]]), abs=1e-12)

    def test_triangle(self):
        # Q = 3I - J inverts to (1/3)(I - J/3) on the u-orthogonal space
        q = gs.build_laplacian(complete_graph(3))
        p = gs.laplacian_pseudoinverse(q.matrix)
        expected = np.full((3, 3), -1 / 9) + np.eye(3) / 3
        assert p == pytest.approx(expected, abs=1e-12)

    def test_kernel_and_projector(self, rng):
        for _ in range(8):
            q = gs.build_laplacian(random_graph(rng, max_n=25))
            p = gs.laplacian_pseudoinverse(q.matrix)
            n = q.n
            assert np.abs(p @ np.ones(n)).max() <= 1e-9
            proj = np.eye(n) - np.full((n, n), 1 / n)
            assert np.abs(p @ q.matrix - proj).max() <= 1e-9

    def test_matches_eigendecomposition_route(self, rng):
        for _ in range(8):
            q = gs.build_laplacian(random_graph(rng, max_n=25))
            shift = gs.laplacian_pseudoinverse(q.matrix)
            spectral = gs.pinv_kernel_u(q.matrix)
            scale = np.abs(shift).max()
            assert np.abs(shift - spectral).max() <= 1e-8 * scale


class TestPinvKernelU:
    def test_rank_deficient_rejected(self):
        k2 = np.array([[1, -1], [-1, 1]], float)
        block = np.block([[k2, np.zeros((2, 2))], [np.zeros((2, 2)), k2]])
        with pytest.raises(RankDeficientError):
            gs.pinv_kernel_u(block)


class TestSymmetricPart:
    def test_bitwise_equal_to_half_sum(self, rng):
        for n in (1, 2, 7, 40):
            m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-200, 200)
            assert np.array_equal(linalg.symmetric_part(m), 0.5 * (m + m.T))

    def test_near_overflow_entries(self):
        m = np.array([[1.6e308, -8e307], [-8e307, 8e307]])
        with np.errstate(over="raise"):
            assert np.array_equal(linalg.symmetrize(m), m)


class TestDoubleCenter:
    def test_matches_projector_formula(self, rng):
        for n in (1, 2, 3, 10, 41):
            j = np.eye(n) - np.full((n, n), 1.0 / n)
            for m in (rng.standard_normal((n, n)), rng.random((n, n)) * 1e6):
                sym = 0.5 * (m + m.T)
                want = j @ sym @ j
                got = linalg.double_center(m)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(m).max()

    def test_exactly_symmetric_with_zero_row_sums(self, rng):
        for n in (2, 5, 33):
            got = linalg.double_center(rng.standard_normal((n, n)))
            assert np.array_equal(got, got.T)
            assert np.abs(got.sum(axis=1)).max() <= 1e-13

    def test_leaves_input_unchanged(self, rng):
        m = rng.standard_normal((6, 6))
        before = m.copy()
        linalg.double_center(m)
        assert np.array_equal(m, before)


class TestOnePseudoinverseRoute:
    def test_every_laplacian_answer_reads_one_eigh(self, monkeypatch, eigh_calls, rng):
        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        q = gs.build_laplacian(random_graph(rng, n=9))
        gs.resistance_matrix(q)
        gs.dihedral_angles(gs.gram_pair_from_laplacian(q))
        gs.verify_fiedler_identity(q)
        gs.embed_from_laplacian(q)
        gs.spanning_tree_count(q)
        assert eigh_calls == [(9, 9)]

    def test_pinv_is_the_gram_of_the_embedding(self, small_corpus):
        for q in small_corpus:
            s = gs.embed_from_laplacian(q).vertices
            assert np.abs(q.pinv - s.T @ s).max() <= 1e-13 * np.abs(q.pinv).max()
            assert np.array_equal(gs.laplacian_pseudoinverse(q.matrix), q.pinv)

    def test_deflates_the_pair_it_is_given(self, rng):
        # an indefinite matrix with kernel span{u}: its zero eigenvalue sits
        # in the middle of the descending spectrum
        n = 6
        basis, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
        m = (basis * [0.0, 3.0, 2.0, -1.0, -2.0, -5.0]) @ basis.T
        got = gs.pinv_kernel_u(m)
        assert np.abs(got - np.linalg.pinv(m)).max() <= 1e-12
        dec = gs.eigh(m)
        assert np.array_equal(linalg.deflated_inverse(dec, 2), got)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_pseudoinverse_rejected(self):
        # eigenvalues 3e-310 and 1e-310: Q^dagger has entries near 1e309
        q = gs.build_laplacian(gs.parse_graph("a b 1e-310\nb c 1e-310\n"))
        with pytest.raises(NonFiniteEntryError):
            q.pinv
        with pytest.raises(NonFiniteEntryError):
            gs.laplacian_pseudoinverse(q.matrix)
