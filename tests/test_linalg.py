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


def test_centering_projector():
    j = gs.centering_projector(4)
    assert np.abs(j @ np.ones(4)).max() == 0.0
    assert np.abs(j @ j - j).max() <= 1e-15
