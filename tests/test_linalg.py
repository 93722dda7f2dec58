from fractions import Fraction

import numpy as np
import pytest

import graphsimplex as gs
from graphsimplex import linalg, resistance
from graphsimplex.errors import (
    AsymmetricError,
    GraphSimplexError,
    NoConvergenceError,
    NonFiniteEntryError,
    NonSquareError,
    RankDeficientError,
)

from conftest import UNRESOLVED_TREE, eigen_only, record_shapes
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
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
            assert np.abs(rebuilt - a).max() <= 1e-8 * scale
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

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        q = gs.build_laplacian(complete_graph(3))
        # with the screen off, validation reads one eigh
        for answer in (lambda: gs.eigh(q.matrix), lambda: gs.validate_laplacian(q.matrix)):
            with eigen_only(), pytest.raises(NoConvergenceError, match="did not converge"):
                answer()


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

    def test_kernel_not_the_constant_vector_is_refused(self):
        # 2 I has no kernel: the eigen fallback returned diag(0, 1/2, 1/2)
        with pytest.raises(RankDeficientError, match="kernel is not the constant vector"):
            gs.laplacian_pseudoinverse(2 * np.eye(3))


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

    def test_rounded_once(self, rng):
        # subnormal entries, whose halves round, next to entries whose sum
        # overflows and entries 600 decades apart; the oracle rounds the
        # exact (a_ij + a_ji)/2 once
        n = 8
        m = rng.integers(1, 2**45, (n, n)) * 2.0**-1074 * rng.choice([-1.0, 1.0], (n, n))
        m[0, 1], m[1, 0] = 1.6e308, 1.7e308
        m[2, 3], m[3, 2] = -1.5e308, -1.75e308
        m[4, 5], m[5, 4] = 1e300, 3e-320
        got = linalg.symmetric_part(m)
        want = np.array([[float((Fraction(a) + Fraction(b)) / 2) for a, b in zip(row, col)]
                         for row, col in zip(m, m.T)])
        assert np.array_equal(got, want)
        with np.errstate(under="ignore"):
            assert not np.array_equal(got, 0.5 * m + 0.5 * m.T)  # halving each rounds twice


class TestSymmetrize:
    def test_exactly_symmetric_is_returned_as_is(self, rng):
        a = rng.standard_normal((6, 6))
        m = a + a.T
        assert linalg.symmetrize(m) is m
        q = gs.build_laplacian(random_graph(rng, n=6))
        assert linalg.symmetrize(q) is q.matrix

    def test_small_asymmetry_gets_the_half_sum(self, rng):
        a = rng.standard_normal((6, 6))
        m = a + a.T
        m[0, 1] += 1e-13 * np.abs(m).max()
        out = linalg.symmetrize(m)
        assert out is not m
        assert np.array_equal(out, linalg.symmetric_part(m))

    def test_asymmetry_above_rtol_raises(self, rng):
        a = rng.standard_normal((6, 6))
        m = a + a.T
        m[0, 1] += 2e-12 * max(1.0, np.abs(m).max())
        with pytest.raises(AsymmetricError):
            linalg.symmetrize(m)

    @pytest.mark.parametrize("k", [-300, -12, 0, 12, 300])
    def test_asymmetry_verdict_does_not_depend_on_scale(self, k):
        # 30% asymmetry, under 1e-12 in absolute terms at k <= -12, so only
        # a bound relative to max|A| rejects it at every k
        m = np.array([[2.0, -1.3, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) * 10.0**k
        for call in (gs.eigh, gs.pinv_kernel_u):
            with pytest.raises(AsymmetricError):
                call(m)

    def test_opposite_entries_near_the_float_limit(self):
        # m - m^T overflows here, and a RuntimeWarning is an error under
        # the suite's warning filter
        m = np.array([[1.0, 1.7e308], [-1.7e308, 1.0]])
        for call in (linalg.symmetrize, gs.eigh, gs.pinv_kernel_u):
            with pytest.raises(AsymmetricError):
                call(m)


@pytest.mark.parametrize("call", [gs.eigh, gs.validate_laplacian, gs.check_metric,
                                  gs.pinv_kernel_u, gs.laplacian_pseudoinverse])
def test_empty_matrix_is_rejected(call):
    with pytest.raises(NonSquareError, match="non-empty"):
        call(np.zeros((0, 0)))


class TestDoubleCenter:
    def test_matches_projector_formula(self, rng):
        for n in (1, 2, 3, 10, 41):
            j = np.eye(n) - np.full((n, n), 1.0 / n)
            for m in (rng.standard_normal((n, n)), rng.random((n, n)) * 1e6):
                sym = 0.5 * (m + m.T)
                want = j @ sym @ j
                got = linalg.double_center_in_place(linalg.symmetric_part(m))
                assert np.abs(got - want).max() <= 1e-14 * np.abs(m).max()

    def test_exactly_symmetric_with_zero_row_sums(self, rng):
        for n in (2, 5, 33):
            got = linalg.double_center_in_place(linalg.symmetric_part(rng.standard_normal((n, n))))
            assert np.array_equal(got, got.T)
            assert np.abs(got.sum(axis=1)).max() <= 1e-13

    def test_leaves_input_unchanged(self, rng):
        m = rng.standard_normal((6, 6))
        before = m.copy()
        linalg.double_center_in_place(linalg.symmetric_part(m))
        assert np.array_equal(m, before)


class TestOnePseudoinverseRoute:
    def test_every_laplacian_answer_reads_one_factor(self, monkeypatch, eigh_calls,
                                                     cholesky_calls, rng):
        # one grounded factor, whose inverse is one leaf solve; with its
        # screen off, every answer refuses, with no eigh and no solve
        solve_calls = record_shapes(monkeypatch, "solve")
        g = random_graph(rng, n=9)
        answers = (gs.resistance_matrix, lambda q: gs.dihedral_angles(gs.gram_pair_from_laplacian(q)),
                   gs.verify_fiedler_identity, gs.embed_from_laplacian, gs.spanning_tree_count)
        q = gs.build_laplacian(g)
        for answer in answers:
            answer(q)
        with eigen_only():
            q = gs.build_laplacian(g)
            for answer in answers:
                with pytest.raises(RankDeficientError, match="too many decades"):
                    answer(q)
        assert cholesky_calls == solve_calls == [(8, 8)]
        assert eigh_calls == []

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
        # the factor declines it, and the Gram side's eigen route refuses it
        q = gs.build_laplacian(gs.parse_graph("a b 1e-310\nb c 1e-310\n"))
        with pytest.raises(RankDeficientError, match="leave the float range"):
            q.pinv
        with pytest.raises(RankDeficientError, match="leave the float range"):
            gs.laplacian_pseudoinverse(q.matrix)
        with pytest.raises(NonFiniteEntryError):
            gs.pinv_kernel_u(q.matrix)


class TestResolvableSpectrum:
    def test_every_spectral_answer_refuses_the_same_way(self):
        q = gs.build_laplacian(gs.parse_graph(UNRESOLVED_TREE))
        answers = [lambda: q.pinv, lambda: gs.laplacian_pseudoinverse(q.matrix),
                   lambda: gs.spanning_tree_count(q), lambda: gs.embed_from_laplacian(q),
                   lambda: gs.resistance_matrix(q)]
        messages = set()
        for answer in answers:
            with pytest.raises(RankDeficientError, match="too many decades") as info:
                answer()
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_margin_on_the_corpus(self, small_corpus):
        # mu_(n-2) / (n eps mu_max) is at least 1e12 on ordinary weights, and
        # the factor certifies each
        for q in small_corpus:
            mu = gs.eigh(q.matrix).eigenvalues
            assert mu[-2] / (q.n * np.finfo(float).eps * mu[0]) >= 1e12
            assert q.factor is not None


def spd_block(rng, b):
    a = rng.standard_normal((b, b))
    return a @ a.T + b * np.eye(b)


def grounded_laplacian_block(rng, b):
    """A random connected graph's Laplacian on b + 1 nodes with its last
    node grounded, which makes it positive definite."""
    return gs.build_laplacian(random_graph(rng, n=b + 1)).matrix[:-1, :-1]


class TestLowerSolve:
    @pytest.mark.parametrize("block", [spd_block, grounded_laplacian_block])
    @pytest.mark.parametrize("b", [1, 63, 64, 65, 129, 500])
    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_matches_lu_solve(self, block, b, k):
        rng = np.random.default_rng([b, k])
        ell = np.linalg.cholesky(block(rng, b))
        rhs = rng.standard_normal((b, k))
        got = linalg.lower_solve(ell, rhs)
        want = np.linalg.solve(ell, rhs)
        assert got.shape == want.shape
        if b <= linalg._LEAF:
            assert np.array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_solves_only_diagonal_leaves(self, monkeypatch, rng):
        # one LU per leaf of at most _LEAF rows, each on a diagonal block
        solve_calls = record_shapes(monkeypatch, "solve")
        ell = np.linalg.cholesky(spd_block(rng, 500))
        linalg.lower_solve(ell, rng.standard_normal((500, 3)))
        assert sum(rows for rows, _ in solve_calls) == 500
        assert all(rows == cols <= linalg._LEAF for rows, cols in solve_calls)


class TestLowerInverse:
    @pytest.mark.parametrize("block", [spd_block, grounded_laplacian_block])
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 129, 500])
    def test_matches_lu_inverse(self, block, k):
        rng = np.random.default_rng([k, 2])
        ell = np.linalg.cholesky(block(rng, k))
        got = linalg.lower_inverse(ell)
        want = np.linalg.inv(ell)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(got, np.tril(got))
        if k <= linalg._LEAF:
            assert np.array_equal(got, np.linalg.solve(ell, np.eye(k)))

    def test_solves_only_diagonal_leaves(self, monkeypatch, rng):
        solve_calls = record_shapes(monkeypatch, "solve")
        linalg.lower_inverse(np.linalg.cholesky(spd_block(rng, 500)))
        assert sum(rows for rows, _ in solve_calls) == 500
        assert all(rows == cols <= linalg._LEAF for rows, cols in solve_calls)


def outcome(m):
    """pinv_kernel_u's answer, or the type and message of its error."""
    try:
        return gs.pinv_kernel_u(m)
    except GraphSimplexError as exc:
        return type(exc), str(exc)


def eigen_outcome(m):
    """``outcome`` with the grounded factor's screen off:
    deflated_inverse(eigh(m), .) under the eigen rule, as the only route."""
    with eigen_only():
        return outcome(m)


def kernel_u_matrix(rng, eigenvalues):
    """A symmetric matrix with the given eigenvalues, the first on u."""
    n = len(eigenvalues)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
    return linalg.symmetric_part((basis * eigenvalues) @ basis.T)


class TestFrameGram:
    """The factor's frame is 2^(-e/2) V, read-only, and its Gram, ``pinv``,
    is what a Laplacian's embedding carries."""

    def test_a_laplacian_embedding_carries_its_pinv(self, small_corpus):
        for q in small_corpus:
            emb = gs.embed_from_laplacian(q)
            assert emb.vertices is q.factor.frame and not emb.vertices.flags.writeable
            assert emb.pair.gram is q.pinv and emb.pair.pinv_gram is q.symmetric


class TestCholeskyScreen:
    def test_same_verdict_as_the_eigen_rule(self):
        # n 2-39, condition up to 1e13, scale 10^+-250; one in six has a
        # second zero, one in six a negative eigenvalue
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        certified = 0
        for _ in range(3000):
            n = int(rng.integers(2, 40))
            cond = 10.0 ** rng.uniform(0, 13)
            mu = np.exp(rng.uniform(-np.log(cond), 0, n - 1))
            mu[0] = 1.0
            kind = rng.integers(0, 6)
            if kind == 0 and n > 2:
                mu[rng.integers(1, n - 1)] = 0.0
            elif kind == 1:
                mu[rng.integers(0, n - 1)] *= -1.0
            scale = 10.0 ** rng.uniform(-250, 250)
            m = kernel_u_matrix(rng, np.concatenate([[0.0], rng.permutation(mu)]) * scale)
            certified += linalg.grounded_factor(m) is not None
            got, want = outcome(m), eigen_outcome(m)
            if isinstance(want, tuple) or isinstance(got, tuple):
                assert isinstance(got, tuple) and isinstance(want, tuple) and got == want
                continue
            assert np.array_equal(got, got.T)
            spectrum = np.sort(np.abs(np.linalg.eigvalsh(m)))[1:]
            rel = np.abs(got - want).max() / np.abs(want).max()
            assert rel <= 20 * spectrum[-1] / spectrum[0] * eps
        assert certified >= 1000

    @pytest.mark.parametrize("case", ["positive definite", "two components",
                                      "indefinite", "condition 5e9", "overflowing"])
    def test_inputs_left_to_the_eigen_route(self, case, eigh_calls, rng):
        if case == "positive definite":
            m = spd_block(rng, 6)
        elif case == "two components":
            k2 = np.array([[1, -1], [-1, 1]], float)
            m = np.block([[k2, np.zeros((2, 2))], [np.zeros((2, 2)), k2]])
        elif case == "indefinite":
            m = kernel_u_matrix(rng, [0.0, 3.0, 2.0, -1.0, -2.0, -5.0])
        elif case == "condition 5e9":
            m = kernel_u_matrix(rng, [0.0, 1.0, 0.5, 0.3, 2e-10])
        else:  # the pseudoinverse has entries near 1e309
            m = gs.build_laplacian(gs.parse_graph("a b 1e-310\nb c 1e-310\n")).matrix
        assert linalg.grounded_factor(m) is None
        got = outcome(m)
        assert eigh_calls == [m.shape]
        if case == "positive definite":
            assert got == (RankDeficientError,
                           "expected exactly one zero eigenvalue, found 0")
        elif case == "two components":
            assert got[0] is RankDeficientError and "found 2" in got[1]
        elif case == "overflowing":
            assert got == (NonFiniteEntryError,
                           "the pseudoinverse overflows the float range")
        else:
            assert np.array_equal(got, eigen_outcome(m))

    def test_canonical_gram_factors_once(self, eigh_calls, cholesky_calls, rng):
        q = gs.build_laplacian(random_graph(rng, n=30))
        gp = gs.canonical_gram(gs.embed_from_laplacian(q))
        assert eigh_calls == []
        assert cholesky_calls == [(29, 29)]  # Q's grounded factor, and no other
        assert np.array_equal(gp.pinv_gram, q.matrix)


# The Laplacian-side answers, each an array or the type and message of its
# error
LAPLACIAN_ANSWERS = {
    "pinv": lambda q: q.pinv,
    "omega": gs.resistance_matrix,
    "distances": lambda q: gs.embed_from_laplacian(q).squared_distances(),
    "trees": gs.spanning_tree_count,
    "zeta": lambda q: gs.fiedler_blocks(q).zeta,
    "radius": lambda q: gs.fiedler_blocks(q).radius,
}


def verdicts(m):
    report = gs.validate_laplacian(gs.LaplacianMatrix(m))
    return ({name: c.passed for name, c in report.checks.items()},
            report.passed, report.spectral_passed, report.consistent)


def laplacian_outcomes(m):
    q = gs.LaplacianMatrix(m)
    got = {}
    for name, answer in LAPLACIAN_ANSWERS.items():
        try:
            got[name] = np.asarray(answer(q), dtype=float)
        except GraphSimplexError as exc:
            got[name] = (type(exc), str(exc))
    return got


def eigen_reference(m):
    """The ``LAPLACIAN_ANSWERS`` read off the Gram side's eigen route,
    ``pinv_kernel_u`` with the screen off, and the tree count off the
    nonzero eigenvalues of one ``eigh``."""
    with eigen_only():
        p = gs.pinv_kernel_u(m)
    omega = linalg.squared_distances(p)
    fb = resistance._blocks(p, linalg.symmetric_part(m))
    return {"pinv": p, "omega": omega, "distances": omega,
            "trees": np.prod(gs.eigh(m).eigenvalues[:-1]) / len(m),
            "zeta": fb.zeta, "radius": fb.radius}


LAPLACIAN_SPECIMENS = {
    "unresolved-tree": UNRESOLVED_TREE,
    "tree-500-decades": "4 3 2.8e29\n5 2 8.9e-27\n4 0 5.1e185\n0 6 3.9e151\n"
                        "2 3 1.9e206\n1 5 1.3e-300\n",
    "path-8e307": "a b 8e307\nb c 8e307\n",
    "cycle-1e-310": "a b 1e-310\nb c 1e-310\nc d 1e-310\na d 1e-310\n",
    # a pendant link near t mu_max = 3e-10, on both sides of the eigen
    # rule's cut; the screen first certifies at 9.6e-9
    **{f"link-{w:g}": f"a b 1\nb c 1\nc d {w!r}\n"
       for w in (7.5e-11 * 2.0**k for k in range(9))},
}


class TestLaplacianScreen:
    """Validation's verdicts are those of the eigen route. Where the factor
    certifies, its answers are those of the Gram side's eigen route; where
    it declines, every answer is the same RankDeficientError."""

    @pytest.mark.parametrize("doc", list(LAPLACIAN_SPECIMENS.values()),
                             ids=list(LAPLACIAN_SPECIMENS))
    def test_specimens_answer_as_the_eigen_route(self, doc):
        self.assert_same_outcomes(gs.build_laplacian(gs.parse_graph(doc)).matrix)

    def test_corpus_answers_as_the_eigen_route(self, small_corpus):
        for q in small_corpus:
            assert gs.LaplacianMatrix(q.matrix).factor is not None
            self.assert_same_outcomes(q.matrix)

    @staticmethod
    def assert_same_outcomes(m):
        got = laplacian_outcomes(m)
        factor_verdicts = verdicts(m)
        with eigen_only():
            assert verdicts(m) == factor_verdicts
        if gs.LaplacianMatrix(m).factor is None:
            assert got["pinv"][0] is RankDeficientError
            assert all(got[name] == got["pinv"] for name in LAPLACIAN_ANSWERS)
            return
        want = eigen_reference(m)
        mu = np.sort(np.abs(np.linalg.eigvalsh(m)))
        kappa = mu[-1] / max(mu[1], np.finfo(float).tiny)
        for name in LAPLACIAN_ANSWERS:
            scale = np.abs(want[name]).max()
            err = np.abs(got[name] - want[name]).max()
            assert err <= 20 * kappa * np.finfo(float).eps * scale, name
