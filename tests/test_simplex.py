import dataclasses
import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings

import graphsimplex as gs
from graphsimplex.errors import (
    AsymmetricError,
    DegenerateDistanceMatrixError,
    DegenerateSimplexError,
    DuplicateIndexError,
    EmptySubsetError,
    FaceTooSmallError,
    GraphSimplexError,
    IndexOutOfRangeError,
    NonFiniteEntryError,
    NonZeroDiagonalError,
    RankDeficientError,
)

from conftest import connected_graphs, sized_graph
from oracles import (
    complete_graph,
    contract_corpus,
    determinant_cofactor,
    path_graph,
    random_graph,
)

NONHYPERACUTE = 9.0 * np.array(
    [[7, 1, -4, -4], [1, 7, -4, -4], [-4, -4, 12, -4], [-4, -4, -4, 12]], float
)


def laplacian(doc):
    return gs.build_laplacian(gs.parse_graph(doc))


class TestEmbedFromLaplacian:
    def test_single_edge_distance(self):
        emb = gs.embed_from_laplacian(laplacian("a b 1"))
        assert emb.vertices.shape == (1, 2)
        assert emb.squared_distances()[0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_triangle_is_equilateral(self):
        emb = gs.embed_from_laplacian(gs.build_laplacian(complete_graph(3)))
        d = emb.squared_distances()
        off = d[~np.eye(3, dtype=bool)]
        assert off == pytest.approx(np.full(6, 2 / 3), rel=1e-12)

    def test_gram_is_pseudoinverse_and_centered(self, small_corpus):
        for q in small_corpus[:10]:
            emb = gs.embed_from_laplacian(q)
            gram = emb.vertices.T @ emb.vertices
            assert np.abs(gram - q.pinv).max() <= 1e-8 * max(1.0, np.abs(q.pinv).max())
            assert np.abs(emb.vertices.sum(axis=1)).max() <= 1e-9 * np.abs(emb.vertices).max()

    def test_distances_equal_resistances(self, small_corpus):
        for q in small_corpus[:10]:
            omega = gs.resistance_matrix(q)
            d = gs.embed_from_laplacian(q).squared_distances()
            assert np.abs(d - omega).max() <= 1e-9 * max(1.0, omega.max())


    def test_eigenvalue_rounded_to_zero_raises(self):
        # weights across ~500 decades: the tree's smallest nonzero eigenvalue
        # would round to <= 0 in one double-precision eigh, and the grounded
        # factor declines
        q = laplacian("4 3 2.8e29\n5 2 8.9e-27\n4 0 5.1e185\n0 6 3.9e151\n"
                      "2 3 1.9e206\n1 5 1.3e-300\n")
        with pytest.raises(RankDeficientError, match="too many decades"):
            gs.embed_from_laplacian(q)


class TestCanonicalGram:
    def test_two_points_on_a_line(self):
        gp = gs.canonical_gram(np.array([[0.0, 1.0]]))
        assert gp.gram == pytest.approx(np.array([[0.25, -0.25], [-0.25, 0.25]]), abs=1e-12)

    def test_translation_invariance(self):
        s = np.array([[0.0, 1.0, 0.3], [0.0, 0.0, 0.9]])
        gp = gs.canonical_gram(s)
        gp_shift = gs.canonical_gram(s + 5.0)
        assert np.abs(gp.gram - gp_shift.gram).max() <= 1e-8

    def test_orthogonal_invariance(self, rng):
        s = rng.standard_normal((3, 4))
        o, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        x = rng.standard_normal(3)
        gp = gs.canonical_gram(s)
        gp_moved = gs.canonical_gram(o @ s + x[:, None])
        assert np.abs(gp.gram - gp_moved.gram).max() <= 1e-8

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            gs.canonical_gram(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]))

    def test_round_trip_with_embedding(self, small_corpus):
        for q in small_corpus[:10]:
            gp = gs.canonical_gram(gs.embed_from_laplacian(q))
            scale = np.abs(q.matrix).max()
            assert np.abs(gp.pinv_gram - q.matrix).max() <= 1e-7 * scale

    def test_one_dimensional_array_rejected(self):
        with pytest.raises(DegenerateSimplexError, match="2-dimensional"):
            gs.canonical_gram(np.array([0.0, 1.0, 2.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vertices_rejected(self, bad):
        # not "affinely dependent", and no RuntimeWarning from the product
        s = np.array([[0.0, 1.0, 0.3], [0.0, 0.0, 0.9]])
        s[1, 2] = bad
        with pytest.raises(NonFiniteEntryError, match="non-finite"):
            gs.canonical_gram(s)


def gram_outcome(call):
    """The bits of what ``call()`` returns (a GramPair or an array), or the
    type and message of its error."""
    try:
        got = call()
    except GraphSimplexError as exc:
        return type(exc), str(exc)
    if isinstance(got, gs.GramPair):
        return got.gram.tobytes(), got.pinv_gram.tobytes()
    return got.tobytes()


def weights_times(g, factor):
    return gs.WeightedGraph(g.labels, g.links, tuple(w * factor for w in g.weights))


class TestGramReuse:
    """The embedding of a Laplacian carries the Gram its grounded factor
    formed Q^dagger from, and canonical_gram and squared_distances read it
    instead of forming it again: bit for bit the answers of the bare
    vertex matrix."""

    @staticmethod
    def assert_reuse_is_invisible(q):
        try:
            emb = gs.embed_from_laplacian(q)
        except GraphSimplexError:
            return 0
        bare = np.array(emb.vertices)
        assert gram_outcome(lambda: gs.canonical_gram(emb)) == gram_outcome(
            lambda: gs.canonical_gram(bare))
        assert gram_outcome(emb.squared_distances) == gram_outcome(
            gs.SimplexEmbedding(bare).squared_distances)
        return emb.gram is not None

    def test_contract_corpus(self):
        # 107 of the 200 graphs embed: 82 on the grounded factor, and each
        # of those carries its Gram; 25 on the eigen route, which has none
        qs = [laplacian(text) for text, _ in contract_corpus(0)]
        reused = sum(self.assert_reuse_is_invisible(q) for q in qs)
        assert reused == sum(q.factor is not None for q in qs) == 82

    @pytest.mark.parametrize("n", [3, 50, 1000])
    def test_bench_graphs_at_extreme_scales(self, n):
        for k in (0, 1):
            g = sized_graph(7, k, n)
            for factor in (1.0, 2.0**600, 2.0**-600, 1e300, 1e-300):
                q = gs.build_laplacian(weights_times(g, factor))
                assert self.assert_reuse_is_invisible(q) or factor != 1.0

    def test_the_gram_field_is_read(self, rng):
        # twice the Gram gives twice the centred Gram and half its inverse:
        # only a Gram that was not formed again can
        q = gs.build_laplacian(random_graph(rng, n=40))
        emb = gs.embed_from_laplacian(q)
        assert emb.gram is q.pinv
        doubled = dataclasses.replace(emb, gram=2.0 * emb.gram)
        want, got = gs.canonical_gram(emb), gs.canonical_gram(doubled)
        assert np.array_equal(got.gram, 2.0 * want.gram)
        assert np.abs(got.pinv_gram - 0.5 * want.pinv_gram).max() <= (
            1e-12 * np.abs(want.pinv_gram).max())
        assert np.array_equal(doubled.squared_distances(), 2.0 * emb.squared_distances())
        assert np.array_equal(doubled.gram, 2.0 * emb.gram)  # centred on a copy

    def test_distances_form_the_product_where_the_gram_rounds_apart(self):
        # 2^-530 times 16385.625 2^-544 is 16385.625 units of 2^-1074: S^T S
        # rounds it to 16386, while U = S/2 gives 4096.40625 units, rounded
        # to 4096 and scaled back to 16384. Entries below 2^-485 keep the
        # distances off such a Gram
        s = np.array([[1.0, 2.0**-530, 16385.625 * 2.0**-544],
                      [0.5, 2.0**-600, 2.0**-600]])
        u = 0.5 * s
        gram = np.ldexp(u.T @ u, 2)
        assert not np.array_equal(gram, s.T @ s)
        assert np.array_equal(gs.SimplexEmbedding(s, gram=gram).squared_distances(),
                              gs.SimplexEmbedding(s).squared_distances())

    def test_equality_and_repr_ignore_the_gram(self, rng):
        emb = gs.embed_from_laplacian(gs.build_laplacian(random_graph(rng, n=5)))
        bare = gs.SimplexEmbedding(emb.vertices)
        assert emb == bare
        assert repr(emb) == repr(bare)
        assert "gram" not in repr(emb)


def test_gram_pair_from_pinv_does_not_keep_the_callers_array():
    a = NONHYPERACUTE.copy()
    gp = gs.gram_pair_from_pinv(a)
    assert gp.pinv_gram is not a and not np.shares_memory(gp.pinv_gram, a)
    assert np.array_equal(gp.pinv_gram, a)


class TestDihedralAngles:
    def test_laplacian_never_obtuse(self, small_corpus):
        for q in small_corpus[:10]:
            cls = gs.dihedral_angles(gs.gram_pair_from_laplacian(q))
            assert not cls.has_obtuse

    def test_nonhyperacute_pair(self):
        gp = gs.gram_pair_from_pinv(NONHYPERACUTE)
        cls = gs.dihedral_angles(gp)
        assert cls.label(0, 1) == "obtuse"
        others = [p for p in cls.pairs if (p.i, p.j) != (0, 1)]
        assert all(p.label == "acute" for p in others)

    def test_exact_zero_is_right(self):
        # non-adjacent endpoints of a path have a zero pseudoinverse entry
        gp = gs.gram_pair_from_laplacian(laplacian("a b 1\nb c 1"))
        assert gs.dihedral_angles(gp).label(0, 2) == "right"

    def test_cosine_values(self):
        gp = gs.gram_pair_from_laplacian(gs.build_laplacian(complete_graph(3)))
        for p in gs.dihedral_angles(gp).pairs:
            assert p.cosine == pytest.approx(-0.5, rel=1e-12)  # angles of 60 degrees

    def test_zero_diagonal_entry_rejected(self):
        gp = gs.GramPair(gram=np.eye(2), pinv_gram=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(NonFiniteEntryError, match="cosine"):
            gs.dihedral_angles(gp)

    def test_negative_diagonal_rejected(self):
        # cosines -1 and 1 would come out, and the pair would read obtuse
        gp = gs.GramPair(gram=np.eye(2), pinv_gram=np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(NonFiniteEntryError, match="non-positive diagonal entry"):
            gs.dihedral_angles(gp)


class TestLaplacianSideReadsSymmetric:
    """A Laplacian accepted with a small asymmetry gives the angles and the
    Gram pair of its symmetric part, as its pinv, blocks and reductions do."""

    @staticmethod
    def asymmetric(q0):
        a = np.array(q0.matrix)
        a[0, 1] += 1e-12 * np.diag(a).max()
        q = gs.LaplacianMatrix.from_matrix(a)
        assert not np.array_equal(q.matrix, q.matrix.T)
        return q

    def test_angles_are_those_of_the_symmetric_part(self, small_corpus):
        for q0 in small_corpus[:5]:
            q = self.asymmetric(q0)
            want = gs.dihedral_angles(gs.LaplacianMatrix(q.symmetric))
            for got in (gs.dihedral_angles(q),
                        gs.dihedral_angles(gs.gram_pair_from_laplacian(q))):
                assert got.cosines.tobytes() == want.cosines.tobytes()
                assert got.codes.tobytes() == want.codes.tobytes()

    def test_gram_pair_holds_the_symmetric_part(self, small_corpus):
        q = self.asymmetric(small_corpus[0])
        assert gs.gram_pair_from_laplacian(q).pinv_gram is q.symmetric
        q = small_corpus[0]  # exactly symmetric: no second array
        assert gs.gram_pair_from_laplacian(q).pinv_gram is q.symmetric is q.matrix


class TestIsHyperacute:
    def test_triangle(self):
        assert gs.is_hyperacute(gs.gram_pair_from_laplacian(gs.build_laplacian(complete_graph(3))))

    def test_nonhyperacute(self):
        assert not gs.is_hyperacute(gs.gram_pair_from_pinv(NONHYPERACUTE))

    def test_right_angles_allowed(self):
        assert gs.is_hyperacute(gs.gram_pair_from_laplacian(laplacian("a b 1\nb c 1")))

    def test_equivalent_to_laplacian_validation(self, rng):
        for _ in range(15):
            q = gs.build_laplacian(random_graph(rng, max_n=10))
            gp = gs.gram_pair_from_laplacian(q)
            assert gs.is_hyperacute(gp) == gs.validate_laplacian(gp.pinv_gram).passed
        # perturbed pseudoinverse Grams with a positive off-diagonal entry
        gp = gs.gram_pair_from_pinv(NONHYPERACUTE)
        assert gs.is_hyperacute(gp) == gs.validate_laplacian(gp.pinv_gram).passed


class TestFaceDistance:
    def test_full_face(self):
        d = gs.resistance_matrix(gs.build_laplacian(complete_graph(3)))
        assert np.array_equal(gs.face_distance(d, [0, 1, 2]), d)

    def test_single_vertex(self):
        d = gs.resistance_matrix(gs.build_laplacian(complete_graph(3)))
        assert np.array_equal(gs.face_distance(d, [1]), np.zeros((1, 1)))

    def test_triangle_pair(self):
        d = gs.resistance_matrix(gs.build_laplacian(complete_graph(3)))
        face = gs.face_distance(d, [1, 2])
        assert face == pytest.approx(np.array([[0, 2 / 3], [2 / 3, 0]]), rel=1e-12)

    def test_composition(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=8))
        d = gs.resistance_matrix(q)
        v = [1, 3, 4, 6, 7]
        w = [3, 6, 7]
        w_in_v = [v.index(i) for i in w]
        direct = gs.face_distance(d, w)
        staged = gs.face_distance(gs.face_distance(d, v), w_in_v)
        assert np.abs(direct - staged).max() <= 1e-10

    def test_errors(self):
        d = np.zeros((3, 3))
        with pytest.raises(EmptySubsetError):
            gs.face_distance(d, [])
        with pytest.raises(DuplicateIndexError):
            gs.face_distance(d, [1, 1])
        with pytest.raises(IndexOutOfRangeError):
            gs.face_distance(d, [0, 3])


class TestFaceGram:
    def test_full_face_unchanged(self):
        gp = gs.gram_pair_from_laplacian(gs.build_laplacian(complete_graph(4)))
        face = gs.face_gram(gp, [0, 1, 2, 3])
        assert np.abs(face.gram - gp.gram).max() <= 1e-12

    def test_quadratic_product_compatibility(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=7))
        gp = gs.gram_pair_from_laplacian(q)
        v = [0, 2, 5, 6]
        face = gs.face_gram(gp, v)
        for _ in range(5):
            y = rng.standard_normal(len(v))
            y -= y.mean()  # supported on v, orthogonal to u
            x = np.zeros(q.n)
            x[v] = y
            assert y @ face.gram @ y == pytest.approx(x @ gp.gram @ x, rel=1e-9, abs=1e-12)

    def test_distances_match_face_distance(self, small_corpus, rng):
        for q in small_corpus[:8]:
            if q.n < 3:
                continue
            v = sorted(rng.choice(q.n, size=min(4, q.n), replace=False).tolist())
            gp = gs.gram_pair_from_laplacian(q)
            face = gs.face_gram(gp, v)
            diag = np.diag(face.gram)
            d_face = diag[:, None] + diag[None, :] - 2 * face.gram
            expected = gs.face_distance(gs.resistance_matrix(q), v)
            assert np.abs(d_face - expected).max() <= 1e-9 * max(1.0, expected.max())

    def test_hyperacute_closure(self, small_corpus, rng):
        for q in small_corpus[:8]:
            if q.n < 3:
                continue
            k = int(rng.integers(2, q.n + 1))
            v = sorted(rng.choice(q.n, size=k, replace=False).tolist())
            face = gs.face_gram(gs.gram_pair_from_laplacian(q), v)
            assert gs.is_hyperacute(face)
            assert not gs.dihedral_angles(face).has_obtuse

    def test_nonhyperacute_counterexample_faces(self):
        # the faces of the pseudoinverse Gram itself (centered submatrices)
        # are all Laplacian although the full Simplex is not hyperacute
        dual = gs.gram_pair_from_pinv(gs.pinv_kernel_u(NONHYPERACUTE))
        assert np.abs(dual.gram - NONHYPERACUTE).max() <= 1e-8 * np.abs(NONHYPERACUTE).max()
        facet_12 = np.array([[76, -38, -38], [-38, 91, -53], [-38, -53, 91]], float)
        facet_34 = np.array([[51, -3, -48], [-3, 51, -48], [-48, -48, 96]], float)
        expected = {(1, 2, 3): facet_12, (0, 2, 3): facet_12,
                    (0, 1, 3): facet_34, (0, 1, 2): facet_34}
        pair = gs.GramPair(gram=NONHYPERACUTE, pinv_gram=dual.pinv_gram)
        for v, want in expected.items():
            got = gs.face_gram(pair, list(v)).gram
            assert np.abs(got - want).max() <= 1e-6
            assert gs.validate_laplacian(want).passed

    def test_single_vertex_rejected(self):
        gp = gs.gram_pair_from_laplacian(gs.build_laplacian(complete_graph(3)))
        with pytest.raises(FaceTooSmallError):
            gs.face_gram(gp, [0])


class TestCircumsphere:
    def test_single_edge(self):
        q = laplacian("a b 1")
        report = gs.circumsphere_check(gs.embed_from_laplacian(q), gs.fiedler_blocks(q))
        assert report.radius == pytest.approx(0.5, rel=1e-12)
        assert report.passed()

    def test_triangle_center_is_centroid(self):
        q = gs.build_laplacian(complete_graph(3))
        report = gs.circumsphere_check(gs.embed_from_laplacian(q), gs.fiedler_blocks(q))
        assert np.abs(report.center).max() <= 1e-12
        assert report.radius == pytest.approx(np.sqrt(2) / 3, rel=1e-12)

    def test_path_equidistant(self):
        q = gs.build_laplacian(path_graph(3))
        report = gs.circumsphere_check(gs.embed_from_laplacian(q), gs.fiedler_blocks(q))
        assert report.max_deviation <= 1e-10

    def test_blocks_of_another_graph_rejected(self):
        emb = gs.embed_from_laplacian(gs.build_laplacian(path_graph(4)))
        fb = gs.fiedler_blocks(gs.build_laplacian(path_graph(3)))
        with pytest.raises(DegenerateSimplexError, match="4 vertices, the blocks 3"):
            gs.circumsphere_check(emb, fb)


class TestCayleyMengerVolume:
    def test_segment(self):
        assert gs.cayley_menger_volume(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, rel=1e-12)

    def test_equilateral_triangle(self):
        d = np.ones((3, 3)) - np.eye(3)
        assert gs.cayley_menger_volume(d) == pytest.approx(math.sqrt(3) / 4, rel=1e-9)

    def test_regular_tetrahedron(self):
        d = np.ones((4, 4)) - np.eye(4)
        assert gs.cayley_menger_volume(d) == pytest.approx(math.sqrt(2) / 12, rel=1e-9)

    def test_permutation_invariance(self, rng):
        q = gs.build_laplacian(random_graph(rng, n=6))
        d = gs.resistance_matrix(q)
        vol = gs.cayley_menger_volume(d)
        perm = rng.permutation(6)
        vol_perm = gs.cayley_menger_volume(d[np.ix_(perm, perm)])
        assert vol_perm == pytest.approx(vol, rel=1e-10)

    def test_against_cofactor_oracle(self, rng):
        for n in range(2, 6):
            for _ in range(5):
                x = rng.standard_normal((n - 1, n))
                diff = x[:, :, None] - x[:, None, :]
                d = (diff**2).sum(axis=0)
                bordered = np.ones((n + 1, n + 1))
                bordered[0, 0] = 0.0
                bordered[1:, 1:] = d
                vol2 = ((-1.0) ** n * determinant_cofactor(bordered)
                        / (math.factorial(n - 1) ** 2 * 2.0 ** (n - 1)))
                assert gs.cayley_menger_volume(d) == pytest.approx(math.sqrt(vol2), rel=1e-9)

    def test_degenerate_rejected(self):
        # three collinear points at 0, 1, 2
        d = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]], float)
        with pytest.raises(DegenerateDistanceMatrixError):
            gs.cayley_menger_volume(d)

    def test_asymmetric_rejected(self):
        d = np.array([[0, 1, 1], [1, 0, 1], [3, 1, 0]], float)
        with pytest.raises(AsymmetricError):
            gs.cayley_menger_volume(d)

    def test_nonzero_diagonal_rejected(self):
        # a squared distance of 4 is a segment of length 2; the diagonal of
        # ones is not a distance matrix's, for the volume as for check_metric
        d = np.array([[1.0, 4.0], [4.0, 1.0]])
        for call in (gs.cayley_menger_volume, gs.check_metric):
            with pytest.raises(NonZeroDiagonalError):
                call(d)
        assert gs.cayley_menger_volume(d - np.eye(2)) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("diag, raises", [(4e-12, False), (4.000001e-12, True)])
    def test_diagonal_rule_is_check_metrics(self, diag, raises):
        # |d_ii| <= metric_slack max|D|, with max|D| = 4
        d = np.array([[diag, 4.0], [4.0, 0.0]])
        for call in (gs.cayley_menger_volume, gs.check_metric):
            if raises:
                with pytest.raises(NonZeroDiagonalError):
                    call(d)
            else:
                call(d)

    def test_rounding_asymmetry_is_half_summed(self):
        d = np.ones((4, 4)) - np.eye(4)
        d[0, 3] *= 1.0 + 1e-13
        assert gs.cayley_menger_volume(d) == gs.cayley_menger_volume(0.5 * (d + d.T))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", ["1e250", "1e-250"])
    def test_volume_beyond_the_float_range(self, w):
        # the unit 4-cycle's volume 1/12 times w^(-3/2): 8e-377 and 8e373
        q = laplacian("".join(f"{a} {b} {w}\n" for a, b in ("ab", "bc", "cd", "ad")))
        with pytest.raises(NonFiniteEntryError, match="volume leaves the float range"):
            gs.cayley_menger_volume(gs.resistance_matrix(q))


@given(connected_graphs(max_nodes=8))
@settings(max_examples=30, deadline=None)
def test_bijection_round_trip_property(g):
    q = gs.build_laplacian(g)
    gp = gs.canonical_gram(gs.embed_from_laplacian(q))
    scale = np.abs(q.matrix).max()
    assert np.abs(gp.pinv_gram - q.matrix).max() <= 1e-7 * scale
    assert gs.is_hyperacute(gp)


def reference_angles(gp, tol=gs.DEFAULT):
    """The per-pair loop that classified angles before the array form:
    one (i, j, cosine, label) tuple per i < j, row-major."""
    mdag = gp.pinv_gram
    diag = np.diag(mdag)
    band = tol.validation * float(diag.max())
    pairs = []
    for i in range(gp.n):
        for j in range(i + 1, gp.n):
            entry = mdag[i, j]
            cosine = float(entry / math.sqrt(diag[i] * diag[j]))
            if entry > band:
                label = "obtuse"
            elif entry < -band:
                label = "acute"
            else:
                label = "right"
            pairs.append((i, j, cosine, label))
    return tuple(pairs)


def band_gram():
    """A pinv Gram whose off-diagonal entries sit on and just past the sign
    dead-band, in both directions."""
    m = np.diag([4.0, 3.0, 2.0, 1.0, 2.5])
    band = gs.DEFAULT.validation * 4.0
    entries = [band, -band, np.nextafter(band, np.inf), np.nextafter(-band, -np.inf),
               0.0, -0.0, 0.5, -0.5, np.nextafter(band, 0.0), np.nextafter(-band, 0.0)]
    i, j = np.triu_indices(5, 1)
    m[i, j] = entries
    m[j, i] = entries
    return gs.GramPair(gram=np.zeros_like(m), pinv_gram=m)


class TestAngleArrays:
    def gram_pairs(self, small_corpus):
        yield from (gs.gram_pair_from_laplacian(q) for q in small_corpus)
        yield gs.gram_pair_from_laplacian(gs.build_laplacian(path_graph(6)))
        yield gs.gram_pair_from_laplacian(
            gs.build_laplacian(random_graph(np.random.default_rng(5), n=200)))
        yield gs.gram_pair_from_pinv(NONHYPERACUTE)
        yield band_gram()

    def test_bitwise_equal_to_reference_loop(self, small_corpus):
        for gp in self.gram_pairs(small_corpus):
            cls = gs.dihedral_angles(gp)
            for i, j, cosine, label in reference_angles(gp):
                assert cls.cosines[i, j] == cosine
                assert math.copysign(1.0, cls.cosines[i, j]) == math.copysign(1.0, cosine)
                assert cls.cosines[j, i] == cosine
                assert cls.label(i, j) == cls.label(j, i) == label
            assert cls.cosines.dtype == np.float64 and cls.codes.dtype == np.int8

    def test_pairs_view_equals_reference(self, small_corpus):
        for gp in self.gram_pairs(small_corpus):
            pairs = gs.dihedral_angles(gp).pairs
            ref = reference_angles(gp)
            assert len(pairs) == len(ref)
            for p, (i, j, cosine, label) in zip(pairs, ref):
                assert (p.i, p.j, p.cosine, p.label) == (i, j, cosine, label)
                assert type(p.i) is int and type(p.cosine) is float

    def test_dead_band_edges(self):
        cls = gs.dihedral_angles(band_gram())
        labels = [cls.label(i, j) for i, j in zip(*np.triu_indices(5, 1))]
        assert labels == ["right", "right", "obtuse", "acute", "right", "right",
                          "obtuse", "acute", "right", "right"]
        assert cls.has_obtuse

    def test_path_angles_are_exactly_right(self):
        cls = gs.dihedral_angles(gs.gram_pair_from_laplacian(gs.build_laplacian(path_graph(6))))
        for i, j in zip(*np.triu_indices(6, 1)):
            assert cls.label(i, j) == ("acute" if j == i + 1 else "right")
        assert not cls.has_obtuse

    def test_pairs_built_only_on_request(self, small_corpus):
        cls = gs.dihedral_angles(gs.gram_pair_from_laplacian(small_corpus[0]))
        cls.has_obtuse
        cls.label(0, 1)
        assert "pairs" not in cls.__dict__
        assert cls.pairs is cls.pairs
        assert "pairs" in cls.__dict__

    def test_arrays_are_read_only(self):
        cls = gs.dihedral_angles(gs.gram_pair_from_pinv(NONHYPERACUTE))
        with pytest.raises(ValueError):
            cls.codes[0, 1] = 0
        with pytest.raises(ValueError):
            cls.cosines[0, 1] = 0.0

    @pytest.mark.parametrize("i, j", [(0, 0), (2, 2), (-1, 2), (0, -1), (0, 4), (4, 1), (9, 9)])
    def test_label_rejects_bad_indices(self, i, j):
        cls = gs.dihedral_angles(gs.gram_pair_from_pinv(NONHYPERACUTE))
        with pytest.raises(IndexOutOfRangeError):
            cls.label(i, j)

    @pytest.mark.parametrize("i, j", [(True, 2), (0.5, 1), (0, np.float64(2.0)), (0, "2")],
                             ids=["bool", "fraction", "numpy-float", "string"])
    def test_label_indices_must_be_integers(self, i, j):
        # these used to raise TypeError or IndexError from the comparison or
        # the array lookup
        cls = gs.dihedral_angles(gs.gram_pair_from_pinv(NONHYPERACUTE))
        with pytest.raises(IndexOutOfRangeError, match="not an integer"):
            cls.label(i, j)


def eager_pairs(cls):
    """The tuple ``.pairs`` held before it became a view: every row built at
    once from n(n-1)/2 index arrays."""
    i, j = np.triu_indices(cls.n, 1)
    labels = [gs.simplex.ANGLE_LABELS[k] for k in cls.codes[i, j].tolist()]
    return tuple(zip(i.tolist(), j.tolist(), cls.cosines[i, j].tolist(), labels))


def same_row(p, row):
    return (type(p.i) is int and type(p.j) is int and type(p.cosine) is float
            and tuple(p) == row and math.copysign(1.0, p.cosine) == math.copysign(1.0, row[2]))


class TestPairView:
    def test_equals_eager_tuple(self, small_corpus):
        for q in small_corpus:
            cls = gs.dihedral_angles(gs.gram_pair_from_laplacian(q))
            ref = eager_pairs(cls)
            assert len(cls.pairs) == len(ref)
            assert all(same_row(p, row) for p, row in zip(cls.pairs, ref, strict=True))
            assert all(same_row(cls.pairs[k], row) for k, row in enumerate(ref))
            assert tuple(cls.pair_rows()) == ref

    def test_indexing(self):
        cls = gs.dihedral_angles(band_gram())
        pairs, ref = cls.pairs, eager_pairs(cls)
        assert isinstance(pairs, Sequence) and isinstance(pairs[0], gs.simplex.PairAngle)
        for k in (0, -1, len(ref) // 2, -len(ref), len(ref) - 1):
            assert same_row(pairs[k], ref[k])
        for k in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                pairs[k]
        assert pairs[2:7] == ref[2:7] and pairs[::-3] == ref[::-3] and pairs[5:2] == ()
        assert pairs[-1] == gs.simplex.PairAngle(3, 4, pairs[-1].cosine, "right")
        assert list(reversed(pairs)) == list(reversed(ref)) and ref[4] in pairs

    def test_holds_no_rows(self):
        q = gs.build_laplacian(random_graph(np.random.default_rng(3), n=300))
        cls = gs.dihedral_angles(q)
        tracemalloc.start()
        try:
            count = sum(1 for _ in cls.pairs)
            cls.pairs[len(cls.pairs) // 2]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 300 * 299 // 2
        assert held < 64 * 1024  # the eager tuple held 6.2 MiB


def projector_pair(gram):
    """Centering by the dense projector J = I - uu^T/n, as done before the
    O(n^2) double centering: the symmetrized J M J and its pseudoinverse."""
    n = gram.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    m = j @ gram @ j
    m = 0.5 * (m + m.T)
    return m, gs.pinv_kernel_u(m)


def assert_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestCenteredGramsMatchProjectorReference:
    def test_canonical_gram(self, small_corpus):
        for q in small_corpus:
            s = gs.embed_from_laplacian(q).vertices
            gp = gs.canonical_gram(s)
            m, mdag = projector_pair(s.T @ s)
            assert_close(gp.gram, m)
            assert_close(gp.pinv_gram, mdag)
            assert np.array_equal(gp.gram, gp.gram.T)

    def test_face_gram(self, small_corpus, rng):
        for q in small_corpus:
            k = int(rng.integers(2, q.n + 1))
            v = rng.choice(q.n, size=k, replace=False).tolist()
            face = gs.face_gram(gs.gram_pair_from_laplacian(q), v)
            m, mdag = projector_pair(q.pinv[np.ix_(v, v)])
            assert_close(face.gram, m)
            assert_close(face.pinv_gram, mdag)
            assert np.array_equal(face.gram, face.gram.T)
