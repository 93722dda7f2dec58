"""Answers that do not depend on the weight scale.

Every weight is multiplied by 10^k, k from -250 to 250, on small connected
graphs and on the n = 200 benchmark fixture: Q^dagger stays a
pseudoinverse, resistances scale as 1/s, and neither the angle codes nor
the validation verdicts change. Multiplied by 4^k instead, every
Laplacian-side answer scales by an exact power of two, bitwise, and so does
every Gram-side answer when a kernel-u matrix is multiplied by 4^k.
``canonical_gram`` answers wherever its pair fits the float range and
raises NonFiniteEntryError beyond it.
"""

import warnings

import numpy as np
import pytest

import graphsimplex as gs
from graphsimplex import linalg
from graphsimplex.errors import NonFiniteEntryError

from conftest import sized_graph
from oracles import random_graph

SCALES = [-250, -100, -12, -6, 0, 6, 12, 100, 250]


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(2468)
    cycle = gs.parse_graph("a b 1\nb c 1\nc d 1\na d 1\n")
    return [cycle] + [random_graph(rng, max_n=12) for _ in range(8)] + [
        sized_graph(7, 0, 200)]


def scaled(g, k):
    return gs.WeightedGraph(g.labels, g.links, tuple(w * 10.0**k for w in g.weights))


@pytest.mark.parametrize("k", SCALES)
def test_pinv_residual(graphs, k):
    for g in graphs:
        q = gs.build_laplacian(scaled(g, k))
        m = q.matrix
        assert np.abs(m @ q.pinv @ m - m).max() <= 1e-13 * np.abs(m).max()


@pytest.mark.parametrize("k", SCALES)
def test_resistance_scales_as_one_over_s(graphs, k):
    for g in graphs:
        want = gs.resistance_matrix(gs.build_laplacian(g))
        got = 10.0**k * gs.resistance_matrix(gs.build_laplacian(scaled(g, k)))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", SCALES)
def test_angles_do_not_change(graphs, k):
    for g in graphs:
        want = gs.dihedral_angles(gs.gram_pair_from_laplacian(gs.build_laplacian(g)))
        got = gs.dihedral_angles(gs.gram_pair_from_laplacian(gs.build_laplacian(scaled(g, k))))
        assert np.array_equal(got.codes, want.codes)
        assert np.abs(got.cosines - want.cosines).max() <= 1e-12


def verdicts(report):
    return ({name: c.passed for name, c in report.checks.items()},
            report.passed, report.spectral_passed, report.consistent)


@pytest.mark.parametrize("k", SCALES)
def test_validation_verdicts_do_not_change(graphs, k):
    k2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    specimens = [gs.build_laplacian(g).matrix for g in graphs] + [
        np.block([[k2, np.zeros((2, 2))], [np.zeros((2, 2)), k2]]),  # two components
        np.array([[2.0, 1.0, -3.0], [1.0, 2.0, -3.0], [-3.0, -3.0, 6.0]]),  # a positive link
    ]
    for m in specimens:
        assert verdicts(gs.validate_laplacian(10.0**k * m)) == verdicts(gs.validate_laplacian(m))


def test_tree_count_of_the_n1000_fixture_raises():
    # tau is about 10^1372 here; log tau is still open (ROADMAP 1(d))
    q = gs.build_laplacian(sized_graph(7, 0, 1000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntryError, match="spanning tree count"):
            gs.spanning_tree_count(q)


POWERS_OF_4 = [-400, -240, -120, 120, 240, 400]


def answers(g):
    """The Laplacian-side answers of g, each with the power of two by
    which it scales when every weight is multiplied by 4^k: (exponent per
    k, array)."""
    q = gs.build_laplacian(g)
    fb = gs.fiedler_blocks(q)
    return {
        "mu": (2, q.spectrum.eigenvalues),
        "pinv": (-2, q.pinv),
        "omega": (-2, gs.resistance_matrix(q)),
        "vertices": (-1, gs.embed_from_laplacian(q).vertices),
        "zeta": (-2, fb.zeta),
        "r": (0, fb.r),
        "radius": (-1, np.array(fb.radius)),
        "schur": (2, gs.schur_complement(q, list(range(0, g.n, 3))).matrix),
        "kron": (2, gs.kron_reduce_single(q, 0).matrix),
        "cosines": (0, gs.dihedral_angles(q).cosines),
    }, verdicts(gs.validate_laplacian(q))


@pytest.mark.parametrize("k", POWERS_OF_4)
def test_laplacian_answers_scale_bitwise_by_powers_of_4(k):
    # one grounded factor (and one eigh, for "mu") of Q scaled by an exact
    # power of two serves every answer, so weights times 4^k scale each one
    # by an exact power of two
    g = random_graph(np.random.default_rng(5), 60)
    want, want_verdicts = answers(g)
    got, got_verdicts = answers(
        gs.WeightedGraph(g.labels, g.links, tuple(w * 4.0**k for w in g.weights)))
    assert got_verdicts == want_verdicts
    for name, (power, value) in want.items():
        assert np.array_equal(got[name][1], np.ldexp(value, power * k)), name


def kernel_u_pair(condition):
    """Vertices V (5 x 6) and the double-centered A = J V^T V J, which has
    kernel u and eigenvalues from 1 down to 1/condition."""
    rng = np.random.default_rng(6)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(6), rng.standard_normal((6, 5))]))
    v = (basis[:, 1:] * np.sqrt(np.geomspace(1.0, 1.0 / condition, 5))).T
    return v, linalg.double_center(v.T @ v)


def gram_answers(v, a):
    """The Gram-side answers of V and A, each with the power of two by which
    it scales when V is multiplied by 2^k and A by 4^k."""
    canonical = gs.canonical_gram(v)
    face = gs.face_gram(canonical, [0, 2, 3, 5])
    return {
        "pinv_kernel_u": (-2, gs.pinv_kernel_u(a)),
        "gram_pair_from_pinv": (-2, gs.gram_pair_from_pinv(a).gram),
        "canonical_gram": (2, canonical.gram),
        "canonical_pinv_gram": (-2, canonical.pinv_gram),
        "face_gram": (2, face.gram),
        "face_pinv_gram": (-2, face.pinv_gram),
    }


# condition 5e9 fails the grounded factor's bound N |W|_1 |W|_inf <= 1/(4t),
# so pinv_kernel_u deflates its eigendecomposition; condition 10 passes it
@pytest.mark.parametrize("condition", [10.0, 5e9], ids=["cholesky", "eigh"])
@pytest.mark.parametrize("k", POWERS_OF_4)
def test_gram_answers_scale_bitwise_by_powers_of_4(condition, k):
    # the eigh route decomposes A scaled by an exact power of two
    v, a = kernel_u_pair(condition)
    screened = linalg.grounded_factor(a) is not None
    assert screened == (condition < 1e9)
    want = gram_answers(v, a)
    got = gram_answers(np.ldexp(v, k), np.ldexp(a, 2 * k))
    for name, (power, value) in want.items():
        assert np.array_equal(got[name][1], np.ldexp(value, power * k)), name


VERTICES = np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 1.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_canonical_gram_at_extreme_vertex_scales(scale):
    # the pair is formed for vertices scaled by 2^-e and scaled back, so it
    # answers wherever both Grams fit the float range
    want = gs.canonical_gram(VERTICES)
    got = gs.canonical_gram(VERTICES * scale)
    assert np.abs(got.gram / scale**2 - want.gram).max() <= 1e-14 * np.abs(want.gram).max()
    assert (np.abs(got.pinv_gram * scale**2 - want.pinv_gram).max()
            <= 1e-14 * np.abs(want.pinv_gram).max())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_canonical_gram_beyond_the_float_range_is_refused(scale):
    # Gram entries near 1e+-400: a typed refusal, not "affinely dependent"
    with pytest.raises(NonFiniteEntryError, match="^the Gram pair leaves the float range$"):
        gs.canonical_gram(VERTICES * scale)
