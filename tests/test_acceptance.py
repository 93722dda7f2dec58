"""End-to-end acceptance suite.

Each test is one acceptance criterion; running ``pytest -v`` on this file
prints one pass/fail line per criterion. The corpus is 200 seeded random
connected weighted graphs with 2 to 50 nodes and weights in (0.1, 10).
"""

import math

import numpy as np
import pytest

import graphsimplex as gs
from oracles import (
    complete_graph,
    count_spanning_trees_brute,
    path_graph,
    random_graph,
    random_sp_network,
    sp_document,
    sp_resistance,
    sp_terminals,
    unit_graph,
)

CORPUS_SEED = 20240901
CORPUS_SIZE = 200

NONHYPERACUTE = 9.0 * np.array(
    [[7, 1, -4, -4], [1, 7, -4, -4], [-4, -4, 12, -4], [-4, -4, -4, 12]], float
)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    graphs = [gs.build_laplacian(random_graph(rng, max_n=50, w_lo=0.1, w_hi=10.0))
              for _ in range(CORPUS_SIZE)]
    assert len(graphs) >= 200
    return graphs


def test_criterion_1_worked_example_reproduction():
    mdag = NONHYPERACUTE
    m = gs.pinv_kernel_u(mdag)
    pair = gs.GramPair(gram=mdag, pinv_gram=m)

    facet_a = np.array([[76, -38, -38], [-38, 91, -53], [-38, -53, 91]], float)
    facet_b = np.array([[51, -3, -48], [-3, 51, -48], [-48, -48, 96]], float)
    expected = {(1, 2, 3): facet_a, (0, 2, 3): facet_a,
                (0, 1, 3): facet_b, (0, 1, 2): facet_b}
    for v, want in expected.items():
        got = gs.face_gram(pair, list(v)).gram
        assert np.abs(got - want).max() <= 1e-6
        assert gs.validate_laplacian(got).passed

    cls = gs.dihedral_angles(gs.gram_pair_from_pinv(mdag))
    assert cls.has_obtuse
    assert cls.label(0, 1) == "obtuse"
    assert not gs.is_hyperacute(gs.gram_pair_from_pinv(mdag))

    zeta = np.diag(m)
    d = zeta[:, None] + zeta[None, :] - 2.0 * m
    assert gs.check_metric(d, "plain").passed


def test_criterion_2_block_identity_residual(corpus):
    worst = 0.0
    for q in corpus:
        worst = max(worst, gs.verify_fiedler_identity(q).residual)
    assert worst <= 1e-8


def test_criterion_3_schur_closure_and_resistance(corpus):
    rng = np.random.default_rng(CORPUS_SEED + 1)
    worst = 0.0
    for q in corpus:
        if q.n < 3:
            continue
        k = int(rng.integers(2, q.n))
        keep = sorted(rng.choice(q.n, size=k, replace=False).tolist())
        reduced = gs.schur_complement(q, keep)
        assert gs.validate_laplacian(reduced.matrix).passed
        worst = max(worst, gs.check_resistance_preservation(q, keep).residual)
    assert worst <= 1e-9


def test_criterion_4_quotient_property(corpus):
    rng = np.random.default_rng(CORPUS_SEED + 2)
    worst = 0.0
    for seed, q in enumerate(corpus[:40]):
        if q.n < 4:
            continue
        k_v = int(rng.integers(3, q.n))
        v = sorted(rng.choice(q.n, size=k_v, replace=False).tolist())
        k_w = int(rng.integers(2, k_v))
        w = sorted(rng.choice(v, size=k_w, replace=False).tolist())
        worst = max(worst, gs.check_quotient(q, v, w, seed=seed).residual)
    assert worst <= 1e-9


def test_criterion_5_metric_suite(corpus):
    for q in corpus:
        omega = gs.resistance_matrix(q)
        assert gs.check_metric(omega, "plain").passed
        assert gs.check_metric(omega, "sqrt").passed
    violation = np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]], float)
    assert not gs.check_metric(violation, "plain").passed


def test_criterion_6_circuit_oracle_equivalence():
    rng = np.random.default_rng(CORPUS_SEED + 3)
    networks = [random_sp_network(rng) for _ in range(25)]
    assert len(networks) >= 20
    for net in networks:
        g = gs.parse_graph(sp_document(net))
        a, b = sp_terminals(g)
        got = gs.effective_resistance(gs.build_laplacian(g), a, b)
        assert got == pytest.approx(sp_resistance(net), rel=1e-10)
    # analytic spot values
    for w in (0.5, 1.0, 4.0):
        q = gs.build_laplacian(gs.parse_graph(f"a b {w}"))
        assert gs.effective_resistance(q, 0, 1) == pytest.approx(1.0 / w, rel=1e-12)
    assert gs.effective_resistance(
        gs.build_laplacian(path_graph(3)), 0, 2) == pytest.approx(2.0, rel=1e-12)
    assert gs.effective_resistance(
        gs.build_laplacian(complete_graph(3)), 0, 1) == pytest.approx(2 / 3, rel=1e-12)


def test_criterion_7_circumsphere_and_volumes(corpus):
    for q in corpus[:60]:
        report = gs.circumsphere_check(gs.embed_from_laplacian(q), gs.fiedler_blocks(q))
        assert report.max_deviation <= 1e-8 * report.radius
    segment = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert gs.cayley_menger_volume(segment) == pytest.approx(1.0, abs=1e-9)
    triangle = np.ones((3, 3)) - np.eye(3)
    assert gs.cayley_menger_volume(triangle) == pytest.approx(math.sqrt(3) / 4, abs=1e-9)
    tetrahedron = np.ones((4, 4)) - np.eye(4)
    assert gs.cayley_menger_volume(tetrahedron) == pytest.approx(math.sqrt(2) / 12, abs=1e-9)


def test_criterion_8_matrix_tree_cross_check():
    assert gs.spanning_tree_count(
        gs.build_laplacian(complete_graph(3))) == pytest.approx(3, abs=1e-6)
    assert gs.spanning_tree_count(
        gs.build_laplacian(complete_graph(4))) == pytest.approx(16, abs=1e-6)
    assert gs.spanning_tree_count(
        gs.build_laplacian(path_graph(5))) == pytest.approx(1, abs=1e-6)
    rng = np.random.default_rng(CORPUS_SEED + 4)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        edges = list(random_graph(rng, n=n).links)
        expected = count_spanning_trees_brute(n, edges)
        got = gs.spanning_tree_count(gs.build_laplacian(unit_graph(n, edges)))
        assert got == pytest.approx(expected, abs=1e-6)


def test_criterion_9_bijection_round_trips(corpus):
    rng = np.random.default_rng(CORPUS_SEED + 5)
    for q in corpus[:60]:
        emb = gs.embed_from_laplacian(q)
        scale = np.abs(q.matrix).max()
        # the pair the embedding carries, and the one its vertices span
        for gp in (gs.canonical_gram(emb), gs.canonical_gram(emb.vertices)):
            assert np.abs(gp.pinv_gram - q.matrix).max() <= 1e-7 * scale
    for _ in range(30):
        g = random_graph(rng, max_n=20)
        q = gs.build_laplacian(g)
        g2 = gs.graph_from_laplacian(q.matrix)
        assert g2.links == g.links
        assert np.abs(np.array(g2.weights) - np.array(g.weights)).max() <= 1e-12
