"""Schur complement (Kron reduction) of Laplacians and its verification.

Reducing a Laplacian onto a kept subset V eliminates the complementary
nodes while preserving all effective resistances between kept nodes; the
result is again a Laplacian (closure) and reductions compose (quotient
property). The pseudoinverse route goes through the centered submatrix of
Q^dagger instead of block elimination.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    FaceTooSmallError,
    GraphSimplexError,
    IndexOutOfRangeError,
    SubsetViolationError,
    TooSmallError,
)
from .graphs import LaplacianMatrix
from .resistance import resistance_matrix
from .simplex import face_gram, gram_pair_from_laplacian

logger = logging.getLogger(__name__)


def _canonicalize(raw: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Restore exact Laplacian structure after rounding: symmetrize, clamp
    tiny positive off-diagonals to zero, and rebuild the diagonal from the
    off-diagonal row sums."""
    m = linalg.symmetric_part(raw)
    _canonicalize_in_place(m, tol)
    return m


def _canonicalize_in_place(m: np.ndarray, tol: Tolerances) -> None:
    """The clamp and diagonal rebuild of ``_canonicalize``, done in place
    on a symmetric matrix or a view into one."""
    if m.shape[0] == 1:  # no links; the row-sum rebuild would write -0.0
        m[0, 0] = 0.0
        return
    scale = max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
    np.fill_diagonal(m, 0.0)
    # Off-diagonals of a Laplacian are <= 0, so one max() pass usually
    # rules out any clamp without building the masks.
    if m.max() > 0:
        tiny = (m > 0) & (m <= tol.clamp * scale)
        clamped = int(np.count_nonzero(tiny))
        if clamped:
            logger.debug("clamped %d tiny positive off-diagonal entries", clamped)
            m[tiny] = 0.0
    np.fill_diagonal(m, -m.sum(axis=1))


def _symmetric_buffer(q: LaplacianMatrix, perm: list[int]) -> np.ndarray:
    """The symmetric part of Q with rows and columns in ``perm`` order, as a
    new array that the elimination routines overwrite (a copy of Q when Q
    is symmetric)."""
    return linalg.symmetric_part(np.asarray(q.matrix)[np.ix_(perm, perm)])


def _eliminate_last(a: np.ndarray, tol: Tolerances) -> None:
    """Eliminate the last node of the symmetric Laplacian ``a`` in place:
    afterwards ``a[:-1, :-1]`` is the canonical Kron reduction and the last
    row and column are stale."""
    k = a.shape[0] - 1
    col = a[:k, k]
    core = a[:k, :k]
    core -= np.outer(col, col) / a[k, k]
    _canonicalize_in_place(core, tol)


def _eliminate_panel(a: np.ndarray, k: int, tol: Tolerances) -> None:
    """Eliminate the nodes ``k:`` of the symmetric Laplacian ``a`` in place
    as one panel: afterwards ``a[:k, :k]`` is the canonical Kron reduction
    and the rest of ``a`` is stale.

    The pivot block ``a[k:, k:]`` is positive definite for any valid
    connected Laplacian, so it is factored as L L^T and the update is the
    exactly symmetric X^T X with X = L^{-1} a[k:, :k]; a factorization
    failure signals inconsistent input rather than a tolerance issue.
    """
    try:
        ell = np.linalg.cholesky(a[k:, k:])
    except np.linalg.LinAlgError as exc:
        raise GraphSimplexError(
            "eliminated block is not positive definite; input is not a "
            "valid connected Laplacian"
        ) from exc
    x = np.linalg.solve(ell, a[k:, :k])
    core = a[:k, :k]
    core -= x.T @ x
    _canonicalize_in_place(core, tol)


# Nodes per panel of ``_eliminate_in_order``. Eliminating 750 of 1000
# nodes on one BLAS thread took ~2.5 s one node at a time and ~75 ms at
# 64; wider panels gain little (~57 ms at 256) and canonicalize less often.
_PANEL = 64


def _eliminate_in_order(q: LaplacianMatrix, w_idx: list[int],
                        order: Sequence[int], tol: Tolerances) -> np.ndarray:
    """Eliminate the nodes of ``order``, first to last, in panels of
    ``_PANEL`` consecutive nodes (the last panel may be shorter), in one
    buffer holding W and then ``order`` reversed, so that each panel drops
    the trailing nodes of the leading block. Rows of the result follow W.

    A panel's update is the exact Schur complement of eliminating its
    nodes one at a time in that order; the buffer is symmetrized once up
    front, each update keeps it exactly symmetric, and canonicalization
    runs once per panel.
    """
    perm = w_idx + list(order[::-1])
    buf = _symmetric_buffer(q, perm)
    for k in range(len(perm), len(w_idx), -_PANEL):
        _eliminate_panel(buf[:k, :k], max(k - _PANEL, len(w_idx)), tol)
    return buf[:len(w_idx), :len(w_idx)]


def schur_complement(q: LaplacianMatrix, keep: Sequence[int],
                     tol: Tolerances = DEFAULT) -> LaplacianMatrix:
    """Q/V^c = Q_VV - Q_VVc (Q_VcVc)^{-1} Q_VcV, rows/columns ordered as in
    ``keep``. Keeping every node returns Q unchanged; otherwise the whole
    complement is eliminated as one panel (``_eliminate_panel``), which
    raises GraphSimplexError when Q_VcVc is not positive definite.
    """
    m = np.asarray(q.matrix)
    idx = linalg.check_subset(keep, q.n)
    kept = set(idx)
    elim = [i for i in range(q.n) if i not in kept]
    if not elim:
        return LaplacianMatrix(m[np.ix_(idx, idx)])
    buf = _symmetric_buffer(q, idx + elim)
    _eliminate_panel(buf, len(idx), tol)
    return LaplacianMatrix(buf[:len(idx), :len(idx)])


def kron_reduce_single(q: LaplacianMatrix, node: int,
                       tol: Tolerances = DEFAULT) -> LaplacianMatrix:
    """Eliminate one node: Q/{v}^c = Q' + diag(q_v) - q_v q_v^T / d_v,
    where q_v holds the link weights into the node and d_v its degree."""
    n = q.n
    if n < 3:
        raise TooSmallError("single-node elimination needs n >= 3")
    if not 0 <= node < n:
        raise IndexOutOfRangeError(f"node {node} out of range for n={n}")
    buf = _symmetric_buffer(q, [i for i in range(n) if i != node] + [node])
    _eliminate_last(buf, tol)
    return LaplacianMatrix(buf[:-1, :-1])


def schur_via_pinv(q: LaplacianMatrix, keep: Sequence[int],
                   tol: Tolerances = DEFAULT) -> LaplacianMatrix:
    """The complementary route: (Q/V^c)^dagger is the centered submatrix of
    Q^dagger, the Gram matrix of the face on V, so the reduction is that
    face's pseudoinverse Gram."""
    face = face_gram(gram_pair_from_laplacian(q), keep, tol)
    return LaplacianMatrix(_canonicalize(face.pinv_gram, tol))


@dataclass(frozen=True)
class QuotientReport:
    """Residuals between one-shot, two-stage, and node-by-node reductions."""

    seed: int
    elimination_order: tuple[int, ...]
    staged_residual: float
    incremental_residual: float

    @property
    def residual(self) -> float:
        return max(self.staged_residual, self.incremental_residual)


def check_quotient(q: LaplacianMatrix, v: Sequence[int], w: Sequence[int],
                   seed: int = 0, tol: Tolerances = DEFAULT) -> QuotientReport:
    """Verify the quotient property on W subseteq V: reducing straight to W
    equals reducing to V and then to W, and equals eliminating the nodes of
    N \\ W in a random (seeded) order.

    The incremental route permutes Q once into a single n x n buffer and
    eliminates the seeded order in place, panel by panel
    (``_eliminate_in_order``): each panel's update is the exact Schur
    complement of eliminating its nodes one at a time, and the buffer is
    canonicalized once per panel.
    """
    v_idx = linalg.check_subset(v, q.n)
    w_idx = linalg.check_subset(w, q.n)
    v_pos = {node: pos for pos, node in enumerate(v_idx)}
    w_set = set(w_idx)
    if not w_set <= v_pos.keys():
        raise SubsetViolationError("W must be a subset of V")
    if len(w_idx) < 2:
        raise FaceTooSmallError("W needs at least 2 nodes")

    one_shot = schur_complement(q, w_idx, tol).matrix

    stage_one = schur_complement(q, v_idx, tol)
    w_in_v = [v_pos[i] for i in w_idx]
    staged = schur_complement(stage_one, w_in_v, tol).matrix
    staged_residual = float(np.abs(one_shot - staged).max())

    rng = np.random.default_rng(seed)
    to_eliminate = [i for i in range(q.n) if i not in w_set]
    order = tuple(int(i) for i in rng.permutation(to_eliminate))
    incremental = _eliminate_in_order(q, w_idx, order, tol)
    incremental_residual = float(np.abs(one_shot - incremental).max())

    return QuotientReport(
        seed=seed,
        elimination_order=order,
        staged_residual=staged_residual,
        incremental_residual=incremental_residual,
    )


@dataclass(frozen=True)
class PreservationReport:
    """Worst-case mismatch between reduced and restricted resistances."""

    residual: float

    def passed(self, threshold: float = 1e-9) -> bool:
        return self.residual <= threshold


def check_resistance_preservation(q: LaplacianMatrix, keep: Sequence[int],
                                  tol: Tolerances = DEFAULT) -> PreservationReport:
    """Effective resistances between kept nodes must be unchanged by the
    reduction: Omega(Q/V^c)_ab = Omega(Q)_{V[a] V[b]}."""
    idx = linalg.check_subset(keep, q.n)
    if len(idx) < 2:
        raise FaceTooSmallError("need at least 2 kept nodes")
    reduced = schur_complement(q, idx, tol)
    omega_reduced = resistance_matrix(reduced)
    omega_restricted = resistance_matrix(q)[np.ix_(idx, idx)]
    return PreservationReport(
        residual=float(np.abs(omega_reduced - omega_restricted).max())
    )
