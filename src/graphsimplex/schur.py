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

logger = logging.getLogger(__name__)


def _canonicalize(raw: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Restore exact Laplacian structure after rounding: symmetrize, clamp
    tiny positive off-diagonals to zero, and rebuild the diagonal from the
    off-diagonal row sums."""
    m = 0.5 * (raw + raw.T)
    k = m.shape[0]
    if k == 1:
        return np.zeros((1, 1))
    _canonicalize_in_place(m, tol)
    return m


def _canonicalize_in_place(m: np.ndarray, tol: Tolerances) -> None:
    """The clamp and diagonal rebuild of ``_canonicalize``, done in place
    on a symmetric matrix or a view into one."""
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


def _eliminate_last(a: np.ndarray, tol: Tolerances) -> None:
    """Eliminate the last node of the symmetric Laplacian ``a`` in place:
    afterwards ``a[:-1, :-1]`` is the canonical Kron reduction and the last
    row and column are stale."""
    k = a.shape[0] - 1
    col = a[:k, k]
    core = a[:k, :k]
    core -= np.outer(col, col) / a[k, k]
    _canonicalize_in_place(core, tol)


def _eliminate_in_order(q: LaplacianMatrix, w_idx: list[int],
                        order: Sequence[int], tol: Tolerances) -> np.ndarray:
    """Eliminate the nodes of ``order`` one at a time, first to last, in a
    buffer holding W and then ``order`` reversed, so that each step drops
    the last node of the leading block. Rows of the result follow W.

    The buffer is symmetrized once up front (a no-op on a symmetric Q);
    the steps then keep it exactly symmetric, as ``_canonicalize`` would.
    """
    perm = w_idx + list(order[::-1])
    buf = np.asarray(q.matrix)[np.ix_(perm, perm)]
    buf = 0.5 * (buf + buf.T)
    for k in range(len(perm), len(w_idx), -1):
        _eliminate_last(buf[:k, :k], tol)
    return buf[:len(w_idx), :len(w_idx)]


def schur_complement(q: LaplacianMatrix, keep: Sequence[int],
                     tol: Tolerances = DEFAULT) -> LaplacianMatrix:
    """Q/V^c = Q_VV - Q_VVc (Q_VcVc)^{-1} Q_VcV, rows/columns ordered as in
    ``keep``. Keeping every node returns Q unchanged.

    The eliminated block is positive definite for any valid Laplacian, so
    it is factored as L L^T and the update is X^T X with X = L^{-1} Q_VcV;
    a factorization failure signals inconsistent input rather than a
    tolerance issue.
    """
    m = np.asarray(q.matrix)
    idx = linalg.check_subset(keep, q.n)
    kept = set(idx)
    elim = [i for i in range(q.n) if i not in kept]
    if not elim:
        return LaplacianMatrix(m[np.ix_(idx, idx)])
    q_vv = m[np.ix_(idx, idx)]
    q_ev = m[np.ix_(elim, idx)]
    q_ee = m[np.ix_(elim, elim)]
    try:
        ell = np.linalg.cholesky(q_ee)
    except np.linalg.LinAlgError as exc:
        raise GraphSimplexError(
            "eliminated block is not positive definite; input is not a "
            "valid connected Laplacian"
        ) from exc
    x = np.linalg.solve(ell, q_ev)
    reduced = q_vv - x.T @ x
    return LaplacianMatrix(_canonicalize(reduced, tol))


def kron_reduce_single(q: LaplacianMatrix, node: int,
                       tol: Tolerances = DEFAULT) -> LaplacianMatrix:
    """Eliminate one node: Q/{v}^c = Q' + diag(q_v) - q_v q_v^T / d_v,
    where q_v holds the link weights into the node and d_v its degree."""
    n = q.n
    if n < 3:
        raise TooSmallError("single-node elimination needs n >= 3")
    if not 0 <= node < n:
        raise IndexOutOfRangeError(f"node {node} out of range for n={n}")
    rest = [i for i in range(n) if i != node]
    return LaplacianMatrix(_eliminate_in_order(q, rest, [node], tol))


def schur_via_pinv(q: LaplacianMatrix, keep: Sequence[int],
                   tol: Tolerances = DEFAULT) -> LaplacianMatrix:
    """The complementary route: (Q/V^c)^dagger is the centered submatrix of
    Q^dagger, so the reduction is its pseudoinverse."""
    idx = linalg.check_subset(keep, q.n)
    if len(idx) < 2:
        raise FaceTooSmallError("pseudoinverse route needs at least 2 kept nodes")
    k = len(idx)
    j = linalg.centering_projector(k)
    centered = j @ q.pinv[np.ix_(idx, idx)] @ j
    reduced = linalg.pinv_kernel_u(0.5 * (centered + centered.T), tol)
    return LaplacianMatrix(_canonicalize(reduced, tol))


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
    N \\ W one at a time in a random (seeded) order.

    The node-by-node route permutes Q once into a single n x n buffer and
    eliminates in place, shrinking the leading block by one node per step,
    so it allocates no new Laplacian per step.
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
