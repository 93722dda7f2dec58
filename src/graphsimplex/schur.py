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
    scale = max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
    off = m - np.diag(np.diag(m))
    clamped = int(np.count_nonzero((off > 0) & (off <= tol.clamp * scale)))
    if clamped:
        logger.debug("clamped %d tiny positive off-diagonal entries", clamped)
        off[(off > 0) & (off <= tol.clamp * scale)] = 0.0
    out = off.copy()
    np.fill_diagonal(out, -off.sum(axis=1))
    return out


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
    elim = [i for i in range(q.n) if i not in set(idx)]
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
    m = np.asarray(q.matrix)
    rest = [i for i in range(n) if i != node]
    qv = -m[rest, node]
    dv = m[node, node]
    core = m[np.ix_(rest, rest)] - np.diag(qv)  # Laplacian without the node
    reduced = core + np.diag(qv) - np.outer(qv, qv) / dv
    return LaplacianMatrix(_canonicalize(reduced, tol))


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
    N \\ W one at a time in a random (seeded) order."""
    v_idx = linalg.check_subset(v, q.n)
    w_idx = linalg.check_subset(w, q.n)
    if not set(w_idx) <= set(v_idx):
        raise SubsetViolationError("W must be a subset of V")
    if len(w_idx) < 2:
        raise FaceTooSmallError("W needs at least 2 nodes")

    one_shot = schur_complement(q, w_idx, tol).matrix

    stage_one = schur_complement(q, v_idx, tol)
    w_in_v = [v_idx.index(i) for i in w_idx]
    staged = schur_complement(stage_one, w_in_v, tol).matrix
    staged_residual = float(np.abs(one_shot - staged).max())

    rng = np.random.default_rng(seed)
    to_eliminate = [i for i in range(q.n) if i not in set(w_idx)]
    order = tuple(int(i) for i in rng.permutation(to_eliminate))
    current = q
    remaining = list(range(q.n))
    for node in order:
        current = kron_reduce_single(current, remaining.index(node), tol)
        remaining.remove(node)
    # remaining now equals w_idx up to order; align columns
    perm = [remaining.index(i) for i in w_idx]
    incremental = current.matrix[np.ix_(perm, perm)]
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
