"""Schur complement (Kron reduction) of Laplacians and its verification.

Reducing a Laplacian onto a kept subset V eliminates the complementary
nodes while preserving all effective resistances between kept nodes; the
result is again a Laplacian (closure) and reductions compose (quotient
property). The pseudoinverse route goes through the centered submatrix of
Q^dagger instead of block elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .config import DEFAULT
from .errors import (
    FaceTooSmallError,
    GraphSimplexError,
    NonFiniteEntryError,
    SubsetViolationError,
    TooSmallError,
)
from .graphs import LaplacianMatrix
from .resistance import resistance_matrix
from .simplex import face_gram, gram_pair_from_laplacian


def _canonicalize(m: np.ndarray) -> np.ndarray:
    """Zero, in place, the tiny positive links the pseudoinverse route's
    rounding leaves in its exactly symmetric reduction ``m`` (at most
    ``DEFAULT.clamp`` times the largest diagonal entry) and rebuild the
    diagonal."""
    scale = max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
    m[(m > 0) & (m <= DEFAULT.clamp * scale)] = 0.0  # the diagonal is rebuilt
    _canonicalize_in_place(m)
    return m


def _canonicalize_in_place(m: np.ndarray) -> None:
    """Rebuild the diagonal of a symmetric matrix, or a view into one, from
    its off-diagonal row sums, as +0.0 for a lone node (0.0 - 0.0)."""
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, 0.0 - m.sum(axis=1))


def _eliminate_in_order(q: LaplacianMatrix, keep: list[int],
                        order: Sequence[int]) -> np.ndarray:
    """Q reduced onto ``keep`` by eliminating the nodes of ``order``, first
    to last, in an array of its own; rows of the result follow ``keep``.
    Eliminating nothing leaves Q's symmetric part, reordered.

    Three blocks of Q's symmetric part are gathered (``linalg.submatrix``):
    the kept one, the eliminated one and their coupling. The eliminated
    block is positive definite for any valid connected Laplacian, so one
    Cholesky factorization L L^T, whose pivots follow ``order``, eliminates
    it; X^T X with X = L^{-1} Q_{order, keep} is subtracted, exactly
    symmetric, and the diagonal rebuilt. L's off-diagonals and X are <= 0
    (unless a leaf LU of ``linalg.lower_solve`` swaps rows), so no link
    turns positive and nothing needs a clamp. A factorization failure
    signals inconsistent input, not a tolerance problem; an update that
    leaves the float range raises NonFiniteEntryError.
    """
    s = q.symmetric
    core = linalg.submatrix(s, keep, keep)
    if order:
        try:
            ell = np.linalg.cholesky(linalg.submatrix(s, order, order))
        except np.linalg.LinAlgError as exc:
            raise GraphSimplexError(
                "eliminated block is not positive definite; input is not a "
                "valid connected Laplacian"
            ) from exc
        x = linalg.lower_solve(ell, linalg.submatrix(s, order, keep))
        del ell
        with np.errstate(over="ignore"):
            core -= x.T @ x
        if not np.isfinite(core).all():
            raise NonFiniteEntryError("the reduction overflows the float range")
        _canonicalize_in_place(core)
    return core


def schur_complement(q: LaplacianMatrix, keep: Sequence[int]) -> LaplacianMatrix:
    """Q/V^c = Q_VV - Q_VVc (Q_VcVc)^{-1} Q_VcV, rows/columns ordered as in
    ``keep``, by one factorization of the complement
    (``_eliminate_in_order``), which raises GraphSimplexError when Q_VcVc
    is not positive definite.

    Q keeps its most recent reduction, so asking again for the same
    ``keep``, in the same order, returns that reduction without factoring
    anything.
    """
    idx = linalg.check_subset(keep, q.n)
    key = tuple(idx)
    if q._reduction is not None and q._reduction[0] == key:
        return q._reduction[1]
    kept = set(idx)
    complement = [i for i in range(q.n) if i not in kept]
    reduced = LaplacianMatrix._built(_eliminate_in_order(q, idx, complement))
    q._reduction = (key, reduced)
    return reduced


def kron_reduce_single(q: LaplacianMatrix, node: int) -> LaplacianMatrix:
    """Eliminate one node: Q/{v}^c = Q' + diag(q_v) - q_v q_v^T / d_v,
    where q_v holds the link weights into the node and d_v its degree;
    bitwise ``schur_complement`` onto the other nodes, without replacing
    the reduction Q keeps."""
    if q.n < 3:
        raise TooSmallError("single-node elimination needs n >= 3")
    node, = linalg.check_subset([node], q.n)
    others = [i for i in range(q.n) if i != node]
    return LaplacianMatrix._built(_eliminate_in_order(q, others, [node]))


def schur_via_pinv(q: LaplacianMatrix, keep: Sequence[int]) -> LaplacianMatrix:
    """The complementary route: (Q/V^c)^dagger is the centered submatrix of
    Q^dagger, the Gram matrix of the face on V, so the reduction is that
    face's pseudoinverse Gram."""
    face = face_gram(gram_pair_from_laplacian(q), keep)
    return LaplacianMatrix._built(_canonicalize(face.pinv_gram))


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
                   seed: int = 0) -> QuotientReport:
    """Verify the quotient property on W subseteq V: reducing straight to W
    equals reducing to V and then to W, and equals eliminating the nodes of
    N \\ W in a random (seeded) order.

    The incremental route is one factorization whose pivots follow the
    seeded order (``_eliminate_in_order``): the exact Schur complement of
    eliminating those nodes one at a time.
    """
    v_idx = linalg.check_subset(v, q.n)
    w_idx = linalg.check_subset(w, q.n)
    v_pos = {node: pos for pos, node in enumerate(v_idx)}
    w_set = set(w_idx)
    if not w_set <= v_pos.keys():
        raise SubsetViolationError("W must be a subset of V")
    if len(w_idx) < 2:
        raise FaceTooSmallError("W needs at least 2 nodes")

    # stage one first: a reduction onto V that Q still keeps is reused
    stage_one = schur_complement(q, v_idx)
    one_shot = schur_complement(q, w_idx).matrix

    w_in_v = [v_pos[i] for i in w_idx]
    staged = schur_complement(stage_one, w_in_v).matrix
    staged_residual = float(np.abs(one_shot - staged).max())

    rng = np.random.default_rng(seed)
    to_eliminate = [i for i in range(q.n) if i not in w_set]
    order = tuple(int(i) for i in rng.permutation(to_eliminate))
    incremental = _eliminate_in_order(q, w_idx, order)
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


def check_resistance_preservation(q: LaplacianMatrix,
                                  keep: Sequence[int]) -> PreservationReport:
    """Effective resistances between kept nodes must be unchanged by the
    reduction: Omega(Q/V^c)_ab = Omega(Q)_{V[a] V[b]}."""
    idx = linalg.check_subset(keep, q.n)
    if len(idx) < 2:
        raise FaceTooSmallError("need at least 2 kept nodes")
    reduced = schur_complement(q, idx)
    omega_reduced = resistance_matrix(reduced)
    omega_restricted = linalg.squared_distances(linalg.submatrix(q.pinv, idx, idx))
    return PreservationReport(
        residual=float(np.abs(omega_reduced - omega_restricted).max())
    )
