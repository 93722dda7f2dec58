"""Effective resistances, the resistance matrix, the block-matrix identity
relating it to the Laplacian, and metric verification.

The key objects are the resistance matrix Omega (squared vertex distances
of the associated simplex), the circumcenter coordinate vector r and the
circumradius R, tied together by the identity

    -1/2 [[0, u^T], [u, Omega]]  =  [[4R^2, -2r^T], [-2r, Q]]^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    AsymmetricError,
    IndexOutOfRangeError,
    NonZeroDiagonalError,
)
from .graphs import LaplacianMatrix

# Deficit entries per slab of check_metric (8 MiB of float64). Slabs of
# 2^22 entries (32 MiB) raised the peak RSS of a CLI process by 6-9%,
# likely through glibc's dynamic mmap threshold.
_SLAB_ENTRIES = 2**20


def effective_resistance(q: LaplacianMatrix, i: int, j: int) -> float:
    """omega_ij = (e_i - e_j)^T Q^dagger (e_i - e_j)."""
    n = q.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"indices ({i}, {j}) out of range for n={n}")
    if i == j:
        return 0.0
    p = q.pinv
    return float(p[i, i] + p[j, j] - 2.0 * p[i, j])


def resistance_matrix(q: LaplacianMatrix) -> np.ndarray:
    """Omega = zeta u^T + u zeta^T - 2 Q^dagger with zeta = diag(Q^dagger)."""
    return linalg.squared_distances(q.pinv)


@dataclass(frozen=True)
class FiedlerBlocks:
    """zeta = diag(Q^dagger); r locates the circumcenter (as S r) in
    barycentric-style coordinates with u^T r = 1; R is the circumradius."""

    zeta: np.ndarray
    r: np.ndarray
    radius: float


def _blocks(m: np.ndarray, mdag: np.ndarray) -> FiedlerBlocks:
    """Blocks of the identity for the Gram pair (M, M^dagger)."""
    n = m.shape[0]
    u = np.ones(n)
    zeta = np.diag(m).copy()
    r = 0.5 * (mdag @ zeta) + u / n
    radius = float(np.sqrt(0.5 * zeta @ (r + u / n)))
    return FiedlerBlocks(zeta=zeta, r=r, radius=radius)


def fiedler_blocks(q: LaplacianMatrix) -> FiedlerBlocks:
    return _blocks(q.pinv, q.matrix)


@dataclass(frozen=True)
class IdentityResidual:
    """Max-abs residuals of A @ B = I and B @ A = I for the block identity."""

    residual_ab: float
    residual_ba: float

    @property
    def residual(self) -> float:
        return max(self.residual_ab, self.residual_ba)

    def passed(self, threshold: float = DEFAULT.residual) -> bool:
        return self.residual <= threshold


def _identity_residual(omega: np.ndarray, gram_inverse: np.ndarray,
                       r: np.ndarray, radius: float) -> IdentityResidual:
    n = omega.shape[0]
    u = np.ones((n, 1))
    a = -0.5 * np.block([[np.zeros((1, 1)), u.T], [u, omega]])
    b = np.block([[np.full((1, 1), 4.0 * radius**2), -2.0 * r[None, :]],
                  [-2.0 * r[:, None], gram_inverse]])
    eye = np.eye(n + 1)
    return IdentityResidual(
        residual_ab=float(np.abs(a @ b - eye).max()),
        residual_ba=float(np.abs(b @ a - eye).max()),
    )


def verify_fiedler_identity(q: LaplacianMatrix) -> IdentityResidual:
    fb = fiedler_blocks(q)
    return _identity_residual(resistance_matrix(q), q.matrix, fb.r, fb.radius)


def verify_identity_general(pinv_gram, distances=None,
                            tol: Tolerances = DEFAULT) -> IdentityResidual:
    """The block identity for an arbitrary canonical pseudoinverse Gram
    matrix (PSD, kernel span{u}), hyperacute or not.

    ``distances`` defaults to the squared-distance matrix derived from
    M = pinv(pinv_gram); pass it explicitly to verify external data.
    """
    mdag = linalg.symmetrize(pinv_gram)
    m = linalg.pinv_kernel_u(mdag, tol)  # raises RankDeficientError
    if distances is None:
        distances = linalg.squared_distances(m)
    else:
        distances = linalg.as_square_array(distances)
    fb = _blocks(m, mdag)
    return _identity_residual(distances, mdag, fb.r, fb.radius)


def inverse_resistance_matrix(q: LaplacianMatrix) -> np.ndarray:
    """Omega^{-1} = -1/2 (Q - r r^T / R^2), read off the block identity."""
    fb = fiedler_blocks(q)
    inv = -0.5 * (q.matrix - np.outer(fb.r, fb.r) / fb.radius**2)
    return linalg.symmetric_part(inv)


@dataclass(frozen=True)
class MetricReport:
    """Outcome of an exhaustive metric check on a distance-like matrix."""

    mode: str
    positive_offdiag: bool
    violations: int
    worst_triple: tuple[int, int, int] | None
    worst_slack: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.positive_offdiag and self.violations == 0


def check_metric(d, mode: str = "plain", tol: Tolerances = DEFAULT) -> MetricReport:
    """Verify metric axioms on D (mode "plain") or entrywise sqrt(D)
    (mode "sqrt"): zero diagonal, symmetry, positive off-diagonal, and all
    ordered triangle inequalities d(i,j) + d(j,k) >= d(i,k).

    Violations smaller than the slack (relative to the max entry) are
    treated as floating-point noise. The n^3 deficits are visited in slabs
    of at most ``_SLAB_ENTRIES``, so memory is O(slab), not O(n^3); the
    violation count, worst triple and worst slack are still exact.
    """
    if mode not in ("plain", "sqrt"):
        raise ValueError(f"unknown mode {mode!r}")
    m = linalg.as_square_array(d)
    n = m.shape[0]
    scale = max(float(np.abs(m).max()), np.finfo(float).tiny)
    if np.abs(np.diag(m)).max() > tol.metric_slack * scale:
        raise NonZeroDiagonalError("distance matrix has a nonzero diagonal")
    if np.abs(m - m.T).max() > tol.metric_slack * scale:
        raise AsymmetricError("distance matrix is not symmetric")
    if mode == "sqrt":
        m = np.sqrt(np.maximum(m, 0.0))
    off = m + np.diag(np.full(n, np.inf))
    positive_offdiag = bool(n < 2 or off.min() > 0.0)

    slack = tol.metric_slack * max(float(m.max(initial=0.0)), np.finfo(float).tiny)
    # deficit[i, j, k] = d(i,k) - d(i,j) - d(j,k) over all ordered triples,
    # one slab of (i, j) rows at a time in C order, so the first strict
    # maximum over the slabs is the full tensor's argmax
    rows = max(1, _SLAB_ENTRIES // n)
    i_step, j_step = max(1, rows // n), min(rows, n)
    slab = np.empty((min(i_step, n), j_step, n))
    worst, flat, violations = -np.inf, 0, 0
    for i0 in range(0, n, i_step):
        m_i = m[i0:i0 + i_step]
        for j0 in range(0, n, j_step):
            m_j = m[j0:j0 + j_step]
            deficit = slab[:len(m_i), :len(m_j)]
            np.subtract(m_i[:, None, :], m_i[:, j0:j0 + j_step, None], out=deficit)
            deficit -= m_j
            violations += int(np.count_nonzero(deficit > slack))
            top = float(deficit.max())
            if top > worst:
                di, dj, k = np.unravel_index(int(np.argmax(deficit)), deficit.shape)
                worst, flat = top, ((i0 + di) * n + j0 + dj) * n + k
    worst_triple = None
    if violations:
        i, j, k = np.unravel_index(flat, (n, n, n))
        worst_triple = (int(i), int(j), int(k))
    return MetricReport(
        mode=mode,
        positive_offdiag=positive_offdiag,
        violations=violations,
        worst_triple=worst_triple,
        worst_slack=worst,
        slack=slack,
    )
