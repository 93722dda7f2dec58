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
from .config import DEFAULT
from .errors import (
    AsymmetricError,
    DegenerateDistanceMatrixError,
    IndexOutOfRangeError,
    NonZeroDiagonalError,
)
from .graphs import LaplacianMatrix

# Float64 deficits per chunk of check_metric's exact recheck: 256 KiB, so a
# chunk stays in L2. The float32 screen's tiles hold eight times as many
# entries (1 MiB), four pair rows by as many pair columns as fit.
_SLAB_ENTRIES = 2**15
_TILE_ROWS = 4


def effective_resistance(q: LaplacianMatrix, i: int, j: int) -> float:
    """omega_ij = (e_i - e_j)^T Q^dagger (e_i - e_j); ``i`` and ``j`` must
    be true integers (``linalg.as_index``)."""
    n = q.n
    i, j = linalg.as_index(i), linalg.as_index(j)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"indices ({i}, {j}) out of range for n={n}")
    return float(linalg.squared_distances(q.pinv[np.ix_((i, j), (i, j))])[0, 1])


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
    return _blocks(q.pinv, q.symmetric)


@dataclass(frozen=True)
class IdentityResidual:
    """Max-abs residuals of A @ B = I and B @ A = (A @ B)^T = I, one value."""

    residual_ab: float
    residual_ba: float

    @property
    def residual(self) -> float:
        return max(self.residual_ab, self.residual_ba)

    def passed(self, threshold: float = DEFAULT.residual) -> bool:
        return self.residual <= threshold


def _identity_residual(omega: np.ndarray, gram_inverse: np.ndarray,
                       r: np.ndarray, radius: float) -> IdentityResidual:
    """One product A @ B, for exactly symmetric ``omega`` and
    ``gram_inverse``: then A and B are symmetric too."""
    n = omega.shape[0]
    u = np.ones((n, 1))
    a = -0.5 * np.block([[np.zeros((1, 1)), u.T], [u, omega]])
    b = np.block([[np.full((1, 1), 4.0 * radius**2), -2.0 * r[None, :]],
                  [-2.0 * r[:, None], gram_inverse]])
    residual = _max_abs_minus_identity(a @ b)
    return IdentityResidual(residual_ab=residual, residual_ba=residual)


def _max_abs_minus_identity(x: np.ndarray) -> float:
    """max |X - I|, overwriting the square array X."""
    x.flat[::x.shape[0] + 1] -= 1.0
    return float(np.abs(x, out=x).max())


def verify_fiedler_identity(q: LaplacianMatrix) -> IdentityResidual:
    fb = fiedler_blocks(q)
    return _identity_residual(resistance_matrix(q), q.symmetric, fb.r, fb.radius)


def verify_identity_general(pinv_gram, distances=None) -> IdentityResidual:
    """The block identity for an arbitrary canonical pseudoinverse Gram
    matrix (PSD, kernel span{u}), hyperacute or not.

    ``distances`` defaults to the squared-distance matrix derived from
    M = pinv(pinv_gram); pass it explicitly to verify external data, with
    one row and column per vertex, symmetric as ``linalg.symmetrize``
    requires.
    """
    mdag = linalg.symmetrize(pinv_gram)
    m = linalg.pinv_kernel_u(mdag)  # raises RankDeficientError
    if distances is None:
        distances = linalg.squared_distances(m)
    else:
        distances = linalg.symmetrize(distances)  # raises AsymmetricError
        if distances.shape != m.shape:
            raise DegenerateDistanceMatrixError(
                f"distances have shape {distances.shape}, not the Gram's {m.shape}"
            )
    fb = _blocks(m, mdag)
    return _identity_residual(distances, mdag, fb.r, fb.radius)


def inverse_resistance_matrix(q: LaplacianMatrix) -> np.ndarray:
    """Omega^{-1} = -1/2 (Q - r r^T / R^2), read off the block identity."""
    fb = fiedler_blocks(q)
    return -0.5 * (q.symmetric - np.outer(fb.r, fb.r) / fb.radius**2)


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


def check_zero_diagonal(d: np.ndarray) -> None:
    """Require the zero diagonal of a distance matrix up to the metric
    slack, |d_ii| <= metric_slack max|D|; NonZeroDiagonalError otherwise."""
    scale = max(float(np.abs(d).max()), np.finfo(float).tiny)
    if np.abs(np.diag(d)).max() > DEFAULT.metric_slack * scale:
        raise NonZeroDiagonalError("distance matrix has a nonzero diagonal")


def check_metric(d, mode: str = "plain") -> MetricReport:
    """Verify metric axioms on D (mode "plain") or entrywise sqrt(D)
    (mode "sqrt"): zero diagonal, symmetry, positive off-diagonal, and all
    ordered triangle inequalities d(i,j) + d(j,k) >= d(i,k).

    Violations smaller than the slack (relative to the max entry) are
    treated as floating-point noise. A float32 screen bounds every row
    (i, j) of the n^3 deficits, and only the rows whose bound comes within
    its rounding error of the slack or of the trivial triples' maximum are
    recomputed in float64, in chunks of at most ``_SLAB_ENTRIES``; the
    violation count, worst triple and worst slack are those of the full
    tensor, bit for bit. Working memory is a few n x n arrays.
    """
    if mode not in ("plain", "sqrt"):
        raise ValueError(f"unknown mode {mode!r}")
    m = linalg.as_square_array(d)
    n = m.shape[0]
    check_zero_diagonal(m)
    if linalg.is_asymmetric(m):
        raise AsymmetricError("distance matrix is not symmetric")
    if mode == "sqrt":
        m = np.sqrt(np.maximum(m, 0.0))
    positive_offdiag = bool(n < 2 or (m + np.diag(np.full(n, np.inf))).min() > 0.0)

    slack = DEFAULT.metric_slack * max(float(m.max(initial=0.0)), np.finfo(float).tiny)
    # deficit[i, j, k] = (m_ik - m_ij) - m_jk over all ordered triples, in
    # float64 as written; the worst triple is the first maximum in C order
    violations, worst, flat = 0, -np.inf, 0
    for part, position in _trivial_deficits(m):
        violations += int(np.count_nonzero(part > slack))
        top, at = part.max(), position(*divmod(int(np.argmax(part)), n))
        if top > worst or (top == worst and at < flat):
            worst, flat = top, at
        del part  # before the next array is built

    # Every other row (i, j), k outside {i, j}, is recomputed only where a
    # float32 screen cannot rule out a deficit >= min(worst, slack): one at
    # or above the trivial maximum may be the worst, and only one above the
    # slack is a violation. s = m 2^-e, e the exponent of max|m|, so
    # max|s| < 1, and row (i, j) is flagged when the float32 bound
    # max_k fl32(a_ik - a_jk), a = float32(s), reaches s_ij + cut. Each cast
    # is off by at most 2^-24 (a float32 subnormal, or an s that
    # underflowed, by less) and the float32 subtraction by
    # 2^-24 |a_ik - a_jk| <= 2^-23, so each difference is within 2^-22 of
    # s_ik - s_jk. The float64 deficit, scaled by 2^-e, is within 5 * 2^-53
    # of the exact s_ik - s_ij - s_jk (a subtraction never loses bits to
    # underflow), and s_ij + cut rounds by at most 2^-52. So no deficit of
    # an unflagged row reaches the cut plus delta = 2^-20, in units of 2^e.
    if n >= 3:  # otherwise every triple is trivial
        e = linalg.exponent(m)
        bound = _pair_bounds(m, e)
        np.fill_diagonal(bound, -np.inf)
        s = np.ldexp(m, -e)
        s += np.ldexp(min(worst, slack), -e) - 2.0**-20  # s_ij + cut
        pairs = np.flatnonzero(bound >= s)  # the rows i * n + j, in C order
        del s, bound
        step = max(1, _SLAB_ENTRIES // n)
        for p0 in range(0, pairs.size, step):
            i, j = np.divmod(pairs[p0:p0 + step], n)
            deficit = m[i] - m[i, j][:, None]
            deficit -= m[j]
            rows = np.arange(i.size)
            deficit[rows, i] = -np.inf  # trivial, counted above
            deficit[rows, j] = -np.inf
            top = deficit.max()
            if top > slack:
                violations += int(np.count_nonzero(deficit > slack))
            if top >= worst:
                r, k = divmod(int(np.argmax(deficit)), n)
                at = int(pairs[p0 + r]) * n + k
                if top > worst or at < flat:
                    worst, flat = top, at
    worst_triple = None
    if violations:
        i, j, k = np.unravel_index(flat, (n, n, n))
        worst_triple = (int(i), int(j), int(k))
    return MetricReport(
        mode=mode,
        positive_offdiag=positive_offdiag,
        violations=violations,
        worst_triple=worst_triple,
        worst_slack=float(worst),
        slack=slack,
    )


def _trivial_deficits(m: np.ndarray):
    """The deficits of the triples with j = i or k in {i, j}, as three
    n x n arrays in turn, each with the C-order tensor position of its
    [i, j] entry: deficit[i, i, k], then deficit[i, j, i] and
    deficit[i, j, j] for j != i (their diagonals hold -inf)."""
    n = m.shape[0]
    diag = np.diag(m)
    yield (m - diag[:, None]) - m, lambda i, k: (i * n + i) * n + k
    back = (diag[:, None] - m) - m.T
    np.fill_diagonal(back, -np.inf)
    yield back, lambda i, j: (i * n + j) * n + i
    del back  # one array at a time
    stay = (m - m) - diag
    np.fill_diagonal(stay, -np.inf)
    yield stay, lambda i, j: (i * n + j) * n + j


def _pair_bounds(m: np.ndarray, e: int) -> np.ndarray:
    """bound[i, j] = max over k outside {i, j} of fl32(a[i, k] - a[j, k])
    with a = float32(m 2^-e), for an n x n m, n >= 3; the diagonal is left
    undefined.

    Each unordered pair's differences are formed once, in tiles of
    ``_TILE_ROWS`` pairs i by as many j as fit ``8 * _SLAB_ENTRIES`` entries
    with k the slow axis: their max bounds row (i, j) and the negated min
    row (j, i). A NaN diagonal takes k in {i, j} out of both.
    """
    n = m.shape[0]
    at = np.ldexp(m.T, -e).astype(np.float32, order="C")  # at[k, i] = a[i, k]
    np.fill_diagonal(at, np.nan)
    bound = np.empty((n, n), np.float32)
    wide = max(1, 8 * _SLAB_ENTRIES // (_TILE_ROWS * n))
    buf = np.empty(n * _TILE_ROWS * min(wide, n), np.float32)
    for i0 in range(0, n, _TILE_ROWS):
        a_i = at[:, i0:i0 + _TILE_ROWS, None]
        for j0 in range(i0, n, wide):
            a_j = at[:, None, j0:j0 + wide]
            t = buf[:n * a_i.shape[1] * a_j.shape[2]].reshape(n, a_i.shape[1], -1)
            np.subtract(a_i, a_j, out=t)
            bound[i0:i0 + _TILE_ROWS, j0:j0 + wide] = np.fmax.reduce(t, axis=0)
            bound[j0:j0 + wide, i0:i0 + _TILE_ROWS] = -np.fmin.reduce(t, axis=0).T
    return bound
