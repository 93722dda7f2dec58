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
# chunk stays in L2.
_SLAB_ENTRIES = 2**15


def effective_resistance(q: LaplacianMatrix, i: int, j: int) -> float:
    """omega_ij = (e_i - e_j)^T Q^dagger (e_i - e_j); ``i`` and ``j`` must
    be true integers (``linalg.as_index``)."""
    n = q.n
    i, j = linalg.as_index(i), linalg.as_index(j)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"indices ({i}, {j}) out of range for n={n}")
    return float(linalg.squared_distances(linalg.submatrix(q.pinv, (i, j), (i, j)))[0, 1])


def resistance_matrix(q: LaplacianMatrix) -> np.ndarray:
    """Omega = zeta u^T + u zeta^T - 2 Q^dagger with zeta = diag(Q^dagger):
    the read-only array ``q.omega``, formed once per Laplacian."""
    return q.omega


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
    ``gram_inverse``: then A and B are symmetric too. Each block is written
    into its place, and -1/2 x is exact."""
    n = omega.shape[0]
    a = np.empty((n + 1, n + 1))
    a[0, 0] = -0.5 * 0.0
    a[0, 1:] = a[1:, 0] = -0.5
    np.multiply(omega, -0.5, out=a[1:, 1:])
    b = np.empty((n + 1, n + 1))
    b[0, 0] = 4.0 * radius**2
    np.multiply(r, -2.0, out=b[0, 1:])
    b[1:, 0] = b[0, 1:]
    b[1:, 1:] = gram_inverse
    residual = _max_abs_minus_identity(a @ b)
    return IdentityResidual(residual_ab=residual, residual_ba=residual)


def _max_abs_minus_identity(x: np.ndarray) -> float:
    """max |X - I|, overwriting the square array X."""
    x.flat[::x.shape[0] + 1] -= 1.0
    return float(np.abs(x, out=x).max())


def verify_fiedler_identity(q: LaplacianMatrix) -> IdentityResidual:
    fb = fiedler_blocks(q)
    return _identity_residual(q.omega, q.symmetric, fb.r, fb.radius)


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
    out = np.outer(fb.r, fb.r)
    out /= fb.radius**2
    np.subtract(q.symmetric, out, out=out)
    out *= -0.5
    return out


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


def check_zero_diagonal(d: np.ndarray, top: float) -> None:
    """Require the zero diagonal of a distance matrix up to the metric
    slack, |d_ii| <= metric_slack max(max|D|, tiny), given ``top``, max|D|;
    NonZeroDiagonalError otherwise."""
    scale = max(top, np.finfo(float).tiny)
    if np.abs(np.diag(d)).max() > DEFAULT.metric_slack * scale:
        raise NonZeroDiagonalError("distance matrix has a nonzero diagonal")


def check_metric(d, mode: str = "plain") -> MetricReport:
    """Verify metric axioms on D (mode "plain") or entrywise sqrt(D)
    (mode "sqrt"): zero diagonal, symmetry, positive off-diagonal, and all
    ordered triangle inequalities d(i,j) + d(j,k) >= d(i,k).

    Violations smaller than the slack (relative to the max entry) are
    treated as floating-point noise. Each row (i, j) of the n^3 deficits
    passes up to two stages: an O(n^2) bound from the rows' extremes after
    the column means are taken out closes every row where it rules out a
    deficit at the slack or at the trivial triples' maximum, and the rows
    left open are recomputed in float64 (``_recheck``). The violation
    count, worst triple and worst slack are those of the full tensor, bit
    for bit; a deficit that overflows is -inf or +inf, the sign of the
    exact one. Working memory is a few n x n arrays.
    """
    if mode not in ("plain", "sqrt"):
        raise ValueError(f"unknown mode {mode!r}")
    m = linalg.as_square_array(d)
    n = m.shape[0]
    top = max(float(m.max()), -float(m.min()))  # max|m|
    check_zero_diagonal(m, top)
    e = int(np.frexp(top)[1])  # linalg.exponent(m)
    s = np.ldexp(m, -e)
    if linalg.is_asymmetric_scaled(s, np.ldexp(top, -e)):
        raise AsymmetricError("distance matrix is not symmetric")
    if mode == "sqrt":
        m = np.sqrt(np.maximum(m, 0.0))
        e = int(np.frexp(m.max())[1])  # m >= 0
        s = np.ldexp(m, -e)
    # every entry <= 0 lies on the diagonal
    positive_offdiag = bool(np.count_nonzero(m <= 0.0) == np.count_nonzero(np.diag(m) <= 0.0))

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

    # Every other row (i, j), k outside {i, j}, is recomputed only where no
    # bound rules out a deficit >= min(worst, slack): one at or above the
    # trivial maximum may be the worst, and only one above the slack is a
    # violation. s = m 2^-e, e the exponent of max|m|, so max|s| < 1, and
    # row (i, j) stays open while its bound on max_k (s_ik - s_jk) reaches
    # s_ij + cut. The float64 deficit, scaled by 2^-e, is within 5 * 2^-53
    # of the exact s_ik - s_ij - s_jk (a subtraction never loses bits to
    # underflow; one that overflows is -inf here), and s_ij + cut rounds by
    # at most 2^-52. So a bound within delta = 2^-20 of the exact maximum,
    # in units of 2^e, closes no row holding a deficit at the cut.
    # ``_mean_bounds``, in float64, is within 2^-50 of the exact bound
    # max_k x_ik - min_k x_jk with x = s - c: each x_ik rounds by 2^-52
    # (|s_ik - c_k| < 2), the difference of two extremes by 2^-51.
    if n >= 3:  # otherwise every triple is trivial
        bound = _mean_bounds(s)
        s += np.ldexp(min(worst, slack), -e) - 2.0**-20  # s_ij + cut
        open_rows = bound >= s
        del bound, s
        np.fill_diagonal(open_rows, False)
        pairs = np.flatnonzero(open_rows)  # the rows i * n + j, in C order
        violations, worst, flat = _recheck(m, pairs, slack, violations, worst, flat)
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
    with np.errstate(over="ignore"):
        back = (diag[:, None] - m) - m.T
    np.fill_diagonal(back, -np.inf)
    yield back, lambda i, j: (i * n + j) * n + i
    del back  # one array at a time
    stay = (m - m) - diag
    np.fill_diagonal(stay, -np.inf)
    yield stay, lambda i, j: (i * n + j) * n + j


def _recheck(m: np.ndarray, pairs: np.ndarray, slack: float,
             violations: int, worst: float, flat: int) -> tuple[int, float, int]:
    """Add the deficits of the rows ``pairs`` (i * n + j, ascending), k
    outside {i, j}, to the running violation count and the worst deficit
    and its C-order tensor position, in float64 chunks of at most
    ``_SLAB_ENTRIES`` entries."""
    n = m.shape[0]
    step = max(1, _SLAB_ENTRIES // n)
    with np.errstate(over="ignore"):  # an overflow keeps the exact sign
        for p0 in range(0, pairs.size, step):
            i, j = np.divmod(pairs[p0:p0 + step], n)
            deficit = m[i] - m[i, j][:, None]
            deficit -= m[j]
            rows = np.arange(i.size)
            deficit[rows, i] = -np.inf  # trivial, counted by the caller
            deficit[rows, j] = -np.inf
            top = deficit.max()
            if top > slack:
                violations += int(np.count_nonzero(deficit > slack))
            if top >= worst:
                r, k = divmod(int(np.argmax(deficit)), n)
                at = int(pairs[p0 + r]) * n + k
                if top > worst or at < flat:
                    worst, flat = top, at
    return violations, worst, flat


def _mean_bounds(s: np.ndarray) -> np.ndarray:
    """B[i, j] = max over k outside {i, j} of x[i, k] minus the min over the
    same k of x[j, k], with x = s - c and c the column means of s, for an
    n x n s, n >= 3; the diagonal is left undefined.

    s_ik - s_jk = x_ik - x_jk for any c, so B bounds max_k (s_ik - s_jk)
    from above, and is formed in O(n^2) from the two largest and the two
    smallest off-diagonal x of each row.
    """
    n = s.shape[0]
    x = s - s.mean(axis=0)
    rows = np.arange(n)
    np.fill_diagonal(x, -np.inf)
    big = x.argmax(axis=1)
    hi = x[rows, big]
    x[rows, big] = -np.inf
    hi2 = x.max(axis=1)
    x[rows, big] = hi
    np.fill_diagonal(x, np.inf)
    small = x.argmin(axis=1)
    lo = x[rows, small]
    x[rows, small] = np.inf
    lo2 = x.min(axis=1)
    bound = np.subtract(hi[:, None], lo, out=x)
    bound[rows, big] = hi2 - lo[big]  # k = j is row i's max
    bound[small, rows] = (  # k = i is row j's min, and may be row i's max too
        np.where(big[small] == rows, hi2[small], hi[small]) - lo2)
    return bound
