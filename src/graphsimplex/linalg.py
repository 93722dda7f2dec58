"""Dense symmetric linear algebra: eigendecompositions, certified grounded
Cholesky factors, Gram pseudoinverses, double centering and index-subset
validation.

Everything operates on plain float64 numpy arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT
from .errors import (
    AsymmetricError,
    DuplicateIndexError,
    EmptySubsetError,
    IndexOutOfRangeError,
    NoConvergenceError,
    NonFiniteEntryError,
    NonSquareError,
    RankDeficientError,
)


def as_square_array(a) -> np.ndarray:
    """Coerce to a non-empty square float64 array with finite entries."""
    m = np.asarray(getattr(a, "matrix", a), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise NonSquareError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteEntryError("matrix contains non-finite entries")
    return m


def symmetric_part(m: np.ndarray) -> np.ndarray:
    """(M + M^T)/2, exactly symmetric, formed as M/2 + M^T/2 so that it
    cannot overflow for finite M."""
    h = 0.5 * m
    return h + h.T


def exponent(m: np.ndarray) -> int:
    """The binary exponent e of max|m|: 2^-e m has its entries in (-1, 1)."""
    return int(np.frexp(max(m.max(), -m.min()))[1])


_SYMMETRY_RTOL = 1e-12


def is_asymmetric(m: np.ndarray) -> bool:
    """Whether |M - M^T| > _SYMMETRY_RTOL max|M|, at any scale. The rule is
    tested on 2^-e M (``exponent``), so the difference cannot overflow."""
    s = np.ldexp(m, -exponent(m))
    return bool(np.abs(s - s.T).max() > _SYMMETRY_RTOL * np.abs(s).max())


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2, requiring ``not is_asymmetric(A)``; an exactly
    symmetric A is returned as it is, not copied."""
    m = as_square_array(a)
    if np.array_equal(m, m.T):
        return m
    if is_asymmetric(m):
        raise AsymmetricError("matrix is not symmetric within tolerance")
    return symmetric_part(m)


def as_index(i) -> int:
    """``i`` as a Python int, requiring a true integer: a bool, a float
    such as 2.0 or anything else without ``__index__`` raises
    IndexOutOfRangeError."""
    if not isinstance(i, (bool, np.bool_)):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise IndexOutOfRangeError(f"index {i!r} is not an integer")


def check_subset(v: Sequence[int], n: int) -> list[int]:
    """The indices of ``v`` as a list of ints (``as_index``), requiring a
    non-empty subset of [0, n) without repeats."""
    idx = [as_index(i) for i in v]
    if not idx:
        raise EmptySubsetError("subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise DuplicateIndexError(f"repeated index in {idx}")
    for i in idx:
        if not 0 <= i < n:
            raise IndexOutOfRangeError(f"index {i} out of range for n={n}")
    return idx


def squared_distances(gram: np.ndarray) -> np.ndarray:
    """Squared distances g_ii + g_jj - 2 g_ij between the points whose Gram
    matrix is ``gram``, with an exactly zero diagonal; NonFiniteEntryError
    where one overflows, as the resistances of links near 1e-308 do."""
    d = np.diag(gram)
    with np.errstate(over="ignore", invalid="ignore"):
        out = d[:, None] + d[None, :] - 2.0 * gram
    np.fill_diagonal(out, 0.0)
    if not np.isfinite(out).all():
        raise NonFiniteEntryError("a squared distance overflows the float range")
    return out


# Rows per diagonal leaf of ``lower_solve``: a factor of at most this many
# rows goes to one ``np.linalg.solve``, bitwise as a direct call would.
_LEAF = 64


def lower_solve(ell: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} B for a nonsingular lower-triangular ``ell``, by recursive
    halving: x1 = L11^{-1} b1, then x2 = L22^{-1} (b2 - L21 x1).

    NumPy has no triangular solve, and ``np.linalg.solve`` factors its
    matrix by a pivoted LU; here that runs only on diagonal leaves of at
    most ``_LEAF`` rows, and everything else is one GEMM per level.
    """
    k = ell.shape[0]
    if k <= _LEAF:
        return np.linalg.solve(ell, b)
    h = k // 2
    x1 = lower_solve(ell[:h, :h], b[:h])
    x2 = lower_solve(ell[h:, h:], b[h:] - ell[h:, :h] @ x1)
    return np.concatenate((x1, x2))


def lower_inverse(ell: np.ndarray) -> np.ndarray:
    """L^{-1} for a nonsingular lower-triangular ``ell``, by recursive
    halving: W11 = L11^{-1}, W22 = L22^{-1}, W21 = -W22 L21 W11.

    As in ``lower_solve``, a factor of at most ``_LEAF`` rows goes to one
    ``np.linalg.solve`` against the identity, and everything else is GEMM.
    """
    k = ell.shape[0]
    if k <= _LEAF:
        return np.linalg.solve(ell, np.eye(k))
    h = k // 2
    w = np.zeros_like(ell)
    w[:h, :h] = lower_inverse(ell[:h, :h])
    w[h:, h:] = lower_inverse(ell[h:, h:])
    np.matmul(w[h:, h:], -(ell[h:, :h] @ w[:h, :h]), out=w[h:, :h])
    return w


def double_center(m: np.ndarray) -> np.ndarray:
    """J M J with J = I - uu^T/n, for the symmetric part of M, in O(n^2):
    subtract the row means from the rows and from the columns and add
    back the grand mean. The result is exactly symmetric."""
    out = symmetric_part(m)
    means = out.mean(axis=1)
    out -= np.add.outer(means, means)
    out += means.mean()
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(a) -> EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues descending.

    For Laplacians this puts the zero eigenvalue last. LAPACK decomposes
    2^-e A (``exponent``), so A times 4^k gives the same eigenvectors, bitwise.
    """
    m = symmetrize(a)
    e = exponent(m)
    try:
        vals, vecs = np.linalg.eigh(np.ldexp(m, -e) if e else m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    with np.errstate(over="ignore"):
        vals = np.ldexp(vals, e)
    if not np.isfinite(vals).all():
        raise NonFiniteEntryError("an eigenvalue overflows the float range")
    return EigenDecomposition(vals[::-1].copy(), vecs[:, ::-1].copy())


def deflated_inverse(dec: EigenDecomposition, zero: int) -> np.ndarray:
    """Z diag(1/mu) Z^T over the eigenpairs of ``dec`` but the one at index
    ``zero``, the kernel; NonFiniteEntryError if an entry overflows."""
    mu = dec.eigenvalues.copy()
    mu[zero] = np.inf  # 1/inf = 0 drops the pair
    z = dec.eigenvectors
    with np.errstate(all="ignore"):
        p = symmetric_part((z * (1.0 / mu)) @ z.T)
    if not np.isfinite(p).all():
        raise NonFiniteEntryError("the pseudoinverse overflows the float range")
    return p


@dataclass(frozen=True)
class GroundedFactor:
    """The certified grounded factor of a symmetric n x n matrix M with
    kernel span{u}: L L^T = 2^-e M without its last row and column, e even.

    With V = [L^{-1}, 0] J, J = I - uu^T/n, 2^-e V^T V is M^dagger, held as
    ``pinv``, and ``frame``, V 2^(-e/2), is a vertex matrix of M's simplex
    in that factor's frame (Fiedler); ``pivots``, L's squared diagonal
    times 2^e, are the pivots of eliminating all of M's nodes but the last,
    whose product is the determinant of M without its last node.
    """

    pivots: np.ndarray
    frame: np.ndarray
    pinv: np.ndarray


def grounded_factor(m: np.ndarray) -> GroundedFactor | None:
    """The grounded factor of the exactly symmetric ``m`` wherever its
    bounds certify the eigen rule of ``pinv_kernel_u`` (below); None
    anywhere else.

    With t = DEFAULT.zero_eigenvalue, S = M 2^-e has largest diagonal d in
    [1/4, 1), e even, and N = |S|_inf; d <= mu_max <= N, since a diagonal
    entry is a Rayleigh quotient. The screen requires
      (1) |S u|_inf <= d t/4,  (2) Cholesky of S_g = L L^T succeeds, S_g
      being S without its last row and column,  (3) W = L^{-1},
      (4) N |W|_1 |W|_inf <= 1/(4t),
    n eps N <= d t/16, so that every rounding error below, O(n eps N), is
    at most a sixteenth of the cut, and a finite N 2^e and M^dagger.
    Exactly, |S_g^{-1}|_2 = |W|_2^2 <= |W|_1 |W|_inf, so (4) gives
    lambda_min(S_g) >= 4tN, and by Cauchy interlacing S's second smallest
    eigenvalue is at least that. Writing S = S0 + E with
    S0 = (I-P) S (I-P), P = uu^T/n, which has u in its kernel,
    |E|_2 <= 2|S u|_2/sqrt(n) <= t d/2 by (1); by Weyl S0's other
    eigenvalues are positive, so S's smallest lies in [-t d/2, t d/4]
    (u^T S u/n <= |S u|_inf), and n - 1 are at or above 4tN >= 4t mu_max.
    So the cut t mu_max has a factor 2 to spare below and 4 above. The
    Cholesky backward error, O(n eps N) in S_g, W's relative forward error,
    n eps cond(S_g) <= n eps/(4t) <= 1/64, and eigh's own O(n eps N) in
    each eigenvalue all fit in that margin, and n eps mu_max <= d t/16 is
    below the smallest nonzero eigenvalue: the eigen route would find
    exactly the one zero, resolve the rest, and answer M^dagger. For any
    symmetric M with kernel span{u} and a nonsingular S_g, M^dagger is
    J [[S_g^{-1}, 0], [0, 0]] J 2^-e = V^T V 2^-e, up to the same errors.
    """
    n = m.shape[0]
    t = DEFAULT.zero_eigenvalue
    top = float(np.diag(m).max())
    if n < 2 or not top > 0.0:
        return None
    d, e = np.frexp(top)
    if e % 2:  # 2^(-e/2), the embedding's scale, is then exact
        d, e = d / 2, e + 1
    with np.errstate(all="ignore"):  # an overflow fails a bound below
        s = np.ldexp(m, -e)
        norm = float(np.abs(s).sum(axis=1).max())
        if not (np.abs(s.sum(axis=1)).max() <= 0.25 * t * d
                and n * np.finfo(float).eps * norm <= t / 16.0 * d
                and np.isfinite(np.ldexp(norm, e))):
            return None
        try:
            ell = np.linalg.cholesky(s[:-1, :-1])
        except np.linalg.LinAlgError:
            return None
        del s
        pivots = np.ldexp(np.square(np.diag(ell)), e)
        w = lower_inverse(ell)
        del ell
        a = np.abs(w)
        if not norm * float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()) <= 0.25 / t:
            return None
        del a
        v = np.zeros((n - 1, n))
        v[:, :-1] = w
        del w
        v -= v.sum(axis=1, keepdims=True) / n  # [W, 0] J
        p = v.T @ v  # one SYRK, exactly symmetric
        np.ldexp(p, -e, out=p)
        np.ldexp(v, -(e // 2), out=v)
    if not np.isfinite(p).all():
        return None
    return GroundedFactor(pivots=pivots, frame=v, pinv=p)


def pinv_kernel_u(a) -> np.ndarray:
    """Pseudoinverse of a PSD matrix whose kernel is exactly span{u}.

    The grounded factor (``grounded_factor``) answers wherever its bounds
    certify the eigen rule: exactly one eigenvalue has |l| <= t mu_max,
    t = DEFAULT.zero_eigenvalue. Otherwise that single zero eigenvalue,
    found by eigendecomposition, is deflated, and any further (relative)
    zero eigenvalue raises ``RankDeficientError``.
    """
    m = symmetrize(a)
    f = grounded_factor(m)
    if f is not None:
        return f.pinv
    dec = eigh(m)
    vals = dec.eigenvalues
    mu_max = float(vals.max(initial=0.0))
    if mu_max <= 0.0:
        raise RankDeficientError("matrix is numerically zero")
    zero = np.abs(vals) <= DEFAULT.zero_eigenvalue * mu_max
    if int(zero.sum()) != 1:
        raise RankDeficientError(
            f"expected exactly one zero eigenvalue, found {int(zero.sum())}"
        )
    return deflated_inverse(dec, int(np.argmax(zero)))
