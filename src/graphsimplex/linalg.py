"""Dense symmetric linear algebra: eigendecompositions, Laplacian
pseudoinverses, centering projectors and index-subset validation.

Everything operates on plain float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    AsymmetricError,
    DuplicateIndexError,
    EmptySubsetError,
    IndexOutOfRangeError,
    NoConvergenceError,
    NonFiniteEntryError,
    NonSquareError,
    RankDeficientError,
    SingularShiftError,
)


def as_square_array(a) -> np.ndarray:
    """Coerce to a square float64 array with finite entries."""
    m = np.asarray(getattr(a, "matrix", a), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteEntryError("matrix contains non-finite entries")
    return m


def symmetrize(a, rtol: float = 1e-12) -> np.ndarray:
    """Return (A + A^T)/2, requiring A to be symmetric within ``rtol``."""
    m = as_square_array(a)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > rtol * scale:
        raise AsymmetricError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def check_subset(v: Sequence[int], n: int) -> list[int]:
    """The indices of ``v`` as a list, requiring a non-empty subset of
    [0, n) without repeats."""
    idx = list(v)
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
    matrix is ``gram``, with an exactly zero diagonal."""
    d = np.diag(gram)
    out = d[:, None] + d[None, :] - 2.0 * gram
    np.fill_diagonal(out, 0.0)
    return out


def centering_projector(n: int) -> np.ndarray:
    """The projector I - uu^T/n onto the subspace orthogonal to u."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def eigh(a) -> EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues descending.

    For Laplacians this puts the zero eigenvalue last.
    """
    m = symmetrize(a)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return EigenDecomposition(vals[::-1].copy(), vecs[:, ::-1].copy())


def laplacian_pseudoinverse(q) -> np.ndarray:
    """Pseudoinverse of a Laplacian via the rank-one shift.

    Q^dagger = (Q + uu^T/n)^{-1} - uu^T/n.  Exact when the kernel of Q is
    spanned by the constant vector, which Laplacian validation guarantees.
    """
    m = as_square_array(q)
    n = m.shape[0]
    shift = np.full((n, n), 1.0 / n)
    try:
        inv = np.linalg.solve(m + shift, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularShiftError(
            "shifted matrix is singular; input was not a valid Laplacian"
        ) from exc
    pinv = inv - shift
    return 0.5 * (pinv + pinv.T)


def pinv_kernel_u(a, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Pseudoinverse of a PSD matrix whose kernel is exactly span{u}.

    Deflates the single zero eigenvalue found by eigendecomposition; any
    further (relative) zero eigenvalue raises ``RankDeficientError``.
    """
    dec = eigh(a)
    vals = dec.eigenvalues
    mu_max = float(vals.max(initial=0.0))
    if mu_max <= 0.0:
        raise RankDeficientError("matrix is numerically zero")
    zero = np.abs(vals) <= tol.zero_eigenvalue * mu_max
    if int(zero.sum()) != 1:
        raise RankDeficientError(
            f"expected exactly one zero eigenvalue, found {int(zero.sum())}"
        )
    inv_vals = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, vals))
    pinv = (dec.eigenvectors * inv_vals) @ dec.eigenvectors.T
    return 0.5 * (pinv + pinv.T)
