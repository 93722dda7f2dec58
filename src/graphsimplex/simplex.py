"""Simplex geometry: embeddings from Laplacians, canonical Gram matrices,
dihedral angles and hyperacuteness, faces, circumsphere and volume.

A Simplex (the congruence class) is represented either by a centered vertex
matrix, by its canonical Gram pair (M, M^dagger), or by its squared-distance
matrix; conversions between the three are provided here. Equality of
Simplices is always tested through Grams or distances, never through raw
coordinates, which are unique only up to orthogonal maps and translations.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    DegenerateDistanceMatrixError,
    DegenerateSimplexError,
    FaceTooSmallError,
    GraphSimplexError,
    IndexOutOfRangeError,
    NonFiniteEntryError,
)
from .graphs import LaplacianMatrix
from .resistance import FiedlerBlocks, check_zero_diagonal


@dataclass(frozen=True)
class SimplexEmbedding:
    """Centered vertex matrix, one column per vertex, (n-1) coordinates.

    ``pair``, which equality and repr ignore, is None or the Simplex's
    canonical Gram pair, which ``canonical_gram`` returns as it is:
    ``embed_from_laplacian`` passes (Q^dagger, Q), the exact pair of a
    graph's simplex (Fiedler).
    """

    vertices: np.ndarray
    pair: GramPair | None = field(default=None, compare=False, repr=False)

    def squared_distances(self) -> np.ndarray:
        """NonFiniteEntryError when a distance overflows, as the vertices of
        a graph with weights near 1e-320 can."""
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.vertices.T @ self.vertices
        return linalg.squared_distances(gram)


@dataclass(frozen=True)
class GramPair:
    """Canonical Gram matrix of a Simplex and its pseudoinverse.

    Both are symmetric PSD with kernel span{u} and rank n-1.
    """

    gram: np.ndarray
    pinv_gram: np.ndarray

    @property
    def n(self) -> int:
        return self.gram.shape[0]


def embed_from_laplacian(q: LaplacianMatrix) -> SimplexEmbedding:
    """Vertices S with S^T S = Q^dagger, so that squared vertex distances
    equal the effective resistances: the certified grounded factor's
    read-only ``frame``, in that factor's frame, carrying the pair
    ``gram_pair_from_laplacian(q)``. RankDeficientError where the factor's
    screen declines (``LaplacianMatrix.pinv``).
    """
    return SimplexEmbedding(vertices=q._certified().frame,
                            pair=gram_pair_from_laplacian(q))


def canonical_gram(vertices) -> GramPair:
    """Canonical Gram pair of the Simplex spanned by the given vertex
    matrix (d x n, one column per vertex), for any representative: the
    result is invariant under rotations, reflections and translations.
    A ``SimplexEmbedding`` that carries its ``pair`` gets that pair back.

    Otherwise the pair is formed for 2^-e S, e the binary exponent of
    max|S|, and scaled back by exact powers of two, so vertices times 2^k
    give the pair times 4^k and 4^-k, bit for bit; NonFiniteEntryError
    where either Gram leaves the float range."""
    if isinstance(vertices, SimplexEmbedding) and vertices.pair is not None:
        return vertices.pair
    s = np.asarray(getattr(vertices, "vertices", vertices), dtype=float)
    if s.ndim != 2:
        raise DegenerateSimplexError("vertex matrix must be 2-dimensional")
    e = 0
    if s.size:  # a NaN or infinite entry makes the max or the min so
        hi, lo = float(s.max()), float(s.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteEntryError("vertex matrix contains non-finite entries")
        e = int(np.frexp(max(hi, -lo))[1])  # linalg.exponent(s)
    unit = np.ldexp(s, -e)
    gram = unit.T @ unit
    del unit
    try:
        pair = _centered_pair(gram)
    except GraphSimplexError as exc:
        raise DegenerateSimplexError(
            f"vertices are affinely dependent (rank < {s.shape[1] - 1})"
        ) from exc
    if e:  # the unit pair is finite; scaled back, it may overflow
        with np.errstate(over="ignore"):
            np.ldexp(pair.gram, 2 * e, out=pair.gram)
            np.ldexp(pair.pinv_gram, -2 * e, out=pair.pinv_gram)
        if not (np.isfinite(pair.gram).all() and np.isfinite(pair.pinv_gram).all()):
            raise NonFiniteEntryError("the Gram pair leaves the float range")
    return pair


def _centered_pair(gram: np.ndarray) -> GramPair:
    """Canonical Gram pair of the points with (uncentered) Gram matrix
    ``gram``, a finite array of the caller's own, which is centred in place:
    the double-centered Gram and its pseudoinverse. AsymmetricError where
    ``gram`` is not symmetric (``linalg.symmetrize``)."""
    m = linalg.double_center_in_place(linalg.symmetrize(gram))
    return GramPair(gram=m, pinv_gram=linalg.pinv_kernel_u(m))


def gram_pair_from_pinv(pinv_gram) -> GramPair:
    """Gram pair of the Simplex whose canonical pseudoinverse Gram matrix is
    given (e.g. a Laplacian, or a non-hyperacute candidate)."""
    mdag = linalg.symmetrize(pinv_gram).copy()  # not the caller's array
    return GramPair(gram=linalg.pinv_kernel_u(mdag), pinv_gram=mdag)


def gram_pair_from_laplacian(q: LaplacianMatrix) -> GramPair:
    """(Q^dagger, Q), exactly the canonical Gram pair of the graph's
    simplex (Fiedler): ``q.pinv`` and ``q.symmetric`` themselves, read-only
    and not copied."""
    return GramPair(gram=q.pinv, pinv_gram=q.symmetric)


ANGLE_LABELS = ("acute", "right", "obtuse")


class PairAngle(NamedTuple):
    i: int
    j: int
    cosine: float  # cos(pi - phi_ij)
    label: str


def _pair_rows(cosines: np.ndarray, codes: np.ndarray):
    """(i, j, cosine, label) for every i < j in row-major order, as plain
    Python values, converting one row of the arrays at a time."""
    n = codes.shape[0]
    return chain.from_iterable(
        zip(repeat(i), range(i + 1, n), cosines[i, i + 1:].tolist(),
            map(ANGLE_LABELS.__getitem__, codes[i, i + 1:].tolist()))
        for i in range(n - 1))


class _PairView(Sequence):
    """Read-only sequence of one PairAngle per i < j, in row-major order,
    over the two arrays of an AngleClassification. Rows are made as they
    are read; none is stored."""

    __slots__ = ("_cosines", "_codes", "_len")

    def __init__(self, cosines: np.ndarray, codes: np.ndarray):
        n = codes.shape[0]
        self._cosines, self._codes, self._len = cosines, codes, n * (n - 1) // 2

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        # tuple.__new__ makes each row in C; PairAngle._make calls the same
        return map(tuple.__new__, repeat(PairAngle), _pair_rows(self._cosines, self._codes))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self._pair(m) for m in range(*k.indices(self._len)))
        k = operator.index(k)
        if not -self._len <= k < self._len:
            raise IndexError("pair index out of range")
        return self._pair(k % self._len)

    def _pair(self, k: int) -> PairAngle:
        # Counted from the end, the rows hold 1, 2, 3, ... pairs, so pair
        # m = len - 1 - k lies in reversed row r, r(r+1)/2 <= m < (r+1)(r+2)/2.
        m = self._len - 1 - k
        r = (math.isqrt(8 * m + 1) - 1) // 2
        n = self._codes.shape[0]
        i, j = n - 2 - r, n - 1 - (m - r * (r + 1) // 2)
        return PairAngle(i, j, float(self._cosines[i, j]), ANGLE_LABELS[self._codes[i, j]])


@dataclass(frozen=True, eq=False)
class AngleClassification:
    """Every dihedral angle of a Simplex, held as two read-only n x n arrays.

    ``cosines[i, j]`` is cos(pi - phi_ij) and ``codes[i, j]`` indexes
    ``ANGLE_LABELS`` (0 acute, 1 right, 2 obtuse). Only the off-diagonal
    entries are angles; the diagonal codes are 1, so they never read as
    obtuse.
    """

    cosines: np.ndarray
    codes: np.ndarray

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def label(self, i: int, j: int) -> str:
        i, j = sorted((linalg.as_index(i), linalg.as_index(j)))
        # array indexing would wrap negative indices, so check them here
        if not 0 <= i < j < self.n:
            raise IndexOutOfRangeError(f"no pair ({i}, {j})")
        return ANGLE_LABELS[self.codes[i, j]]

    @property
    def has_obtuse(self) -> bool:
        return bool((self.codes == 2).any())

    def pair_rows(self):
        """An iterator of (i, j, cosine, label) for every i < j in row-major
        order, as plain Python values, made one row at a time."""
        return _pair_rows(self.cosines, self.codes)

    @cached_property
    def pairs(self) -> Sequence[PairAngle]:
        """One PairAngle per i < j in row-major order: a read-only view over
        ``cosines`` and ``codes`` that stores no row, made on first use."""
        return _PairView(self.cosines, self.codes)


def dihedral_angles(gp: GramPair | LaplacianMatrix,
                    tol: Tolerances = DEFAULT) -> AngleClassification:
    """Classify every dihedral angle from the sign of the pseudoinverse Gram
    entry: positive = obtuse, zero = right, negative = acute.

    cos(pi - phi_ij) = (M^dagger)_ij / sqrt((M^dagger)_ii (M^dagger)_jj).
    The sign dead-band is relative to the largest diagonal entry; right
    angles occur exactly (path graphs), so ties classify as right. A
    Laplacian is the pseudoinverse Gram of its simplex, so for a
    ``LaplacianMatrix`` the angles are read off ``symmetric``, not Q^dagger.
    """
    m = gp.symmetric if isinstance(gp, LaplacianMatrix) else gp.pinv_gram
    if not np.diag(m).min() > 0.0:
        raise NonFiniteEntryError(
            "a dihedral angle's cosine is undefined at a non-positive diagonal entry")
    # an exact power of two brings the diagonal near 1: the outer product
    # cannot overflow, and normal-range results are unchanged
    mdag = np.ldexp(m, -np.frexp(np.diag(m).max())[1])
    diag = np.diag(mdag)
    band = tol.validation * float(diag.max())
    cosines = np.outer(diag, diag)
    # A product below the normal range has lost bits or underflowed to 0, as
    # where the diagonal spans more than ~300 decades. Such a cosine is taken
    # in the input's units, one square root at a time, which cannot overflow
    # since |m_ij| <= min(m_ii, m_jj) in a Laplacian. On the positive
    # diagonal the least product is the least entry squared, so the n x n
    # array is searched only when that one is low.
    tiny, least = np.finfo(float).tiny, float(diag.min())
    low = np.nonzero(cosines < tiny) if least * least < tiny else None
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(cosines, out=cosines)
        np.divide(mdag, cosines, out=cosines)
        if low is not None:
            root = np.sqrt(np.diag(m))
            cosines[low] = m[low] / root[low[0]] / root[low[1]]
    if not np.isfinite(cosines).all():
        raise NonFiniteEntryError("a dihedral angle's cosine leaves the float range")
    codes = np.ones(mdag.shape, dtype=np.int8)
    codes[mdag > band] = 2
    codes[mdag < -band] = 0
    np.fill_diagonal(codes, 1)
    cosines.setflags(write=False)
    codes.setflags(write=False)
    return AngleClassification(cosines=cosines, codes=codes)


def is_hyperacute(gp: GramPair | LaplacianMatrix, tol: Tolerances = DEFAULT) -> bool:
    """True iff no dihedral angle is obtuse; equivalently, iff the
    pseudoinverse Gram matrix is a Laplacian."""
    return not dihedral_angles(gp, tol).has_obtuse


def face_distance(d, v: Sequence[int]) -> np.ndarray:
    """Squared-distance matrix of the face on the vertex subset ``v``:
    the corresponding submatrix, rows/columns in the order given."""
    m = linalg.as_square_array(d)
    idx = linalg.check_subset(v, m.shape[0])
    return linalg.submatrix(m, idx, idx)


def face_gram(gp: GramPair, v: Sequence[int]) -> GramPair:
    """Canonical Gram pair of the face on ``v``: the centered submatrix
    of the Gram matrix, M_face = (I - uu^T/v) M_VV (I - uu^T/v).
    AsymmetricError where ``gp.gram`` is not symmetric."""
    idx = linalg.check_subset(v, gp.n)
    if len(idx) < 2:
        raise FaceTooSmallError("face Gram needs at least 2 vertices")
    return _centered_pair(linalg.submatrix(gp.gram, idx, idx))


@dataclass(frozen=True)
class CircumsphereReport:
    center: np.ndarray
    radius: float
    max_deviation: float  # max_i | ||center - s_i|| - R |

    def passed(self, threshold: float = DEFAULT.residual) -> bool:
        return self.max_deviation <= threshold * self.radius


def circumsphere_check(emb: SimplexEmbedding, fb: FiedlerBlocks) -> CircumsphereReport:
    """All vertices must be equidistant (at radius R) from the circumcenter
    S r determined by the block identity."""
    if emb.vertices.shape[1] != fb.r.shape[0]:
        raise DegenerateSimplexError(
            f"the embedding has {emb.vertices.shape[1]} vertices, "
            f"the blocks {fb.r.shape[0]}"
        )
    center = emb.vertices @ fb.r
    dists = np.linalg.norm(emb.vertices - center[:, None], axis=0)
    return CircumsphereReport(
        center=center,
        radius=fb.radius,
        max_deviation=float(np.abs(dists - fb.radius).max()),
    )


def cayley_menger_volume(d) -> float:
    """Simplex volume from the bordered squared-distance determinant:

        vol^2 = (-1)^n det [[0, u^T], [u, D]] / ( ((n-1)!)^2 2^(n-1) ).

    The determinant and the normalisation are taken in logs, so neither
    overflows for large n. A squared volume <= 1e-12 max(D)^(n-1) counts as
    degenerate; NonFiniteEntryError where the volume leaves the float range,
    AsymmetricError where D is not symmetric (``linalg.symmetrize``) and
    NonZeroDiagonalError where its diagonal is not zero, as ``check_metric``
    requires (``resistance.check_zero_diagonal``).
    """
    m = linalg.symmetrize(d)
    top = float(np.abs(m).max())
    check_zero_diagonal(m, top)
    n = m.shape[0]
    bordered = np.zeros((n + 1, n + 1))
    bordered[0, 1:] = 1.0
    bordered[1:, 0] = 1.0
    bordered[1:, 1:] = m
    sign, log_det = np.linalg.slogdet(bordered)
    sign *= (-1.0) ** n
    log_vol2 = log_det - (2.0 * math.lgamma(n) + (n - 1) * math.log(2.0))
    log_scale = (n - 1) * math.log(max(top, np.finfo(float).tiny))
    if sign <= 0.0 or log_vol2 <= math.log(1e-12) + log_scale:
        raise DegenerateDistanceMatrixError(
            f"squared volume {sign:+.0f} * exp({log_vol2:.6g}) is not above "
            "1e-12 max(D)^(n-1); input is degenerate or not realizable"
        )
    try:  # math.exp: np.exp's vector loops may round the last bit otherwise
        vol = math.exp(0.5 * log_vol2)  # an underflow returns 0.0
    except OverflowError:
        vol = math.inf
    if not 0.0 < vol < math.inf:
        raise NonFiniteEntryError("the volume leaves the float range")
    return vol
