"""Weighted graphs, edge-list parsing, Laplacian construction and validation.

A graph is a set of labeled nodes with positive-weighted undirected links;
its Laplacian has node degrees on the diagonal and negated link weights off
the diagonal. ``validate_laplacian`` checks both the structural properties
(symmetry, off-diagonal signs, zero row sums, irreducibility) and the
equivalent spectral characterization, and cross-checks their agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    DisconnectedError,
    EdgeListSyntaxError,
    NonFiniteEntryError,
    NonPositiveWeightError,
    NotALaplacianError,
    RankDeficientError,
    SelfLoopError,
    TooFewNodesError,
)


@dataclass(frozen=True)
class WeightedGraph:
    """A connected weighted graph with string node labels.

    Links are canonical (i < j) index pairs into ``labels``; parallel edge
    entries are merged upstream by summing their weights.
    """

    labels: tuple[str, ...]
    links: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        n = len(self.labels)
        if n < 2:
            raise TooFewNodesError(f"need at least 2 nodes, got {n}")
        if len(set(self.labels)) != n:
            raise EdgeListSyntaxError("duplicate node labels")
        if len(self.links) != len(self.weights):
            raise EdgeListSyntaxError(
                f"{len(self.links)} links but {len(self.weights)} weights")
        seen = set()
        for (i, j), w in zip(self.links, self.weights):
            if not (0 <= i < n and 0 <= j < n):
                raise EdgeListSyntaxError(f"link index out of range: ({i}, {j})")
            if i == j:
                raise SelfLoopError(f"self-loop at node {self.labels[i]!r}")
            if i > j:
                raise EdgeListSyntaxError("links must be canonical (i < j) pairs")
            if (i, j) in seen:
                raise EdgeListSyntaxError(f"duplicate link ({i}, {j})")
            seen.add((i, j))
            if not (math.isfinite(w) and w > 0):
                raise NonPositiveWeightError(
                    f"weight {w!r} on link {self.labels[i]!r}-{self.labels[j]!r}"
                )
        if not _connected(n, *self.link_array.T):
            raise DisconnectedError("graph is not connected")

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def link_array(self) -> np.ndarray:
        """``links`` as a read-only (m, 2) ``np.intp`` array, built once."""
        a = np.array(self.links, dtype=np.intp).reshape(-1, 2)
        a.setflags(write=False)
        return a

    @property
    def degrees(self) -> np.ndarray:
        """Sum of the link weights at each node, added link by link in
        ``links`` order (``np.add.at`` applies repeated indices in turn)."""
        d = np.zeros(self.n)
        np.add.at(d, self.link_array.ravel(),
                  np.repeat(np.array(self.weights, dtype=float), 2))
        return d

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {label: k for k, label in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            # same error type and message as labels.index(label)
            raise ValueError("tuple.index(x): x not in tuple") from None


def _connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the n nodes are connected by the undirected links
    (i[k], j[k]): a breadth-first frontier expansion over the two index
    arrays, deliberately independent of any spectral connectivity check."""
    src, dst = np.concatenate((i, j)), np.concatenate((j, i))
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while True:
        reached = dst[frontier[src]]
        reached = reached[~seen[reached]]
        if not reached.size:
            return bool(seen.all())
        seen[reached] = True
        frontier[:] = False
        frontier[reached] = True


def parse_graph(text: str) -> WeightedGraph:
    """Parse an edge-list document.

    Lines are split on ASCII whitespace; blank lines and lines starting with
    '#' are ignored; a data line is ``<label_a> <label_b> <weight>``.
    Duplicate (a, b) lines have their weights summed (resistors in parallel:
    conductances add). Node indices follow first appearance in the input.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    accum: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EdgeListSyntaxError(
                f"line {lineno}: expected '<label_a> <label_b> <weight>', got {raw!r}"
            )
        a, b, wtext = parts
        try:
            w = float(wtext)
        except ValueError:
            raise EdgeListSyntaxError(f"line {lineno}: bad weight {wtext!r}") from None
        if not (math.isfinite(w) and w > 0):
            raise NonPositiveWeightError(f"line {lineno}: weight {w} must be positive")
        if a == b:
            raise SelfLoopError(f"line {lineno}: self-loop at {a!r}")
        for label in (a, b):
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
        i, j = sorted((index[a], index[b]))
        accum[(i, j)] = accum.get((i, j), 0.0) + w
    links = tuple(sorted(accum))
    weights = tuple(accum[link] for link in links)
    return WeightedGraph(tuple(labels), links, weights)


class LaplacianMatrix:
    """An n x n Laplacian with a cached symmetric part, grounded factor,
    pseudoinverse and eigendecomposition, all held as read-only arrays, one
    cached ``ValidationReport`` per ``Tolerances``, and its most recent Kron
    reduction (``schur.schur_complement``), keyed by the kept nodes in
    order. One certified grounded Cholesky factor of the symmetric part
    (``linalg.grounded_factor``) serves validation's spectral verdicts, the
    pseudoinverse, the embedding and the tree count; where its screen
    declines, one exactly scaled ``eigh`` serves them instead.

    Constructed from any non-empty square array of finite entries
    (``linalg.as_square_array``), unvalidated, by trusted code paths
    (``build_laplacian``, Schur reductions); use ``from_matrix`` to
    validate arbitrary input.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.array(linalg.as_square_array(matrix))
        m.setflags(write=False)
        self.matrix = m
        self.n = m.shape[0]
        self._reports: dict[Tolerances, ValidationReport] = {}
        self._reduction: tuple[tuple[int, ...], LaplacianMatrix] | None = None

    @classmethod
    def from_matrix(cls, matrix, tol: Tolerances = DEFAULT) -> "LaplacianMatrix":
        q = cls(matrix)
        report = validate_laplacian(q, tol)
        if not report.passed:
            raise NotALaplacianError(report)
        return q

    @cached_property
    def symmetric(self) -> np.ndarray:
        """``linalg.symmetric_part(matrix)``; ``matrix`` itself when it
        equals its transpose, as every Laplacian ``build_laplacian`` makes
        does, so that no second n x n array is kept."""
        if np.array_equal(self.matrix, self.matrix.T):
            return self.matrix
        s = linalg.symmetric_part(self.matrix)
        s.setflags(write=False)
        return s

    @cached_property
    def factor(self) -> linalg.GroundedFactor | None:
        """``linalg.grounded_factor(symmetric)``, read-only, or None where
        its screen declines and the spectrum answers instead."""
        f = linalg.grounded_factor(self.symmetric)
        if f is not None:
            for a in (f.pivots, f.frame, f.pinv):
                a.setflags(write=False)
        return f

    @cached_property
    def pinv(self) -> np.ndarray:
        """Q^dagger = S^T S, the factor's, or read off ``spectrum`` without
        its last pair."""
        if self.factor is not None:
            return self.factor.pinv
        p = linalg.deflated_inverse(self.spectrum, -1)
        p.setflags(write=False)
        return p

    @cached_property
    def _scaled(self) -> tuple[int, linalg.EigenDecomposition]:
        """e = ``linalg.exponent(matrix)`` and the read-only ``linalg.eigh`` of
        2^-e ``symmetric``, whose entries lie in (-1, 1), so that none of
        its eigenvalues overflows; without the resolvability rule."""
        e = linalg.exponent(self.matrix)
        dec = linalg.eigh(np.ldexp(self.symmetric, -e))
        dec.eigenvalues.setflags(write=False)
        dec.eigenvectors.setflags(write=False)
        return e, dec

    @cached_property
    def spectrum(self) -> linalg.EigenDecomposition:
        """Eigenpairs of the symmetric part (``from_matrix`` admits a small
        asymmetry), descending with the zero last; shared by every caller.

        Held to one resolvability rule: the smallest nonzero eigenvalue must
        exceed n eps mu_max, the rounding level of one double-precision eigh,
        or its inverse is noise; the product may underflow (weights near
        1e-310) and pass. RankDeficientError where it refuses (weights
        spanning ~19 decades or more) and NonFiniteEntryError where an
        eigenvalue overflows, so where ``factor`` is None, ``pinv``, the
        embedding and the tree count all raise; a refusal is not cached, but
        asking again only re-applies the rule.
        """
        e, dec = self._scaled
        with np.errstate(over="ignore"):
            mu = np.ldexp(dec.eigenvalues, e)
        if not np.isfinite(mu).all():
            raise NonFiniteEntryError("an eigenvalue overflows the float range")
        level = self.n * np.finfo(float).eps * mu[0]
        if self.n > 1 and not mu[-2] > level:
            raise RankDeficientError(
                f"the smallest nonzero Laplacian eigenvalue, {mu[-2]:.3e}, is not above "
                f"the rounding level {level:.3e}; the weights span too many decades "
                "for one spectrum")
        mu.setflags(write=False)
        return linalg.EigenDecomposition(mu, dec.eigenvectors)

    def __repr__(self):
        return f"LaplacianMatrix(n={self.n})"


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Per-property pass/fail for the two equivalent Laplacian definitions."""

    checks: Mapping[str, PropertyCheck] = field(default_factory=dict)
    tol_scale: float = 0.0

    def __post_init__(self):
        # read-only: a LaplacianMatrix hands its cached report to every caller
        object.__setattr__(self, "checks", MappingProxyType(dict(self.checks)))

    @property
    def passed(self) -> bool:
        """Structural verdict: conjunction of (i)-(iv)."""
        return all(self.checks[k].passed for k in _STRUCTURAL)

    @property
    def spectral_passed(self) -> bool:
        """Verdict via (ii) + (i)s-(iii)s."""
        keys = ("offdiag_nonpositive",) + _SPECTRAL
        return all(self.checks[k].passed for k in keys)

    @property
    def consistent(self) -> bool:
        """The two verdicts must agree (the characterizations are equivalent)."""
        return self.passed == self.spectral_passed

    def failed_properties(self) -> list[str]:
        return [k for k, c in self.checks.items() if not c.passed]


_STRUCTURAL = ("symmetric", "offdiag_nonpositive", "zero_row_sums", "irreducible")
_SPECTRAL = ("positive_semidefinite", "single_zero_eigenvalue", "constant_kernel")


def validate_laplacian(a, tol: Tolerances = DEFAULT) -> ValidationReport:
    """Check the structural properties (i)-(iv) and the spectral ones
    (i)s-(iii)s of the Laplacian characterization, plus their consistency.

    A plain array is wrapped in a ``LaplacianMatrix`` first. That object is
    checked once per ``Tolerances``: later calls return the report it
    keeps. Where the object's grounded factor is certified
    (``LaplacianMatrix.factor``), the positive semidefinite and single zero
    eigenvalue checks pass, as the screen proves the eigen route would
    find; otherwise they read the eigenvalues of the one scaled ``eigh``
    its spectrum comes from.
    """
    if not isinstance(a, LaplacianMatrix):
        a = LaplacianMatrix(a)
    report = a._reports.get(tol)
    if report is None:
        report = a._reports[tol] = _check_properties(a, tol)
    return report


def _check_properties(q: LaplacianMatrix, tol: Tolerances) -> ValidationReport:
    m, n = q.matrix, q.n
    scale = max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
    atol = tol.validation * scale
    checks: dict[str, PropertyCheck] = {}
    # Differences, sums and the spectrum are taken of m scaled by the exact
    # power of two 2^-e nearest its largest entry: none overflows for finite
    # m, and no normal-range verdict or detail changes. Details are reported
    # in the input's units. q's scaled eigh, where one is needed, is of the
    # same 2^-e m.
    e = linalg.exponent(m)
    scaled = np.ldexp(m, -e)
    atol_scaled = float(np.ldexp(atol, -e))

    def units(x: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.ldexp(x, e))

    sym_err = float(np.abs(scaled - scaled.T).max())
    checks["symmetric"] = PropertyCheck(
        "symmetric", sym_err <= atol_scaled, f"max |A - A^T| = {units(sym_err):.3e}"
    )

    off = m.copy()  # unscaled: 2^-e could flush a small positive entry to 0
    np.fill_diagonal(off, 0.0)
    worst_off = float(off.max())
    checks["offdiag_nonpositive"] = PropertyCheck(
        "offdiag_nonpositive", worst_off <= atol, f"max off-diagonal = {worst_off:.3e}"
    )

    row_err = float(np.abs(scaled.sum(axis=1)).max())
    col_err = float(np.abs(scaled.sum(axis=0)).max())
    checks["zero_row_sums"] = PropertyCheck(
        "zero_row_sums",
        max(row_err, col_err) <= atol_scaled,
        f"max |row sum| = {units(row_err):.3e}, max |col sum| = {units(col_err):.3e}",
    )

    checks["irreducible"] = PropertyCheck(
        "irreducible", _connected(n, *np.nonzero(np.abs(off) > atol)),
        "BFS over off-diagonal support"
    )

    if q.factor is not None:
        # the factor's screen certifies both verdicts of the eigen route
        certified = "certified by the grounded factor"
        checks["positive_semidefinite"] = PropertyCheck(
            "positive_semidefinite", True, certified)
        checks["single_zero_eigenvalue"] = PropertyCheck(
            "single_zero_eigenvalue", True, f"1 zero eigenvalue, {certified}")
    else:
        vals = q._scaled[1].eigenvalues
        mu_max = max(float(np.abs(vals).max()), np.finfo(float).tiny)
        zero_cut = DEFAULT.zero_eigenvalue * mu_max
        min_val = float(vals.min())
        checks["positive_semidefinite"] = PropertyCheck(
            "positive_semidefinite", min_val >= -zero_cut,
            f"min eigenvalue = {units(min_val):.3e}"
        )
        n_zero = int(np.sum(np.abs(vals) <= zero_cut))
        checks["single_zero_eigenvalue"] = PropertyCheck(
            "single_zero_eigenvalue", n_zero == 1, f"{n_zero} zero eigenvalues"
        )
    # kernel contains the constant vector iff row sums vanish on the
    # symmetrized matrix, scaled as the eigh's is
    ker_err = float(np.abs(np.ldexp(q.symmetric, -e) @ np.ones(n)).max())
    checks["constant_kernel"] = PropertyCheck(
        "constant_kernel", ker_err <= atol_scaled, f"|A u|_inf = {units(ker_err):.3e}"
    )

    return ValidationReport(checks=checks, tol_scale=atol)


def build_laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """Degrees on the diagonal, negated link weights off the diagonal.

    Raises NonFiniteEntryError when a degree overflows the float range.
    """
    with np.errstate(over="ignore"):
        d = g.degrees
    if not np.isfinite(d).all():
        k = int(np.argmin(np.isfinite(d)))
        raise NonFiniteEntryError(
            f"degree of node {g.labels[k]!r} overflows the float range"
        )
    i, j = g.link_array.T
    w = np.array(g.weights, dtype=float)
    q = np.zeros((g.n, g.n))
    q[i, j] = -w
    q[j, i] = -w
    np.fill_diagonal(q, d)
    return LaplacianMatrix(q)


def laplacian_pseudoinverse(q) -> np.ndarray:
    """The read-only ``LaplacianMatrix.pinv`` of ``q``, or of a
    ``LaplacianMatrix`` around an array ``q``."""
    if not isinstance(q, LaplacianMatrix):
        q = LaplacianMatrix(q)
    return q.pinv


def graph_from_laplacian(a, tol: Tolerances = DEFAULT) -> WeightedGraph:
    """Inverse direction of the graph/Laplacian bijection.

    Node labels are "0".."n-1"; entries within the sign dead-band are
    treated as absent links.
    """
    if not isinstance(a, LaplacianMatrix):
        a = LaplacianMatrix(a)
    report = validate_laplacian(a, tol)
    if not report.passed:
        raise NotALaplacianError(report)
    n = a.n
    atol = report.tol_scale
    # x < -atol is -x > atol exactly; nonzero lists the links row-major
    i, j = np.nonzero(np.triu(a.symmetric < -atol, 1))
    return WeightedGraph(
        tuple(str(k) for k in range(n)),
        tuple(zip(i.tolist(), j.tolist())),
        tuple((-a.symmetric[i, j]).tolist()),
    )


def spanning_tree_count(q: LaplacianMatrix) -> float:
    """Matrix-Tree count: the product of the grounded factor's pivots, the
    determinant of Q without its last node, or where there is no factor,
    the product of the nonzero Laplacian eigenvalues over n.

    Raises NonFiniteEntryError when the count overflows to inf or
    underflows to 0, as it does for ordinary weights at n = 1000.
    """
    f = q.factor
    with np.errstate(all="ignore"):
        if f is not None:
            tau = float(np.prod(f.pivots))
        else:
            tau = float(np.prod(q.spectrum.eigenvalues[:-1]) / q.n)
    if not np.isfinite(tau) or tau == 0.0:
        raise NonFiniteEntryError("the spanning tree count leaves the float range")
    return tau
