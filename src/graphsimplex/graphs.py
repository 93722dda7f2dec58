"""Weighted graphs, edge-list parsing, Laplacian construction and validation.

A graph is a set of labeled nodes with positive-weighted undirected links;
its Laplacian has node degrees on the diagonal and negated link weights off
the diagonal. ``validate_laplacian`` checks both the structural properties
(symmetry, off-diagonal signs, zero row sums, irreducibility) and the
equivalent spectral characterization, and cross-checks their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    DisconnectedError,
    EdgeListSyntaxError,
    NonPositiveWeightError,
    NotALaplacianError,
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
        seen = set()
        for (i, j), w in zip(self.links, self.weights):
            if i == j:
                raise SelfLoopError(f"self-loop at node {self.labels[i]!r}")
            if not (0 <= i < n and 0 <= j < n):
                raise EdgeListSyntaxError(f"link index out of range: ({i}, {j})")
            if i > j:
                raise EdgeListSyntaxError("links must be canonical (i < j) pairs")
            if (i, j) in seen:
                raise EdgeListSyntaxError(f"duplicate link ({i}, {j})")
            seen.add((i, j))
            if not (np.isfinite(w) and w > 0):
                raise NonPositiveWeightError(
                    f"weight {w!r} on link {self.labels[i]!r}-{self.labels[j]!r}"
                )
        if not self._is_connected():
            raise DisconnectedError("graph is not connected")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n)
        for (i, j), w in zip(self.links, self.weights):
            d[i] += w
            d[j] += w
        return d

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def _is_connected(self) -> bool:
        # plain BFS over the link set; deliberately independent of any
        # spectral connectivity check
        n = self.n
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.links:
            adj[i].append(j)
            adj[j].append(i)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            k = stack.pop()
            for m in adj[k]:
                if not seen[m]:
                    seen[m] = True
                    stack.append(m)
        return all(seen)


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
        if not (np.isfinite(w) and w > 0):
            raise NonPositiveWeightError(f"line {lineno}: weight {w} must be positive")
        if a == b:
            raise SelfLoopError(f"line {lineno}: self-loop at {a!r}")
        for label in (a, b):
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
        i, j = sorted((index[a], index[b]))
        accum[(i, j)] = accum.get((i, j), 0.0) + w
    if len(labels) < 2:
        raise TooFewNodesError(f"need at least 2 nodes, got {len(labels)}")
    links = tuple(sorted(accum))
    weights = tuple(accum[link] for link in links)
    return WeightedGraph(tuple(labels), links, weights)


class LaplacianMatrix:
    """An n x n Laplacian with a cached pseudoinverse.

    Constructed unvalidated by trusted code paths (``build_laplacian``,
    Schur reductions); use ``from_matrix`` to validate arbitrary input.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        m.setflags(write=False)
        self.matrix = m
        self.n = m.shape[0]

    @classmethod
    def from_matrix(cls, matrix, tol: Tolerances = DEFAULT) -> "LaplacianMatrix":
        report = validate_laplacian(matrix, tol)
        if not report.passed:
            raise NotALaplacianError(report)
        return cls(linalg.as_square_array(matrix))

    @cached_property
    def pinv(self) -> np.ndarray:
        return linalg.laplacian_pseudoinverse(self.matrix)

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

    checks: dict[str, PropertyCheck] = field(default_factory=dict)
    tol_scale: float = 0.0

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
    (i)s-(iii)s of the Laplacian characterization, plus their consistency."""
    m = linalg.as_square_array(a)
    n = m.shape[0]
    scale = max(float(np.abs(np.diag(m)).max()), np.finfo(float).tiny)
    atol = tol.validation * scale
    checks: dict[str, PropertyCheck] = {}

    sym_err = float(np.abs(m - m.T).max())
    checks["symmetric"] = PropertyCheck(
        "symmetric", sym_err <= atol, f"max |A - A^T| = {sym_err:.3e}"
    )

    off = m - np.diag(np.diag(m))
    worst_off = float(off.max(initial=0.0))
    checks["offdiag_nonpositive"] = PropertyCheck(
        "offdiag_nonpositive", worst_off <= atol, f"max off-diagonal = {worst_off:.3e}"
    )

    row_err = float(np.abs(m.sum(axis=1)).max())
    col_err = float(np.abs(m.sum(axis=0)).max())
    checks["zero_row_sums"] = PropertyCheck(
        "zero_row_sums",
        max(row_err, col_err) <= atol,
        f"max |row sum| = {row_err:.3e}, max |col sum| = {col_err:.3e}",
    )

    checks["irreducible"] = PropertyCheck(
        "irreducible", _irreducible(m, atol), "BFS over off-diagonal support"
    )

    sym = 0.5 * (m + m.T)
    vals = np.linalg.eigvalsh(sym)
    mu_max = max(float(np.abs(vals).max()), np.finfo(float).tiny)
    zero_cut = tol.zero_eigenvalue * mu_max
    min_val = float(vals.min())
    checks["positive_semidefinite"] = PropertyCheck(
        "positive_semidefinite", min_val >= -zero_cut, f"min eigenvalue = {min_val:.3e}"
    )
    n_zero = int(np.sum(np.abs(vals) <= zero_cut))
    checks["single_zero_eigenvalue"] = PropertyCheck(
        "single_zero_eigenvalue", n_zero == 1, f"{n_zero} zero eigenvalues"
    )
    # kernel contains the constant vector iff row sums vanish on the
    # symmetrized matrix
    ker_err = float(np.abs(sym @ np.ones(n)).max())
    checks["constant_kernel"] = PropertyCheck(
        "constant_kernel", ker_err <= atol, f"|A u|_inf = {ker_err:.3e}"
    )

    return ValidationReport(checks=checks, tol_scale=atol)


def _irreducible(m: np.ndarray, atol: float) -> bool:
    n = m.shape[0]
    if n == 1:
        return True
    support = np.abs(m) > atol
    np.fill_diagonal(support, False)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for j in np.nonzero(support[k] | support[:, k])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def build_laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """Degrees on the diagonal, negated link weights off the diagonal."""
    q = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.links, g.weights):
        q[i, j] -= w
        q[j, i] -= w
        q[i, i] += w
        q[j, j] += w
    return LaplacianMatrix(q)


def graph_from_laplacian(a, tol: Tolerances = DEFAULT) -> WeightedGraph:
    """Inverse direction of the graph/Laplacian bijection.

    Node labels are "0".."n-1"; entries within the sign dead-band are
    treated as absent links.
    """
    report = validate_laplacian(a, tol)
    if not report.passed:
        raise NotALaplacianError(report)
    m = linalg.as_square_array(a)
    n = m.shape[0]
    atol = report.tol_scale
    i, j = np.triu_indices(n, 1)
    w = -0.5 * (m[i, j] + m[j, i])
    keep = w > atol
    return WeightedGraph(
        tuple(str(k) for k in range(n)),
        tuple(zip(i[keep].tolist(), j[keep].tolist())),
        tuple(w[keep].tolist()),
    )


def spanning_tree_count(q: LaplacianMatrix) -> float:
    """Matrix-Tree count: product of the nonzero Laplacian eigenvalues over n."""
    dec = linalg.eigh(q.matrix)
    return float(np.prod(dec.eigenvalues[:-1]) / q.n)
