"""Independent oracles used to cross-check the library.

These deliberately avoid the code paths under test: spanning trees are
counted by exhaustive enumeration, determinants by cofactor expansion,
effective resistances of series-parallel networks by the textbook
series/parallel reduction rules, and exact resistances and tree counts of
any graph by Gauss-Jordan elimination in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from graphsimplex import WeightedGraph


# --- spanning trees by enumeration ---

def count_spanning_trees_brute(n: int, edges: list[tuple[int, int]]) -> int:
    """Count spanning trees by trying every (n-1)-subset of edges."""
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic and len({find(v) for v in range(n)}) == 1:
            count += 1
    return count


# --- determinant by cofactor expansion ---

def determinant_cofactor(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    rest = m[1:]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += (-1.0) ** j * m[0, j] * determinant_cofactor(minor)
    return total


# --- exact resistances and tree count in rational arithmetic ---

def exact_grounded_inverse(g: WeightedGraph) -> tuple[list[list[Fraction]], Fraction]:
    """(X, tau): X the inverse of g's Laplacian grounded at its last node
    (that node's row and column removed), and tau its determinant, the
    spanning tree count by the matrix-tree theorem. Gauss-Jordan
    elimination over Fractions, into which every float weight converts
    exactly; the grounded Laplacian of a connected graph is positive
    definite, so no pivot is zero and none needs a row swap."""
    k = g.n - 1
    a = [[Fraction(0)] * k + [Fraction(int(r == c)) for c in range(k)] for r in range(k)]
    for (i, j), w in zip(g.links, g.weights):
        w = Fraction(w)
        for r, c in ((i, j), (j, i)):
            if r < k:
                a[r][r] += w
                if c < k:
                    a[r][c] -= w
    tau = Fraction(1)
    for p in range(k):
        pivot = a[p][p]
        tau *= pivot
        row = a[p] = [x / pivot for x in a[p]]
        for r in range(k):
            f = a[r][p]
            if r != p and f:
                a[r] = [x - f * y for x, y in zip(a[r], row)]
    return [row[k:] for row in a], tau


def exact_resistances(g: WeightedGraph) -> tuple[list[list[Fraction]], Fraction]:
    """(Omega, tau) exactly: omega_ij = x_ii + x_jj - 2 x_ij with X from
    ``exact_grounded_inverse`` and x = 0 in the ground's row and column."""
    x, tau = exact_grounded_inverse(g)
    k = g.n - 1

    def at(i, j):
        return x[i][j] if i < k and j < k else Fraction(0)

    return [[at(i, i) + at(j, j) - 2 * at(i, j) for j in range(g.n)]
            for i in range(g.n)], tau


# --- series-parallel circuits ---

@dataclass(frozen=True)
class Resistor:
    ohms: float


@dataclass(frozen=True)
class Series:
    left: object
    right: object


@dataclass(frozen=True)
class Parallel:
    left: object
    right: object


def sp_resistance(net) -> float:
    """Terminal-to-terminal resistance by the series/parallel rules."""
    if isinstance(net, Resistor):
        return net.ohms
    a, b = sp_resistance(net.left), sp_resistance(net.right)
    if isinstance(net, Series):
        return a + b
    return 1.0 / (1.0 / a + 1.0 / b)


def sp_edge_lines(net, a: str, b: str, counter: list[int]) -> list[str]:
    """Render the network as edge-list lines between terminals a and b.

    Link weights are conductances (1/ohms); parallel resistors become
    duplicate lines, which the parser merges by summing.
    """
    if isinstance(net, Resistor):
        return [f"{a} {b} {1.0 / net.ohms!r}"]
    if isinstance(net, Series):
        counter[0] += 1
        mid = f"m{counter[0]}"
        return (sp_edge_lines(net.left, a, mid, counter)
                + sp_edge_lines(net.right, mid, b, counter))
    return (sp_edge_lines(net.left, a, b, counter)
            + sp_edge_lines(net.right, a, b, counter))


def sp_document(net) -> str:
    """Edge-list document with terminals named 'src' and 'dst'."""
    return "\n".join(sp_edge_lines(net, "src", "dst", [0])) + "\n"


def sp_terminals(g) -> tuple[int, int]:
    return g.index_of("src"), g.index_of("dst")


def random_sp_network(rng: np.random.Generator, depth: int = 4):
    if depth == 0 or rng.random() < 0.3:
        return Resistor(float(rng.uniform(0.2, 5.0)))
    make = Series if rng.random() < 0.5 else Parallel
    return make(random_sp_network(rng, depth - 1), random_sp_network(rng, depth - 1))


# --- random connected weighted graphs ---

def random_graph(rng: np.random.Generator, n: int | None = None,
                 max_n: int = 50, w_lo: float = 0.1, w_hi: float = 10.0) -> WeightedGraph:
    """Random spanning tree plus random extra links, positive weights."""
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    weights: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        weights[(u, v)] = float(rng.uniform(w_lo, w_hi))
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        weights.setdefault((int(i), int(j)), float(rng.uniform(w_lo, w_hi)))
    links = tuple(sorted(weights))
    return WeightedGraph(
        labels=tuple(str(k) for k in range(n)),
        links=links,
        weights=tuple(weights[l] for l in links),
    )


def unit_graph(n: int, edges: list[tuple[int, int]]) -> WeightedGraph:
    return WeightedGraph(
        labels=tuple(str(k) for k in range(n)),
        links=tuple(sorted(edges)),
        weights=tuple(1.0 for _ in edges),
    )


def complete_graph(n: int) -> WeightedGraph:
    return unit_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> WeightedGraph:
    return unit_graph(n, [(i, i + 1) for i in range(n - 1)])
