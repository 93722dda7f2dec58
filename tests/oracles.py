"""Independent oracles used to cross-check the library.

These deliberately avoid the code paths under test: spanning trees are
counted by exhaustive enumeration, determinants by cofactor expansion,
effective resistances of series-parallel networks by the textbook
series/parallel reduction rules, and exact resistances and tree counts of
any graph by Gauss-Jordan elimination in rational arithmetic. The
contract corpus runs every subcommand on graphs whose weights span up to
600 decades and classifies each outcome against those exact answers.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from graphsimplex import WeightedGraph, cli, parse_graph


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


def exact_pinv(g: WeightedGraph) -> list[list[Fraction]]:
    """Q^dagger exactly: J X J with J = I - uu^T/n and X the grounded
    inverse of ``exact_grounded_inverse`` padded with a zero row and column
    for the ground, a generalized inverse of Q, so J X J = Q^dagger Q X Q
    Q^dagger = Q^dagger."""
    x, _ = exact_grounded_inverse(g)
    n = g.n
    padded = [row + [Fraction(0)] for row in x] + [[Fraction(0)] * n]
    means = [sum(row, Fraction(0)) / n for row in padded]  # X is symmetric
    grand = sum(means, Fraction(0)) / n
    return [[padded[i][j] - means[i] - means[j] + grand for j in range(n)]
            for i in range(n)]


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


# --- the contract corpus: every subcommand against the exact answers ---

CONTRACT_SPANS = (0, 3, 6, 10, 15, 40, 150, 300)
CONTRACT_COMMANDS = ("laplacian", "pinv", "resistance", "embed", "angles", "metric-check",
                     "volume", "verify-identity", "spanning-trees", "blocks")
_CONTRACT_RTOL = Fraction(1e-11)


def contract_corpus(seed: int):
    """25 edge-list documents per weight span a in ``CONTRACT_SPANS``, each
    with a random kept pair "i,j": n uniform in [3, 10], node v linked to a
    uniform earlier node, then up to n - 1 uniform extra pairs (a repeated
    pair is a parallel link), weights 10^U(-a, a) printed to 6 significant
    digits."""
    rng = np.random.default_rng(seed)
    for a in CONTRACT_SPANS:
        for _ in range(25):
            n = int(rng.integers(3, 11))
            pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            pairs += [tuple(rng.choice(n, 2, replace=False).tolist())
                      for _ in range(int(rng.integers(0, n)))]
            text = "".join(f"{i} {j} {10.0 ** rng.uniform(-a, a):.6g}\n" for i, j in pairs)
            i, j = rng.choice(n, 2, replace=False).tolist()
            yield text, f"{i},{j}"


def run_cli(argv: list[str], text: str):
    """(status, stdout) of ``cli.main(argv)`` reading ``text`` on stdin, with
    RuntimeWarning an error; an exception that escapes main is the status."""
    out = io.StringIO()
    stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(text)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            status = cli.main(argv)
    except Exception as exc:  # a traceback breaks the contract; it is counted
        status = exc
    finally:
        sys.stdin = stdin
    return status, out.getvalue()


def _far(got: str, want: Fraction, scale: Fraction) -> bool:
    """Whether the printed ``got`` is more than 1e-11 scale from ``want``."""
    return abs(Fraction(float(got)) - want) > _CONTRACT_RTOL * scale


def contract_census(seed: int) -> dict[str, list[int]]:
    """For each outcome class, the indices of the ``contract_corpus(seed)``
    graphs in it. The contract allows only the right answer or exit 2:
      "traceback": an exception escapes ``cli.main``;
      "inf or nan on exit 0": either is printed by a command that exits 0;
      "resistance wrong": an exit-0 Omega entry more than 1e-11 max Omega
        from ``exact_resistances``;
      "spanning-trees wrong": an exit-0 tau more than 1e-11 relative from
        the exact one;
      "reduce wrong": the exit-0 reduction onto the kept pair more than
        1e-11 relative from its exact link, 1/omega_ij;
      "<command> exit 1": a check that fails, false for any graph;
      "<command> refused": exit 2, which keeps the contract.
    """
    found = defaultdict(list)
    for k, (text, keep) in enumerate(contract_corpus(seed)):
        g = parse_graph(text)
        omega, tau = exact_resistances(g)
        a, b = (g.index_of(label) for label in keep.split(","))
        classes = set()
        for argv in [[c, "-"] for c in CONTRACT_COMMANDS] + [["reduce", "-", "--keep", keep]]:
            command = argv[0]
            status, out = run_cli(argv, text)
            if isinstance(status, Exception):
                classes.add("traceback")
            elif status != 0:
                classes.add(f"{command} {'refused' if status == 2 else f'exit {status}'}")
            elif re.search(r"\b(inf|nan)\b", out, re.IGNORECASE):
                classes.add("inf or nan on exit 0")
            elif command == "resistance":
                rows = [line.split("\t") for line in out.splitlines()[1:]]
                top = max(max(row) for row in omega)
                if any(_far(x, w, top) for row, want in zip(rows, omega)
                       for x, w in zip(row, want)):
                    classes.add("resistance wrong")
            elif command == "spanning-trees" and _far(out, tau, tau):
                classes.add("spanning-trees wrong")
            elif command == "reduce":
                link = 1 / omega[a][b]
                if _far(out.splitlines()[1].split("\t")[1], -link, link):
                    classes.add("reduce wrong")
        for name in classes:
            found[name].append(k)
    return dict(found)
