"""Seeded graph generators for the benchmark workloads.

Every graph is a random spanning tree plus extra random links, with weights
drawn uniformly from [0.1, 10), the same family as the acceptance corpus in
``tests/``. A graph is identified by the workload seed and its index in the
stream, so the same seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

W_LO, W_HI = 0.1, 10.0


@dataclass(frozen=True)
class GraphSpec:
    """One generated input: its edge-list text plus the generator's own view
    of the graph, which the correctness checks compare against."""

    graph_id: str
    n: int
    edges: np.ndarray  # (m, 3): i < j in generator indices, then the weight
    text: str
    seed: tuple[int, ...]

    def rng(self) -> np.random.Generator:
        """A generator for the per-graph requests (pairs, kept sets)."""
        return np.random.default_rng([x % 2**64 for x in self.seed + (1,)])


def random_graph(graph_id: str, seed: tuple[int, ...], n: int, extra: int) -> GraphSpec:
    """Spanning tree (each node v > 0 joins a uniform earlier node) plus
    ``extra`` attempted links; a repeated pair keeps its first weight."""
    rng = np.random.default_rng([x % 2**64 for x in seed + (0,)])
    v = np.arange(1, n)
    parents = (rng.random(n - 1) * v).astype(np.int64)
    weights: dict[tuple[int, int], float] = {}
    for a, b, w in zip(parents.tolist(), v.tolist(),
                       rng.uniform(W_LO, W_HI, n - 1).tolist()):
        weights[(a, b)] = w
    if extra:
        ends = rng.integers(0, n, size=(extra, 2))
        for (a, b), w in zip(ends.tolist(), rng.uniform(W_LO, W_HI, extra).tolist()):
            if a != b:
                weights.setdefault((min(a, b), max(a, b)), w)
    pairs = list(weights)
    order = rng.permutation(len(pairs))  # line order sets the parsed node order
    lines = []
    for k in order.tolist():
        a, b = pairs[k]
        if k % 2:
            a, b = b, a
        lines.append(f"{a} {b} {weights[pairs[k]]!r}")
    edges = np.array([(a, b, w) for (a, b), w in weights.items()], dtype=float)
    return GraphSpec(graph_id, n, edges, "\n".join(lines) + "\n", seed)


def sized_graph(seed: int, index: int, n: int) -> GraphSpec:
    """The ROADMAP fixture at a given size: a tree plus 2n extra links."""
    return random_graph(f"n{n}-{seed}-{index}", (seed, 3, n, index), n=n, extra=2 * n)


def warmup_graph(seed: int, n: int) -> GraphSpec:
    return random_graph(f"warmup-{seed}", (seed, 4), n=n, extra=2 * n)
