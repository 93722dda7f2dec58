#!/usr/bin/env python3
"""Dihedral-angle census of random graph Simplices.

Every connected weighted graph maps to a hyperacute Simplex, so no obtuse
angles should ever appear; this script tallies how often right angles occur
(exactly when the pseudoinverse entry vanishes, e.g. across cut vertices)
and prints the distribution of the sharpest cosine seen per graph.

Usage:
    python3 scripts/angle_census.py [--graphs N] [--max-nodes N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import graphsimplex as gs
from oracles import random_graph

LABELS = gs.simplex.ANGLE_LABELS  # indexed by the angle codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=300)
    parser.add_argument("--max-nodes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    counts = np.zeros(len(LABELS), dtype=int)
    sharpest = []
    for _ in range(args.graphs):
        q = gs.build_laplacian(random_graph(rng, max_n=args.max_nodes))
        cls = gs.dihedral_angles(gs.gram_pair_from_laplacian(q))
        i, j = np.triu_indices(cls.n, 1)
        counts += np.bincount(cls.codes[i, j], minlength=len(LABELS))
        sharpest.append(cls.cosines[i, j].min())

    total = int(counts.sum())
    print(f"corpus: {args.graphs} graphs, n <= {args.max_nodes}, seed {args.seed}")
    for label, count in zip(LABELS, counts.tolist()):
        print(f"{label:7s} {count:8d}  ({100.0 * count / total:5.1f}%)")
    arr = np.array(sharpest)
    print(f"sharpest cosine per graph: median {np.median(arr):.4f}, min {arr.min():.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
