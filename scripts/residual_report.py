#!/usr/bin/env python3
"""Residual survey over a random graph corpus.

Samples random connected weighted graphs, then reports the distribution of
the block-identity residual, the Schur resistance-preservation residual,
the quotient-property residual relative to the largest diagonal entry of
the one-shot reduction, and the round-trip error
Q -> embedding -> canonical Gram -> pinv -> Q.

Usage:
    python3 scripts/residual_report.py [--graphs N] [--max-nodes N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import graphsimplex as gs
from oracles import random_graph


def summarize(name: str, values: list[float]) -> None:
    if not values:
        print(f"{name:28s} n/a (0 samples)")
        return
    arr = np.array(values)
    print(f"{name:28s} median {np.median(arr):9.2e}   "
          f"p95 {np.quantile(arr, 0.95):9.2e}   max {arr.max():9.2e}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=200)
    parser.add_argument("--max-nodes", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    identity, preservation, quotient, round_trip = [], [], [], []
    for _ in range(args.graphs):
        q = gs.build_laplacian(random_graph(rng, max_n=args.max_nodes))
        identity.append(gs.verify_fiedler_identity(q).residual)
        if q.n >= 3:
            k = int(rng.integers(2, q.n))
            keep = sorted(rng.choice(q.n, size=k, replace=False).tolist())
            preservation.append(gs.check_resistance_preservation(q, keep).residual)
            sub = keep[: max(2, k // 2)]
            report = gs.check_quotient(q, keep, sub)
            one_shot = gs.schur_complement(q, sub).matrix
            quotient.append(report.residual / float(np.diag(one_shot).max()))
        gp = gs.canonical_gram(gs.embed_from_laplacian(q))
        scale = float(np.abs(q.matrix).max())
        round_trip.append(float(np.abs(gp.pinv_gram - q.matrix).max()) / scale)

    print(f"corpus: {args.graphs} graphs, n <= {args.max_nodes}, seed {args.seed}")
    summarize("block identity residual", identity)
    summarize("resistance preservation", preservation)
    summarize("quotient (relative)", quotient)
    summarize("round trip (relative)", round_trip)
    return 0


if __name__ == "__main__":
    sys.exit(main())
