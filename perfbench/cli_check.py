"""Parse each CLI subcommand's output and compare it with the in-process
library result for the same graph, to the digits the CLI prints (12
significant digits in TSV).

``compare`` raises ``CheckFailed`` on a mismatch. The reference comes from a
``pipeline.Case`` for the same edge-list file, whose own answers are checked
first: when the library's answer is wrong, so is the CLI's.
"""

from __future__ import annotations

import math

import numpy as np

import graphsimplex as gs
from graphsimplex.config import DEFAULT

from pipeline import Case, CheckFailed, DependencyFailed, require

TSV_RTOL = 1e-10  # 12 printed digits, with headroom for the last one
SUBCOMMANDS = ("laplacian", "pinv", "resistance", "embed", "angles", "reduce",
               "metric-check", "volume", "verify-identity", "spanning-trees",
               "blocks")


def _close(got, want, what: str) -> None:
    got, want = np.asarray(got, float), np.asarray(want, float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    scale = float(np.abs(want).max(initial=0.0))
    require(np.allclose(got, want, rtol=TSV_RTOL, atol=TSV_RTOL * scale),
             f"{what}: differs from the library")


def _matrix(out: str, labels) -> np.ndarray:
    lines = out.splitlines()
    require(lines and lines[0].split("\t") == list(labels), "header labels")
    return np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])


def _reference(case: Case, key: str):
    """The library's answer, only if the benchmark's check accepts it."""
    try:
        value = case[key]
    except DependencyFailed:
        raise CheckFailed(f"library op {key} failed: {case.failed[key]}") from None
    if not case.verify(key):
        raise CheckFailed(f"library op {key} failed: {case.failed[key]}")
    return value


def extra_args(case: Case, sub: str, round_index: int) -> list[str]:
    """Arguments past the input file; ``metric-check`` alternates between
    plain and sqrt mode from one round of subcommands to the next."""
    if sub == "reduce":
        labels = case["parse_graph"].labels
        return ["--keep", ",".join(labels[i] for i in case.keep)]
    if sub == "metric-check" and round_index % 2:
        return ["--sqrt"]
    return []


def compare(case: Case, sub: str, args: list[str], out: str) -> None:
    labels = case["parse_graph"].labels
    if sub == "laplacian":
        _close(_matrix(out, labels), _reference(case, "build_laplacian").matrix, sub)
    elif sub == "pinv":
        _close(_matrix(out, labels), _reference(case, "laplacian_pseudoinverse"), sub)
    elif sub == "resistance":
        _close(_matrix(out, labels), _reference(case, "resistance_matrix"), sub)
    elif sub == "embed":
        # eigenvectors are unique only up to sign: compare Gram matrices
        s = _matrix(out, labels)
        ref = _reference(case, "embed_from_laplacian").vertices
        _close(s.T @ s, ref.T @ ref, sub)
    elif sub == "angles":
        ref = _reference(case, "dihedral_angles").pairs
        rows = [line.split("\t") for line in out.splitlines()]
        require(len(rows) == len(ref), "pair count")
        require(all(r[0] == labels[p.i] and r[1] == labels[p.j] and r[3] == p.label
                     for r, p in zip(rows, ref)), "pairs or labels differ")
        _close([float(r[2]) for r in rows], [p.cosine for p in ref], sub)
    elif sub == "reduce":
        keep = [labels[i] for i in case.keep]
        _close(_matrix(out, keep), _reference(case, "schur_complement").matrix, sub)
    elif sub == "metric-check":
        ref = _reference(case, "check_metric_sqrt" if "--sqrt" in args
                         else "check_metric_plain")
        require(out.splitlines()[0] == f"{ref.violations} violations (mode {ref.mode})",
                 "metric report differs")
    elif sub == "volume":
        _close(float(out), _reference(case, "cayley_menger_volume"), sub)
    elif sub == "verify-identity":
        ref = _reference(case, "verify_fiedler_identity")
        got = dict(line.split("\t") for line in out.splitlines())
        for key, want in (("residual_ab", ref.residual_ab), ("residual_ba", ref.residual_ba)):
            value = float(got[key])
            require(value <= DEFAULT.residual, f"{key} {value:.3e} over the gate")
            # residuals are round-off: below 1e-13 their digits carry no information
            require(math.isclose(value, want, rel_tol=TSV_RTOL, abs_tol=1e-13),
                     f"{key} differs from the library")
    elif sub == "spanning-trees":
        value = float(out)
        require(math.isfinite(value), f"tree count {out.strip()!r}")
        _close(value, _reference(case, "spanning_tree_count"), sub)
    elif sub == "blocks":
        _reference(case, "laplacian_pseudoinverse")  # checked Q+ for the blocks
        fb = gs.fiedler_blocks(_reference(case, "build_laplacian"))
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in out.splitlines()}
        _close([float(v) for v in rows["zeta"]], fb.zeta, "blocks zeta")
        _close([float(v) for v in rows["r"]], fb.r, "blocks r")
        _close(float(rows["R"][0]), fb.radius, "blocks R")
    else:
        raise ValueError(f"unknown subcommand {sub!r}")
