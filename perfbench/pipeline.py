"""The per-graph pipeline of the ``dense`` workload, also run in-process as
the reference for the ``cli`` workload's answers.

Each op is one call into a public function of ``graphsimplex``, in the
order of the paper's chain: Laplacian Q, its pseudoinverse (the simplex
Gram), resistances, block identity, angles, Kron reduction and volume.
Every answer is then checked by benchmark-side code that does not share the
library's code path (a Laplacian built with ``np.add.at``, a Cholesky
log-determinant of the grounded Laplacian, an SVD pseudoinverse, the
generator's own edge list). An op fails if it raises or if its check
rejects the answer; the baseline's known defects are counted, not filtered.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Callable

import numpy as np

import graphsimplex as gs
from graphsimplex.config import DEFAULT

from inputs import GraphSpec

# check_metric materialises n^3 float64 temporaries (~1 GB at 400 nodes,
# ~8 GB per temporary at 1000), so it only ever sees the first 400 nodes.
METRIC_CAP = 400
PAIRS = 32  # effective_resistance requests per graph

# Check tolerances, all relative to the scale of the quantity checked. The
# library's answers on these inputs sit at least 100x inside each of them.
REL = 1e-8
REL_ROUND_TRIP = 1e-7  # pinv of a pinv: one more condition-number factor
REL_VOLUME = 1e-6  # Cayley-Menger determinant against the closed form


class CheckFailed(Exception):
    pass


class DependencyFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    """Reject an answer unless ``ok``."""
    if not ok:
        raise CheckFailed(what)


def _max_err(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@dataclass(frozen=True)
class Op:
    key: str
    layer: str
    name: str  # the public function called
    deps: tuple[str, ...]
    call: Callable
    check: Callable


class Case:
    """One graph with its requests, op results, timings and failures.

    Results are computed on first use, so the CLI workload can ask for just
    the ops a subcommand needs; the pipeline asks for all of them in order.
    """

    def __init__(self, spec: GraphSpec, tracer=None):
        self.spec = spec
        self.tracer = tracer
        self.results: dict[str, object] = {}
        self.failed: dict[str, str] = {}
        self.seconds: dict[str, float] = {}
        self.checked: set[str] = set()
        n = spec.n
        rng = spec.rng()
        first = rng.integers(0, n, PAIRS)
        self.pairs = list(zip(first.tolist(),
                              ((first + rng.integers(1, n, PAIRS)) % n).tolist()))
        self.keep = rng.permutation(n)[: max(2, n // 2)].tolist()
        self.sub = self.keep[: max(2, len(self.keep) // 2)]
        self.quotient_seed = int(rng.integers(0, 2**31))
        self.k_metric = min(n, METRIC_CAP)

    # --- running and checking ops -------------------------------------

    def __getitem__(self, key: str):
        if key not in self.results and key not in self.seconds:
            self.run(key)
        if key not in self.results:
            raise DependencyFailed(key)
        return self.results[key]

    def run(self, key: str) -> None:
        op = OPS[key]
        try:
            for dep in op.deps:
                self[dep]
        except DependencyFailed as exc:
            self.failed[key] = f"needs failed op {exc}"
            self.seconds[key] = 0.0
            return
        span = (self.tracer.span(f"{op.layer}.{op.name}", self.spec.graph_id)
                if self.tracer else nullcontext())
        t0 = perf_counter()
        try:
            with span:
                self.results[key] = op.call(self)
        except Exception as exc:  # every raise is a failed op, never fatal
            self.failed[key] = f"{type(exc).__name__}: {exc}"
        self.seconds[key] = perf_counter() - t0

    def verify(self, key: str) -> bool:
        """Check one op's answer once; True iff the op passed."""
        if key not in self.checked:
            self.checked.add(key)
            if key not in self.failed:
                try:
                    OPS[key].check(self, self.results[key])
                except Exception as exc:  # a malformed answer fails its op
                    self.failed[key] = f"check: {type(exc).__name__}: {exc}"
        return key not in self.failed

    # --- benchmark-side references --------------------------------------

    @cached_property
    def labels_index(self) -> np.ndarray:
        """Generator index of each parsed node."""
        return np.array([int(label) for label in self["parse_graph"].labels])

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Q from the generator's edges, in parsed node order."""
        e = self.spec.edges
        i, j, w = e[:, 0].astype(int), e[:, 1].astype(int), e[:, 2]
        q = np.zeros((self.spec.n, self.spec.n))
        np.add.at(q, (i, j), -w)
        np.add.at(q, (j, i), -w)
        np.add.at(q, (i, i), w)
        np.add.at(q, (j, j), w)
        idx = self.labels_index
        return q[np.ix_(idx, idx)]

    @cached_property
    def log_trees(self) -> float:
        """log tau as the Cholesky log-determinant of the grounded Q."""
        ell = np.linalg.cholesky(self.laplacian[:-1, :-1])
        return float(2.0 * np.log(np.diag(ell)).sum())

    @cached_property
    def embedding_sq_dist(self) -> np.ndarray:
        s = self["embed_from_laplacian"].vertices
        g = s.T @ s
        d = np.diag(g)
        return d[:, None] + d[None, :] - 2.0 * g

    @cached_property
    def link_mask(self) -> np.ndarray:
        return self.laplacian < 0


def check_pipeline(case: Case) -> None:
    """Check every op that ran; a check may run a further op it needs."""
    while pending := [key for key in case.seconds if key not in case.checked]:
        for key in pending:
            case.verify(key)


def run_pipeline(case: Case) -> float:
    """Run every op not yet run, in order; returns the wall time in seconds.
    Answers are checked afterwards with ``check_pipeline``, untimed."""
    t0 = perf_counter()
    for key in OPS:
        if key not in case.seconds:
            case.run(key)
    return perf_counter() - t0


# --- ops and their checks -------------------------------------------------

def _laplacian_ok(m: np.ndarray) -> None:
    scale = float(np.abs(np.diag(m)).max())
    off = m - np.diag(np.diag(m))
    require(_max_err(m, m.T) <= REL * scale, "not symmetric")
    require(float(off.max(initial=0.0)) <= REL * scale, "positive off-diagonal")
    require(float(np.abs(m.sum(axis=1)).max()) <= REL * scale, "nonzero row sums")


def _resistances(pinv: np.ndarray) -> np.ndarray:
    z = np.diag(pinv)
    return z[:, None] + z[None, :] - 2.0 * pinv


def check_parse(c: Case, g) -> None:
    n = c.spec.n
    require(sorted(g.labels, key=int) == [str(k) for k in range(n)], "labels")
    idx = c.labels_index
    got = {(min(idx[i], idx[j]), max(idx[i], idx[j])): w
           for (i, j), w in zip(g.links, g.weights)}
    want = {(int(i), int(j)): w for i, j, w in c.spec.edges.tolist()}
    require(got == want, "links or weights differ from the input")


def check_build(c: Case, q) -> None:
    scale = float(np.abs(c.laplacian).max())
    require(_max_err(q.matrix, c.laplacian) <= 1e-12 * scale, "Q differs")


def check_validate(c: Case, report) -> None:
    require(report.passed and report.spectral_passed and report.consistent,
             f"rejects a Laplacian: {report.failed_properties()}")


def check_pinv(c: Case, p: np.ndarray) -> None:
    n = c.spec.n
    target = np.eye(n) - np.full((n, n), 1.0 / n)
    require(_max_err(c.laplacian @ p, target) <= REL, "Q Q+ != I - uu^T/n")


def check_omega(c: Case, omega: np.ndarray) -> None:
    scale = float(np.abs(omega).max())
    require(_max_err(omega, omega.T) <= 1e-12 * scale, "not symmetric")
    require(not np.diag(omega).any(), "nonzero diagonal")
    require(_max_err(omega, c.embedding_sq_dist) <= REL * scale,
             "differs from the embedding's squared distances")


def check_effective(c: Case, values: list) -> None:
    d = c.embedding_sq_dist
    want = [d[i, j] for i, j in c.pairs]
    require(_max_err(values, want) <= REL * float(np.abs(d).max()),
             "differs from the embedding's squared distances")


def check_identity(c: Case, report) -> None:
    require(report.residual <= DEFAULT.residual,
             f"identity residual {report.residual:.3e}")


def check_inverse(c: Case, inv: np.ndarray) -> None:
    prod = c["resistance_matrix"] @ inv
    require(_max_err(prod, np.eye(c.spec.n)) <= REL, "Omega Omega^-1 != I")


def check_embed(c: Case, emb) -> None:
    s = emb.vertices
    p = c["laplacian_pseudoinverse"]
    require(s.shape == (c.spec.n - 1, c.spec.n), f"shape {s.shape}")
    require(_max_err(s.T @ s, p) <= REL * float(np.abs(p).max()), "S^T S != Q+")


def check_angles(c: Case, cls) -> None:
    n = c.spec.n
    require(len(cls.pairs) == n * (n - 1) // 2, "pair count")
    require(not cls.has_obtuse, "obtuse angle in a Laplacian simplex")
    i = np.fromiter((p.i for p in cls.pairs), int, len(cls.pairs))
    j = np.fromiter((p.j for p in cls.pairs), int, len(cls.pairs))
    cos = np.fromiter((p.cosine for p in cls.pairs), float, len(cls.pairs))
    acute = np.fromiter((p.label == "acute" for p in cls.pairs), bool, len(cls.pairs))
    require(np.array_equal(acute, c.link_mask[i, j]), "acute pairs != links")
    q = c.laplacian
    d = np.diag(q)
    require(_max_err(cos, q[i, j] / np.sqrt(d[i] * d[j])) <= REL, "cosines")


def check_canonical(c: Case, gp) -> None:
    p = c["laplacian_pseudoinverse"]
    q = c.laplacian
    require(_max_err(gp.gram, p) <= REL * float(np.abs(p).max()), "M != Q+")
    require(_max_err(gp.pinv_gram, q) <= REL_ROUND_TRIP * float(np.abs(q).max()),
             "M+ != Q")


def check_circumsphere(c: Case, report) -> None:
    require(report.passed(), f"deviation {report.max_deviation:.3e}")


def check_trees(c: Case, tau: float) -> None:
    require(math.isfinite(tau) and tau > 0, f"tree count {tau!r}")
    require(abs(math.log(tau) - c.log_trees) <= 1e-9 * max(1.0, abs(c.log_trees)),
             "tree count != det of the grounded Laplacian")


def check_volume(c: Case, vol: float) -> None:
    require(math.isfinite(vol) and vol > 0, f"volume {vol!r}")
    want = -math.lgamma(c.spec.n) - 0.5 * c.log_trees
    require(abs(math.log(vol) - want) <= REL_VOLUME * max(1.0, abs(want)),
             "volume != 1/((n-1)! sqrt(tau))")


def check_schur(c: Case, reduced) -> None:
    m = reduced.matrix
    k = len(c.keep)
    require(m.shape == (k, k), f"shape {m.shape}")
    _laplacian_ok(m)
    omega = c["resistance_matrix"][np.ix_(c.keep, c.keep)]
    require(_max_err(_resistances(np.linalg.pinv(m)), omega)
             <= REL * float(omega.max()), "resistances not preserved")


def check_schur_pinv(c: Case, reduced) -> None:
    m = reduced.matrix
    _laplacian_ok(m)
    want = c["schur_complement"].matrix
    require(_max_err(m, want) <= REL_ROUND_TRIP * float(np.abs(want).max()),
             "differs from the block-elimination route")


def check_preservation(c: Case, report) -> None:
    scale = float(c["resistance_matrix"].max())
    require(report.residual <= REL * scale, f"residual {report.residual:.3e}")


def check_quotient_report(c: Case, report) -> None:
    scale = float(np.diag(c.laplacian).max())
    require(report.residual <= REL * scale, f"residual {report.residual:.3e}")


def check_round_trip(c: Case, g) -> None:
    src = c["parse_graph"]
    require(g.links == src.links, "links differ")
    require(_max_err(g.weights, src.weights) <= 1e-12 * max(src.weights),
             "weights differ")


def check_metric_report(c: Case, report) -> None:
    require(report.passed, f"{report.violations} violations ({report.mode})")


def _metric(mode: str):
    def call(c: Case):
        k = c.k_metric
        return gs.check_metric(c["resistance_matrix"][:k, :k], mode)
    return call


def _angles(c: Case):
    return gs.dihedral_angles(gs.gram_pair_from_laplacian(c["build_laplacian"]))


def _circumsphere(c: Case):
    q = c["build_laplacian"]
    return gs.circumsphere_check(c["embed_from_laplacian"], gs.fiedler_blocks(q))


_Q = ("build_laplacian",)
_PINV = ("build_laplacian", "laplacian_pseudoinverse")

OPS: dict[str, Op] = {op.key: op for op in (
    Op("parse_graph", "graphs", "parse_graph", (),
       lambda c: gs.parse_graph(c.spec.text), check_parse),
    Op("build_laplacian", "graphs", "build_laplacian", ("parse_graph",),
       lambda c: gs.build_laplacian(c["parse_graph"]), check_build),
    Op("validate_laplacian", "graphs", "validate_laplacian", _Q,
       lambda c: gs.validate_laplacian(c["build_laplacian"]), check_validate),
    Op("laplacian_pseudoinverse", "linalg", "laplacian_pseudoinverse", _Q,
       lambda c: c["build_laplacian"].pinv, check_pinv),
    Op("resistance_matrix", "resistance", "resistance_matrix", _PINV,
       lambda c: gs.resistance_matrix(c["build_laplacian"]), check_omega),
    Op("effective_resistance", "resistance", "effective_resistance", _PINV,
       lambda c: [gs.effective_resistance(c["build_laplacian"], i, j)
                  for i, j in c.pairs], check_effective),
    Op("verify_fiedler_identity", "resistance", "verify_fiedler_identity", _PINV,
       lambda c: gs.verify_fiedler_identity(c["build_laplacian"]), check_identity),
    Op("inverse_resistance_matrix", "resistance", "inverse_resistance_matrix", _PINV,
       lambda c: gs.inverse_resistance_matrix(c["build_laplacian"]), check_inverse),
    Op("embed_from_laplacian", "simplex", "embed_from_laplacian", _Q,
       lambda c: gs.embed_from_laplacian(c["build_laplacian"]), check_embed),
    Op("dihedral_angles", "simplex", "dihedral_angles", _PINV, _angles, check_angles),
    Op("canonical_gram", "simplex", "canonical_gram", ("embed_from_laplacian",),
       lambda c: gs.canonical_gram(c["embed_from_laplacian"]), check_canonical),
    Op("circumsphere_check", "simplex", "circumsphere_check",
       _PINV + ("embed_from_laplacian",), _circumsphere, check_circumsphere),
    Op("spanning_tree_count", "graphs", "spanning_tree_count", _Q,
       lambda c: gs.spanning_tree_count(c["build_laplacian"]), check_trees),
    Op("cayley_menger_volume", "simplex", "cayley_menger_volume", ("resistance_matrix",),
       lambda c: gs.cayley_menger_volume(c["resistance_matrix"]), check_volume),
    Op("schur_complement", "schur", "schur_complement", _Q,
       lambda c: gs.schur_complement(c["build_laplacian"], c.keep), check_schur),
    Op("schur_via_pinv", "schur", "schur_via_pinv", _PINV,
       lambda c: gs.schur_via_pinv(c["build_laplacian"], c.keep), check_schur_pinv),
    Op("check_resistance_preservation", "schur", "check_resistance_preservation", _PINV,
       lambda c: gs.check_resistance_preservation(c["build_laplacian"], c.keep),
       check_preservation),
    Op("check_quotient", "schur", "check_quotient", _Q,
       lambda c: gs.check_quotient(c["build_laplacian"], c.keep, c.sub,
                                   seed=c.quotient_seed), check_quotient_report),
    Op("graph_from_laplacian", "graphs", "graph_from_laplacian", _Q,
       lambda c: gs.graph_from_laplacian(c["build_laplacian"]), check_round_trip),
    Op("check_metric_plain", "resistance", "check_metric", ("resistance_matrix",),
       _metric("plain"), check_metric_report),
    Op("check_metric_sqrt", "resistance", "check_metric", ("resistance_matrix",),
       _metric("sqrt"), check_metric_report),
)}
