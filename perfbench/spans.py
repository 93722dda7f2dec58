"""Spans recorded from the benchmark's own code, and LAPACK call counting.

A span is (name, start, end, parent, graph id). Spans stay in memory and
are written out when the run ends. A span's self time is its duration minus
the time its child spans cover; children never overlap, because every call
is synchronous and there is a single client.

LAPACK-backed entry points are wrapped only while a ``Tracer`` counts
them, and only calls made inside a span (a pipeline or an op) are
recorded, so the benchmark's own checks are never counted. Flops are
computed from the matrix size with textbook operation counts (Golub & Van
Loan), not measured: they repeat exactly for the same inputs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.linalg


@dataclass
class Span:
    name: str
    graph_id: str
    parent: int | None
    start: float
    end: float = 0.0
    gflop: float = 0.0
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s


def _n(a) -> int:
    return int(np.shape(a)[0])


def _solve_flops(a, b, *args, **kwargs) -> float:
    n = _n(a)
    k = int(np.prod(np.shape(b)[1:], dtype=int)) if np.ndim(b) > 1 else 1
    return 2.0 / 3.0 * n**3 + 2.0 * n * n * k


# entry point -> (module, attribute, computed flop count)
LAPACK = {
    "eigh": (np.linalg, "eigh", lambda a, *r, **k: 9.0 * _n(a) ** 3),
    "eigvalsh": (np.linalg, "eigvalsh", lambda a, *r, **k: 4.0 / 3.0 * _n(a) ** 3),
    "solve": (np.linalg, "solve", _solve_flops),
    "cholesky": (np.linalg, "cholesky", lambda a, *r, **k: _n(a) ** 3 / 3.0),
    "cho_factor": (scipy.linalg, "cho_factor", lambda a, *r, **k: _n(a) ** 3 / 3.0),
}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, graph_id: str, gflop: float = 0.0):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, graph_id, parent, perf_counter(), gflop=gflop)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += rec.seconds

    def active(self) -> bool:
        return bool(self._stack)

    @contextmanager
    def counting_lapack(self):
        """Wrap the LAPACK entry points for the duration of the block."""
        saved = {}
        for label, (module, attr, flops) in LAPACK.items():
            saved[label] = original = getattr(module, attr)
            setattr(module, attr, self._wrap(label, original, flops))
        try:
            yield
        finally:
            for label, (module, attr, _) in LAPACK.items():
                setattr(module, attr, saved[label])

    def _wrap(self, label, original, flops):
        def wrapper(*args, **kwargs):
            if not self.active():
                return original(*args, **kwargs)
            graph_id = self.spans[self._stack[-1]].graph_id
            with self.span(f"linalg.lapack.{label}", graph_id,
                           flops(*args, **kwargs) / 1e9):
                return original(*args, **kwargs)
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "graph": s.graph_id, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_seconds,
                    "gflop_computed": s.gflop,
                }) + "\n")
