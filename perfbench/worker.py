"""One workload in its own process, so that peak RSS belongs to it.

The worker sets up (imports the library, generates inputs, warms up),
prints ``READY``, measures for the given number of seconds in a closed loop
with one client, and prints one JSON line with the raw results. ``run.py``
starts it and turns those results into metrics.

Workloads (all closed loop, one client, one process, one BLAS thread as
``run.py`` sets it):

- ``dense``: a few seeded graphs at n = 1000 (a tree plus 2n extra links,
  the ROADMAP fixture), each through the whole pipeline. O(n^3) LAPACK
  work, n^2 Python loops and n^3 memory dominate; parsing and start-up are
  negligible. The ROADMAP's n = 2000 is left out: one graph takes ~30 s
  (most of it in ``cayley_menger_volume``'s Python LU and in
  ``check_quotient``), too long for a run of a few tens of seconds.
- ``cli``: sequential ``graphsimplex`` subprocess calls of all 11
  subcommands on generated edge-list files, two thirds at n = 50 and
  n = 200 and one third at n = 1000. Every call pays interpreter and import
  start-up and does one op on a fresh Laplacian, so caching a shared
  factorisation can only cost here; at n = 1000 the TSV formatting of n^2
  entries shows. ``metric-check`` never sees more than 200 nodes.

A ``corpus`` workload (a seeded stream of small graphs, n uniform in 2..50,
each through the whole pipeline, where per-call Python and small-matrix
BLAS overhead dominate) was tried and left out: on a shared 2-core host its
interquartile range over ten seeds reached 30% of the median, above any
usable regression bound. Its ops stay measured on ``dense``, and ``cli``
runs the whole pipeline in-process on its n = 50 and n = 200 graphs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

DENSE_N = 1000
WARMUP_N = 200  # the first n = 200 pipeline in a process is ~4x slower
CLI_SIZES = (50, 200, 1000)  # call k runs at CLI_SIZES[k % 3], one graph each
CLI_METRIC_N = 200  # metric-check at the n = 1000 slot runs at this size
CALL_TIMEOUT_S = 60
STARTUP_REPS = 3


def library_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
        "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _op_label(key: str) -> str:
    from pipeline import OPS

    return f"{OPS[key].layer}.{OPS[key].name}"


class OpTally:
    """Calls and failures per library op, summed over checked cases."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.reasons: dict[str, str] = {}
        self.graphs = 0

    def add(self, case) -> None:
        self.graphs += 1
        for key in case.seconds:
            label = _op_label(key)
            self.calls[label] += 1
            if key in case.failed:
                self.failed[label] += 1
                self.reasons.setdefault(label, case.failed[key])


class LibraryWorkload:
    """``dense``: one item is one graph through the pipeline."""

    cycle = 1

    def __init__(self, seed: int):
        import inputs
        import pipeline

        self.pipeline = pipeline
        self.spec = lambda k: inputs.sized_graph(seed, k, DENSE_N)
        warm = pipeline.Case(inputs.warmup_graph(seed, WARMUP_N))
        pipeline.run_pipeline(warm)
        pipeline.check_pipeline(warm)
        self.tally = OpTally()
        self._spec_cache = (None, None)

    def execute(self, k: int, tracer):
        if self._spec_cache[0] != k:
            self._spec_cache = (k, self.spec(k))
        spec = self._spec_cache[1]
        case = self.pipeline.Case(spec, tracer)
        if tracer is None:
            return self.pipeline.run_pipeline(case), case
        with tracer.counting_lapack(), tracer.span("pipeline", spec.graph_id):
            seconds = self.pipeline.run_pipeline(case)
        return seconds, case

    def check(self, k: int, case) -> tuple[int, int]:
        self.pipeline.check_pipeline(case)
        self.tally.add(case)
        return len(case.seconds), len(case.failed)

    def finish(self) -> dict:
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


class CliWorkload:
    """``cli``: one item is one ``graphsimplex`` subprocess call. A cycle
    calls every subcommand once at every size."""

    def __init__(self, seed: int, tracer):
        import cli_check
        import inputs
        import pipeline

        self.cli_check = cli_check
        self.pipeline = pipeline
        self.tracer = tracer
        self.dir = WORK / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.graphs: dict[int, tuple[Path, object]] = {}
        for n in CLI_SIZES:
            spec = inputs.sized_graph(seed, 0, n)
            path = self.dir / f"{spec.graph_id}.txt"
            path.write_text(spec.text, encoding="utf-8")
            self.graphs[n] = (path, pipeline.Case(spec, tracer))
        self.env = library_env()
        self.cycle = len(cli_check.SUBCOMMANDS) * len(CLI_SIZES)
        self.calls: list[tuple[str, int, float]] = []  # (subcommand, n, seconds)
        self.stdout_bytes = 0
        self.full: set[str] = set()
        self.failed: dict[str, int] = defaultdict(int)
        self.reasons: dict[str, str] = {}

    def _call(self, k: int):
        subs = self.cli_check.SUBCOMMANDS
        sub = subs[k % len(subs)]
        n = CLI_SIZES[k % len(CLI_SIZES)]
        if sub == "metric-check":
            n = min(n, CLI_METRIC_N)
        return sub, *self.graphs[n]

    def execute(self, k: int, tracer):
        sub, path, case = self._call(k)
        args = self.cli_check.extra_args(case, sub, k // len(self.cli_check.SUBCOMMANDS))
        argv = [sys.executable, "-m", "graphsimplex.cli", sub, str(path), *args]
        span = tracer.span(f"cli.{sub}", case.spec.graph_id) if tracer else nullcontext()
        t0 = perf_counter()
        with span:
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                                      cwd=ROOT, timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:  # killed and reaped by run()
                proc = subprocess.CompletedProcess(argv, -9, "", f"timed out after "
                                                   f"{CALL_TIMEOUT_S} s")
        seconds = perf_counter() - t0
        self.calls.append((sub, case.spec.n, seconds))
        self.stdout_bytes += len(proc.stdout)
        return seconds, (sub, args, case, proc)

    def check(self, k: int, payload) -> tuple[int, int]:
        sub, args, case, proc = payload
        reason = None
        with self.tracer.counting_lapack() if self.tracer else nullcontext():
            if case.spec.n <= CLI_METRIC_N and case.spec.graph_id not in self.full:
                # small graphs: the whole pipeline is the reference, checked too
                self.full.add(case.spec.graph_id)
                self.pipeline.run_pipeline(case)
            if proc.returncode != 0:
                tail = (proc.stderr.strip().splitlines() or [""])[-1]
                reason = f"exit {proc.returncode}: {tail}"
            else:
                try:
                    self.cli_check.compare(case, sub, args, proc.stdout)
                except (self.pipeline.CheckFailed, ValueError, KeyError,
                        IndexError) as exc:
                    reason = f"{type(exc).__name__}: {exc}"
        if reason:
            self.failed[sub] += 1
            self.reasons.setdefault(sub, reason)
        return 1, int(reason is not None)

    def finish(self) -> dict:
        tally = OpTally()
        for _, case in self.graphs.values():
            if case.seconds:
                with self.tracer.counting_lapack() if self.tracer else nullcontext():
                    self.pipeline.check_pipeline(case)
                tally.add(case)
        self.tally = tally
        shutil.rmtree(self.dir, ignore_errors=True)
        by_sub, by_size = defaultdict(list), defaultdict(list)
        for sub, n, seconds in self.calls:
            by_sub[sub].append(seconds)
            by_size[f"{sub} n={n}"].append(seconds)
        return {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "cli_ms_p50_by_sub": {k: (1000 * median(v), len(v)) for k, v in by_sub.items()},
            "cli_ms_p50_by_size": {k: (1000 * median(v), len(v)) for k, v in by_size.items()},
            "cli_failed_by_sub": dict(self.failed),
            "cli_fail_reasons": self.reasons,
            "cli_stdout_mb": self.stdout_bytes / 1e6 / max(len(self.calls), 1),
        }


def startup_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=library_env(),
                       cwd=ROOT, timeout=CALL_TIMEOUT_S)
        times.append(1000 * (perf_counter() - t0))
    return median(times)


def measure(workload, seconds: float, tracer) -> dict:
    """Closed loop: the next item starts when the previous one is checked,
    until the next cycle of items would end past ``seconds`` (at least one
    cycle runs, so every run measures the same mix). Traced runs execute each
    item untraced and traced (alternating which goes first) and check the
    traced answer; the ratio of the two is the tracing overhead."""
    item_s, traced_s = [], []
    attempted = failed = 0
    start = perf_counter()
    k = 0
    while True:
        if tracer is None:
            t, payload = workload.execute(k, None)
        else:
            order = (None, tracer) if k % 2 == 0 else (tracer, None)
            for tr in order:
                seconds_k, result = workload.execute(k, tr)
                if tr is None:
                    t = seconds_k
                else:
                    payload, t_traced = result, seconds_k
            traced_s.append(t_traced)
        a, f = workload.check(k, payload)
        attempted += a
        failed += f
        item_s.append(t)
        k += 1
        elapsed = perf_counter() - start
        if k % workload.cycle == 0 and elapsed + elapsed / k * workload.cycle > seconds:
            break
    return {"item_s": item_s, "traced_s": traced_s, "attempted": attempted,
            "failed": failed}


def trace_summary(tracer, tally: OpTally) -> dict:
    """Per-layer figures from the spans: op busy and self time, LAPACK calls,
    and how much of each traced pipeline the op spans account for."""
    from spans import LAPACK

    busy = defaultdict(float)
    self_s = defaultdict(float)
    lapack = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "gflop": 0.0})
    pipeline_s = accounted_s = 0.0
    for s in tracer.spans:
        if s.name.startswith("linalg.lapack."):
            rec = lapack[s.name.rsplit(".", 1)[1]]
            rec["calls"] += 1
            rec["seconds"] += s.seconds
            rec["gflop"] += s.gflop
        elif s.name == "pipeline":
            pipeline_s += s.seconds
            accounted_s += s.children_s
        else:
            busy[s.name] += s.seconds
            self_s[s.name] += s.self_seconds
    return {
        "graphs": tally.graphs,
        "ops": {label: {"calls": tally.calls[label], "failed": tally.failed[label],
                        "busy_s": busy[label], "self_s": self_s[label]}
                for label in sorted(tally.calls)},
        "lapack": {label: lapack[label] for label in LAPACK},
        "pipeline_s": pipeline_s,
        "accounted_s": accounted_s,
        "cli_busy_s": {k: v for k, v in busy.items() if k.startswith("cli.")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("dense", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload == "cli":
        workload = CliWorkload(args.seed, tracer)
    else:
        workload = LibraryWorkload(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        if args.workload == "cli":
            shutil.rmtree(workload.dir, ignore_errors=True)
        return 0

    result = measure(workload, args.seconds, tracer)
    result.update(workload.finish())
    result["env"] = environment(args.seed)
    from pipeline import OPS

    result["op_labels"] = list(dict.fromkeys(_op_label(key) for key in OPS))
    result["op_failed"] = dict(workload.tally.failed)
    result["op_fail_reasons"] = workload.tally.reasons
    if tracer:
        result["trace"] = trace_summary(tracer, workload.tally)
        result["cli_interpreter_ms"] = startup_ms("pass")
        result["cli_import_ms"] = startup_ms("import graphsimplex.cli")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
