"""graphsimplex benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload {dense,cli} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the library from
``src/``. Each workload runs in its own worker process (``worker.py``),
which is started ``SETUP_REPS`` times: all but the last only set up, the
last also measures. ``setup_s`` is the median time from process start to
the end of set-up (import, input generation, warm-up).

Prints a readable report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a separate traced
run with ``--trace 1``. An op counts as failed if it raises, exits
non-zero, or returns an answer the benchmark's check rejects; the
baseline's known defects are counted there, not filtered out. ``correct``
is false as soon as any other op fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
# One BLAS thread for the workers and the CLI processes they start. On a
# shared 2-core host a second OpenBLAS thread made the throughput of a stream
# of small graphs swing about 3x more from run to run (six alternating
# pairs: +-19% against +-6%).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_TIMEOUT_S = 170  # the whole command must end within 180 s
# The baseline's known defects, as op labels and ``cli.<subcommand>``: they
# count in ``failed`` like any other failure, but only a failure outside
# this set makes a run incorrect.
KNOWN_DEFECTS = frozenset({"simplex.cayley_menger_volume", "graphs.spanning_tree_count",
                           "cli.volume", "cli.spanning-trees"})
LAYERS = ("graphs", "linalg", "resistance", "schur", "simplex")


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker; return (seconds until it printed READY, process)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **BLAS_ENV})
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    proc.watchdog = timer
    if proc.stdout.readline().strip() != "READY":
        finish_worker(proc)
        raise WorkerError("worker failed during set-up")
    return perf_counter() - t0, proc


def finish_worker(proc) -> str:
    """Wait for the worker to exit; return its remaining output."""
    try:
        out = proc.stdout.read()
        if proc.wait() != 0:
            raise WorkerError(f"worker exited with status {proc.returncode}")
        return out
    finally:
        proc.watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def tail_ms(samples_s: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it, if that
    is above the median."""
    n = len(samples_s)
    if n < 20:
        return None
    return f"p{100.0 * (n - 10) / n:.1f}", 1000 * sorted(samples_s)[n - 11]


def end_to_end(setup_s: list[float], res: dict) -> dict[str, tuple[float, str]]:
    items = res["item_s"]
    return {
        "setup_s": (median(setup_s), "s"),
        "requests_per_s": (len(items) / sum(items), "1/s"),
        "request_ms_p50": (1000 * median(items), "ms"),
        "ops_ok_ratio": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict[str, tuple[float, str]]:
    tr = res["trace"]
    graphs = max(tr["graphs"], 1)
    out: dict[str, tuple[float, str]] = {}
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_failed = dict.fromkeys(LAYERS, 0)
    for label in res["op_labels"]:
        op = tr["ops"].get(label, {"calls": 0, "failed": 0, "busy_s": 0.0})
        calls = op["calls"]
        out[f"{label}.calls"] = (calls, "count")
        out[f"{label}.busy_ms"] = (1000 * op["busy_s"] / max(calls, 1), "ms")
        out[f"{label}.failed"] = (op["failed"], "count")
        layer = label.split(".")[0]
        layer_calls[layer] += calls
        layer_failed[layer] += op["failed"]
    for layer in LAYERS:
        ok = layer_calls[layer] - layer_failed[layer]
        out[f"{layer}.ok_ratio"] = (ok / max(layer_calls[layer], 1), "ratio")
    total_calls = 0
    for fn, rec in tr["lapack"].items():  # every entry point spans.LAPACK wraps
        total_calls += rec["calls"]
        out[f"linalg.lapack.{fn}.calls"] = (rec["calls"] / graphs, "count")
        out[f"linalg.lapack.{fn}.busy_ms"] = (1000 * rec["seconds"] / graphs, "ms")
        out[f"linalg.lapack.{fn}.gflop_computed"] = (rec["gflop"] / graphs, "GFLOP")
    out["linalg.factorizations_per_graph"] = (total_calls / graphs, "count")
    out["cli.interpreter_ms"] = (res["cli_interpreter_ms"], "ms")
    out["cli.import_ms"] = (res["cli_import_ms"], "ms")
    return out


def unexpected_failures(res: dict) -> list[str]:
    failed = set(res["op_failed"]) | {f"cli.{sub}" for sub in res.get("cli_failed_by_sub", {})}
    return sorted(failed - KNOWN_DEFECTS)


def report(args, setup_s: list[float], res: dict) -> list[str]:
    """The readable report: every end-to-end figure under its own name
    (graphs_per_s, graph_ms_tail, cli_ms_p50, ...), with units and sample
    counts, plus the run environment."""
    env = res["env"]
    items = res["item_s"]
    lines = [
        f"graphsimplex benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
        "load: closed loop, 1 client, 1 process; layers run synchronously, so "
        "no layer waits on another and there is no wait metric",
        f"setup_s          {median(setup_s):.4f} s   (median of {len(setup_s)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setup_s) + ")",
    ]
    unit = "cli" if args.workload == "cli" else "graph"
    noun = "calls" if unit == "cli" else "graphs"
    if unit == "graph":
        lines.append(f"graphs_per_s     {len(items) / sum(items):.4f} 1/s "
                     f"({len(items)} graphs, {sum(items):.2f} s in the pipeline)")
    lines.append(f"{unit}_ms_p50     {1000 * median(items):.3f} ms  ({len(items)} {noun})")
    tail = tail_ms(items)
    lines.append(f"{unit}_ms_tail    " + (f"{tail[1]:.3f} ms at {tail[0]} ({len(items)} {noun}, "
                                          "10 beyond)" if tail else
                                          f"omitted: {len(items)} {noun} are too few"))
    lines.append(f"ops_failed_ratio {res['failed'] / res['attempted']:.6f} "
                 f"({res['failed']} failed / {res['attempted']} attempted ops)")
    lines.append("unexpected failures: " + (", ".join(unexpected_failures(res)) or
                                            "none (only the known defects fail)"))
    lines.append(f"peak_rss_mb      {res['peak_rss_mb']:.1f} MB "
                 + ("(largest child process)" if unit == "cli" else "(worker process)"))
    for sub, count in sorted(res.get("cli_failed_by_sub", {}).items()):
        lines.append(f"failed call {sub}: {count} ({res['cli_fail_reasons'][sub][:100]})")
    kind = "in-process reference op" if unit == "cli" else "op"
    for label, count in sorted(res["op_failed"].items()):
        lines.append(f"failed {kind} {label}: {count} "
                     f"({res['op_fail_reasons'][label][:100]})")
    if unit == "cli":
        for sub, (ms, count) in sorted(res["cli_ms_p50_by_sub"].items()):
            lines.append(f"cli.{sub}.ms_p50 {ms:.1f} ms ({count} calls)")
        for call, (ms, count) in sorted(res["cli_ms_p50_by_size"].items()):
            lines.append(f"  {call}: {ms:.1f} ms ({count} calls)")
        lines.append(f"cli.stdout_mb    {res['cli_stdout_mb']:.3f} MB per call")
    if args.trace:
        tr = res["trace"]
        traced, plain = sum(res["traced_s"]), sum(items)
        lines.append(f"trace overhead   {traced / plain:.4f} x "
                     f"(traced {traced:.3f} s vs untraced {plain:.3f} s, same items)")
        if tr["pipeline_s"]:
            lines.append(f"trace accounted  {tr['accounted_s'] / tr['pipeline_s']:.4f} "
                         f"of {tr['pipeline_s']:.3f} s of traced pipeline wall time is "
                         "covered by op spans (self time + LAPACK children)")
        by_self = sorted(tr["ops"].items(), key=lambda kv: -kv[1]["self_s"])
        for label, op in by_self[:8]:
            lines.append(f"self_ms {label}: {1000 * op['self_s'] / max(tr['graphs'], 1):.2f} "
                         "ms per graph")
        for fn, rec in sorted(tr["lapack"].items()):
            lines.append(f"linalg.lapack.{fn}: {rec['calls'] / max(tr['graphs'], 1):.2f} "
                         f"calls, {rec['gflop'] / max(tr['graphs'], 1):.4f} GFLOP computed "
                         "per graph")
        for name, secs in sorted(tr["cli_busy_s"].items()):
            lines.append(f"{name}.busy_ms {1000 * secs:.1f} ms in total")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphsimplex benchmark")
    parser.add_argument("--workload", choices=("dense", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "graphsimplex" / "__init__.py").is_file():
        print(f"perfbench: no graphsimplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        setup_s = []
        for _ in range(SETUP_REPS - 1):
            seconds, proc = start_worker(args, True, deadline)
            finish_worker(proc)
            setup_s.append(seconds)
        seconds, proc = start_worker(args, False, deadline)
        setup_s.append(seconds)
        res = json.loads(finish_worker(proc).strip().splitlines()[-1])
    except (WorkerError, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(res) if args.trace else end_to_end(setup_s, res)
    for line in report(args, setup_s, res):
        print(line)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(res, setup_s=setup_s, metrics=metrics)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        # every answer was checked: wrong ones count in `failed`, and any
        # failure beyond the known defects makes the run incorrect
        "correct": res["attempted"] > 0 and not unexpected_failures(res),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
