"""Command-line front end.

Reads a weighted graph from an edge-list file (or stdin with ``-``) and
prints matrices or check reports. Matrix output is TSV with a label header
by default, or JSON with ``--format json``. Exit status: 0 on success,
1 when a check subcommand finds a failure, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice

import numpy as np

from . import resistance, schur, simplex
from .config import DEFAULT, Tolerances
from .errors import GraphSimplexError, UnknownLabelError
from .graphs import (
    WeightedGraph,
    build_laplacian,
    parse_graph,
    spanning_tree_count,
)

TSV_DIGITS = 12
JSON_DIGITS = 17
# angle lines per write: one write per line doubles the TSV time, and one
# write for all of them holds n(n-1)/2 lines in memory
ANGLE_LINES_PER_WRITE = 4096


def _fmt(value: float, digits: int) -> str:
    return format(float(value), f".{digits}g")


def _separated(pieces, sep: str):
    """The pieces with ``sep`` put before each one but the first."""
    lead = ""
    for piece in pieces:
        yield lead + piece
        lead = sep


def _matrix(labels, matrix, fmt: str):
    """The matrix as text pieces, made lazily: the header, then one per row."""
    # one %-template per row: "%.12g" % v prints exactly what _fmt(v, 12) does
    rows = np.atleast_2d(matrix)
    if fmt == "json":
        row = "[" + ", ".join([f"%.{JSON_DIGITS}g"] * rows.shape[1]) + "]"
        yield '{"labels": %s, "rows": [' % json.dumps(list(labels))
        yield from _separated((row % tuple(r.tolist()) for r in rows), ", ")
        yield "]}\n"
    else:
        row = "\t".join([f"%.{TSV_DIGITS}g"] * rows.shape[1]) + "\n"
        yield "\t".join(labels) + "\n"
        yield from (row % tuple(r.tolist()) for r in rows)


def _write(pieces, per_write: int = 1) -> None:
    """Write the text pieces to stdout ``per_write`` at a time, so only
    that many are held at once."""
    pieces = iter(pieces)
    while chunk := list(islice(pieces, per_write)):
        sys.stdout.write("".join(chunk))


def _emit_matrix(args, labels, matrix) -> int:
    _write(_matrix(labels, matrix, args.format))
    return 0


def _emit_scalar(args, value) -> int:
    digits = JSON_DIGITS if args.format == "json" else TSV_DIGITS
    sys.stdout.write(_fmt(value, digits) + "\n")
    return 0


def _read_graph(path: str) -> WeightedGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_graph(text)


def _resolve_labels(g: WeightedGraph, spec: str) -> list[int]:
    index = g.label_index
    idx = []
    for label in spec.split(","):
        label = label.strip()
        if label not in index:
            raise UnknownLabelError(f"unknown node label {label!r}")
        idx.append(index[label])
    return idx


def cmd_angles(args, g, q) -> int:
    rows = simplex.dihedral_angles(q, Tolerances(args.tol)).pair_rows()
    if args.format == "json":
        names = [json.dumps(label) for label in g.labels]
        pairs = ('{"i": %s, "j": %s, "cosine": %s, "label": "%s"}'
                 % (names[a], names[b], _fmt(c, JSON_DIGITS), label)
                 for a, b, c, label in rows)
        lines = chain(['{"pairs": ['], _separated(pairs, ", "), ["]}\n"])
    else:
        names = g.labels
        lines = (f"{names[a]}\t{names[b]}\t{_fmt(c, TSV_DIGITS)}\t{label}\n"
                 for a, b, c, label in rows)
    _write(lines, ANGLE_LINES_PER_WRITE)
    return 0


def cmd_reduce(args, g, q) -> int:
    keep = _resolve_labels(g, args.keep)
    reduced = schur.schur_complement(q, keep)
    return _emit_matrix(args, [g.labels[i] for i in keep], reduced.matrix)


def cmd_metric_check(args, g, q) -> int:
    mode = "sqrt" if args.sqrt else "plain"
    report = resistance.check_metric(resistance.resistance_matrix(q), mode)
    if args.format == "json":
        sys.stdout.write(
            '{"mode": "%s", "violations": %d, "passed": %s}\n'
            % (report.mode, report.violations, "true" if report.passed else "false")
        )
    else:
        sys.stdout.write(f"{report.violations} violations (mode {report.mode})\n")
        if report.worst_triple is not None:
            i, j, k = report.worst_triple
            sys.stdout.write(
                f"worst: ({g.labels[i]}, {g.labels[j]}, {g.labels[k]}) "
                f"deficit {_fmt(report.worst_slack, TSV_DIGITS)}\n"
            )
    return 0 if report.passed else 1


def cmd_verify_identity(args, g, q) -> int:
    report = resistance.verify_fiedler_identity(q)
    ok = report.passed(args.tol)
    if args.format == "json":
        sys.stdout.write(
            '{"residual_ab": %s, "residual_ba": %s, "passed": %s}\n'
            % (_fmt(report.residual_ab, JSON_DIGITS),
               _fmt(report.residual_ba, JSON_DIGITS),
               "true" if ok else "false")
        )
    else:
        sys.stdout.write(
            f"residual_ab\t{_fmt(report.residual_ab, TSV_DIGITS)}\n"
            f"residual_ba\t{_fmt(report.residual_ba, TSV_DIGITS)}\n"
        )
    return 0 if ok else 1


def cmd_blocks(args, g, q) -> int:
    fb = resistance.fiedler_blocks(q)
    if args.format == "json":
        sys.stdout.write(
            '{"zeta": [%s], "r": [%s], "R": %s}\n'
            % (", ".join(_fmt(v, JSON_DIGITS) for v in fb.zeta),
               ", ".join(_fmt(v, JSON_DIGITS) for v in fb.r),
               _fmt(fb.radius, JSON_DIGITS))
        )
    else:
        sys.stdout.write("zeta\t" + "\t".join(_fmt(v, TSV_DIGITS) for v in fb.zeta) + "\n")
        sys.stdout.write("r\t" + "\t".join(_fmt(v, TSV_DIGITS) for v in fb.r) + "\n")
        sys.stdout.write("R\t" + _fmt(fb.radius, TSV_DIGITS) + "\n")
    return 0


# subcommand -> handler(args, graph, laplacian), which returns the exit status
_COMMANDS = {
    "laplacian": lambda args, g, q: _emit_matrix(args, g.labels, q.matrix),
    "pinv": lambda args, g, q: _emit_matrix(args, g.labels, q.pinv),
    "resistance": lambda args, g, q: _emit_matrix(
        args, g.labels, resistance.resistance_matrix(q)),
    "embed": lambda args, g, q: _emit_matrix(
        args, g.labels, simplex.embed_from_laplacian(q).vertices),
    "angles": cmd_angles,
    "reduce": cmd_reduce,
    "metric-check": cmd_metric_check,
    "volume": lambda args, g, q: _emit_scalar(args, simplex.cayley_menger_volume(
        simplex.embed_from_laplacian(q).squared_distances())),
    "verify-identity": cmd_verify_identity,
    "spanning-trees": lambda args, g, q: _emit_scalar(args, spanning_tree_count(q)),
    "blocks": cmd_blocks,
}


def tolerance(text: str) -> float:
    """The ``--tol`` type: a finite number >= 0, else a usage error (exit 2)."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsimplex",
        description="Laplacians, effective resistances and simplex geometry "
                    "of weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", default="-",
                       help="edge-list file, or - for stdin (default)")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        if name == "angles":
            p.add_argument("--tol", type=tolerance, default=DEFAULT.validation,
                           help="relative sign dead-band of the angle labels "
                                "(default %(default)g)")
        if name == "verify-identity":
            p.add_argument("--tol", type=tolerance, default=DEFAULT.residual,
                           help="pass threshold of the identity residual "
                                "(default %(default)g)")
        if name == "reduce":
            p.add_argument("--keep", required=True,
                           help="comma-separated node labels to keep")
        if name == "metric-check":
            p.add_argument("--sqrt", action="store_true",
                           help="check sqrt of the resistances instead")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        graph = _read_graph(args.input)
        q = build_laplacian(graph)
        return _COMMANDS[args.command](args, graph, q)
    except (GraphSimplexError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"graphsimplex: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
