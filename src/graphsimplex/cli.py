"""Command-line front end.

Reads a weighted graph from an edge-list file (or stdin with ``-``) and
prints matrices or check reports. Matrix output is TSV with a label header
by default, or JSON with ``--format json``. Exit status: 0 on success,
1 when a check subcommand finds a failure, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import resistance, schur, simplex
from .config import DEFAULT
from .errors import GraphSimplexError, UnknownLabelError
from .graphs import (
    LaplacianMatrix,
    WeightedGraph,
    build_laplacian,
    parse_graph,
    spanning_tree_count,
)

TSV_DIGITS = 12
JSON_DIGITS = 17


def _fmt(value: float, digits: int) -> str:
    return format(float(value), f".{digits}g")


# one %-template per row: "%.12g" % v prints exactly what _fmt(v, 12) does
def _matrix_tsv(labels, matrix) -> str:
    rows = np.atleast_2d(matrix).tolist()
    row = "\t".join([f"%.{TSV_DIGITS}g"] * len(rows[0]))
    return "\n".join(["\t".join(labels)] + [row % tuple(r) for r in rows]) + "\n"


def _matrix_json(labels, matrix) -> str:
    rows = np.atleast_2d(matrix).tolist()
    row = "[" + ", ".join([f"%.{JSON_DIGITS}g"] * len(rows[0])) + "]"
    body = ", ".join(row % tuple(r) for r in rows)
    return '{"labels": %s, "rows": [%s]}\n' % (json.dumps(list(labels)), body)


def _emit_matrix(args, labels, matrix) -> None:
    writer = _matrix_json if args.format == "json" else _matrix_tsv
    sys.stdout.write(writer(labels, matrix))


def _read_graph(path: str) -> WeightedGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
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


def cmd_laplacian(args, g: WeightedGraph, q: LaplacianMatrix) -> int:
    _emit_matrix(args, g.labels, q.matrix)
    return 0


def cmd_pinv(args, g, q) -> int:
    _emit_matrix(args, g.labels, q.pinv)
    return 0


def cmd_resistance(args, g, q) -> int:
    _emit_matrix(args, g.labels, resistance.resistance_matrix(q))
    return 0


def cmd_embed(args, g, q) -> int:
    emb = simplex.embed_from_laplacian(q)
    _emit_matrix(args, g.labels, emb.vertices)
    return 0


def cmd_angles(args, g, q) -> int:
    tol = DEFAULT if args.tol is None else DEFAULT.with_validation(args.tol)
    cls = simplex.dihedral_angles(q, tol)
    rows = cls.pair_rows()
    if args.format == "json":
        names = [json.dumps(label) for label in g.labels]
        pairs = ", ".join(
            '{"i": %s, "j": %s, "cosine": %s, "label": "%s"}'
            % (names[a], names[b], _fmt(c, JSON_DIGITS), label)
            for a, b, c, label in rows
        )
        sys.stdout.write('{"pairs": [%s]}\n' % pairs)
    else:
        names = g.labels
        sys.stdout.write("".join(
            f"{names[a]}\t{names[b]}\t{_fmt(c, TSV_DIGITS)}\t{label}\n"
            for a, b, c, label in rows
        ))
    return 0


def cmd_reduce(args, g, q) -> int:
    keep = _resolve_labels(g, args.keep)
    reduced = schur.schur_complement(q, keep)
    _emit_matrix(args, [g.labels[i] for i in keep], reduced.matrix)
    return 0


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


def cmd_volume(args, g, q) -> int:
    emb = simplex.embed_from_laplacian(q)
    vol = simplex.cayley_menger_volume(emb.squared_distances())
    digits = JSON_DIGITS if args.format == "json" else TSV_DIGITS
    sys.stdout.write(_fmt(vol, digits) + "\n")
    return 0


def cmd_verify_identity(args, g, q) -> int:
    report = resistance.verify_fiedler_identity(q)
    threshold = args.tol if args.tol is not None else DEFAULT.residual
    ok = report.passed(threshold)
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


def cmd_spanning_trees(args, g, q) -> int:
    count = spanning_tree_count(q)
    digits = JSON_DIGITS if args.format == "json" else TSV_DIGITS
    sys.stdout.write(_fmt(count, digits) + "\n")
    return 0


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


_COMMANDS = {
    "laplacian": cmd_laplacian,
    "pinv": cmd_pinv,
    "resistance": cmd_resistance,
    "embed": cmd_embed,
    "angles": cmd_angles,
    "reduce": cmd_reduce,
    "metric-check": cmd_metric_check,
    "volume": cmd_volume,
    "verify-identity": cmd_verify_identity,
    "spanning-trees": cmd_spanning_trees,
    "blocks": cmd_blocks,
}


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
            p.add_argument("--tol", type=float, default=None,
                           help="relative sign dead-band of the angle labels "
                                "(default %g)" % DEFAULT.validation)
        if name == "verify-identity":
            p.add_argument("--tol", type=float, default=None,
                           help="pass threshold of the identity residual "
                                "(default %g)" % DEFAULT.residual)
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
    except (GraphSimplexError, OSError, UnicodeDecodeError, OverflowError,
            MemoryError) as exc:
        print(f"graphsimplex: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
