"""Command-line interface: generate, color, verify.

:func:`main` is the ``edgecolor`` console script installed by ``pip``;
``python -m edgecolor`` runs the same function without an install.

Exit codes, shared by all subcommands:

* 0 - success (for ``verify``: the coloring is proper within the palette)
* 1 - improper coloring: ``verify`` found violations, or ``color``
      produced output that failed its own re-verification (the latter is
      a bug sentinel and should never happen)
* 2 - bad input: parse errors, infeasible generator parameters, I/O
      failures, an output path that is the input file or another output

The seed is ``--seed``, 0 by default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TextIO

from .bench import ALGORITHMS, build_report, run_coloring
from .coloring import format_coloring, parse_coloring, verify_colors
from .generators import FAMILIES, GenSpec, generate
from .graph import read_edge_list, write_edge_list

def _open_input(path: Path) -> TextIO:
    """Open a text input as UTF-8, whatever the locale.

    Bytes that are not UTF-8 reach the parser as lone surrogates, and it
    rejects the line that holds them by number.
    """
    return path.open(encoding="utf-8", errors="surrogateescape")


def _same_file(a: Path, b: Path) -> bool:
    """True when both paths name one file, existing or not, through links too."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return a.samefile(b)  # hard links
    except OSError:  # either is missing or unreadable, so not the same file
        return False


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecolor",
        description="Generate graphs, color their edges with max_degree + 1 "
        "colors, and verify colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a generated graph as an edge list")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--m", type=int, help="edge count (erdos-renyi)")
    p.add_argument("--alpha", type=int, help="forest count (forest families)")
    p.add_argument("--degree", type=int, help="attachment degree (preferential-attachment)")
    p.add_argument("--rows", type=int, help="grid rows")
    p.add_argument("--cols", type=int, help="grid columns")
    p.add_argument("--star-leaves", type=int, dest="star_leaves",
                   help="star size override (star-plus-forests)")
    p.add_argument("--forest-edges", type=int, dest="forest_edges",
                   help="forest edge budget override (star-plus-forests)")
    _add_seed(p)
    p.add_argument("-o", "--out", type=Path, help="output path (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("color", help="color an edge-list file and report")
    p.add_argument("input", type=Path, help="edge-list file")
    p.add_argument("--algo", choices=ALGORITHMS, default="color-edges")
    _add_seed(p)
    p.add_argument("--dump", type=Path,
                   help="coloring dump path (default: input with .colors suffix)")
    p.add_argument("--report", type=Path, help="also write the JSON report here")
    p.add_argument("--trace", action="store_true",
                   help="add step summaries (naive, color-edges) or level stats "
                   "(recursive) to the report")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring dump against its graph")
    p.add_argument("graph", type=Path, help="edge-list file")
    p.add_argument("coloring", type=Path, help="coloring dump file")
    p.add_argument("--palette", type=int,
                   help="allowed number of colors (default: max_degree + 1)")
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        m=args.m,
        alpha=args.alpha,
        degree=args.degree,
        rows=args.rows,
        cols=args.cols,
        star_leaves=args.star_leaves,
        forest_edges=args.forest_edges,
        seed=args.seed,
    )
    text = write_edge_list(generate(spec))
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    dump_path = args.dump if args.dump is not None else args.input.with_suffix(".colors")
    named = [("the input file", args.input), ("the dump", dump_path)]
    if args.report is not None:
        named.append(("the report", args.report))
    for i, (_, out) in enumerate(named):
        for what, earlier in named[:i]:
            if _same_file(out, earlier):
                raise ValueError(f"output path {out} would overwrite {what}")
    with _open_input(args.input) as fh:
        g = read_edge_list(fh)
    result = run_coloring(g, args.algo, args.seed, trace=args.trace)
    report = build_report(g, result, {"path": str(args.input)})
    dump_path.write_text(format_coloring(result.chi))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.report is not None:
        args.report.write_text(text)
    return 0 if report["ok"] else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.palette is not None and args.palette < 0:
        raise ValueError(f"--palette must be non-negative, got {args.palette}")
    with _open_input(args.graph) as fh:
        g = read_edge_list(fh)
    with _open_input(args.coloring) as fh:
        colors = parse_coloring(fh, g.m)
    palette = args.palette if args.palette is not None else g.max_degree + 1
    verdict = verify_colors(g, colors, palette)
    print(f"palette {palette}: colors used {verdict.colors_used}, "
          f"max color {verdict.max_color}, uncolored {verdict.uncolored}")
    for v in verdict.violations:
        if v.kind == "duplicate-color":
            print(f"violation: vertex {v.vertex} has color {v.color} "
                  f"on edges {v.edges[0]} and {v.edges[1]}")
        else:
            print(f"violation: edge {v.edges[0]} has out-of-range color {v.color}")
    print("proper" if verdict.proper else "improper")
    return 0 if verdict.proper else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
