"""Command-line front end for models, classification, probes, and figures.

Commands:
  closure   print the rewrite trace and verdict for one model
  classify  enumerate Missing(n) classes and report the equivalence split
  probe     equality probes for local minimality of a small-constraint set
  solve     run the backtracking solver on one problem instance
  figure    draw a model (ASCII or SVG), or sheets for a whole run
  catalog   print the minimal negative catalog

Exit codes: 0 success, 1 usage error, 2 unresolved classes, 3 I/O failure.
Repeat runs with the same arguments produce byte-identical JSON except for
the elapsed-seconds field of classification reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .board import Board, ConstraintSet, parse_missing
from .pipeline import minimal_catalog, run_classification
from .rewrite import closure
from .smalls import (CONFIRMED_NEEDED, DEFAULT_PROBE_BUDGET, INCONCLUSIVE,
                     REDUNDANT, expand_small, probe_minimality, sample_probes)
from .solver import (DEFAULT_NODE_BUDGET, SolverProblem, parse_puzzle_line,
                     read_corpus, solve)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_IO = 3

CORPUS_ENV = "REDOKU_CORPUS"

# Sentinel: --corpus given without a path, meaning "use the environment".
_CORPUS_FROM_ENV = "\0env"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this interface pins usage at 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="redoku", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, seed_for=None):
        p.add_argument("--order", type=int, default=3, metavar="N",
                       help="board order (default 3: a 9x9 board)")
        if seed_for:
            p.add_argument("--seed", type=int, default=0,
                           help=f"RNG seed for {seed_for} (default 0)")

    p = sub.add_parser("closure", help="rewrite a model to its fixpoint")
    p.add_argument("--missing", required=True, metavar="LABELS",
                   help='comma-separated absent constraints, e.g. "C1,C3"; '
                        'empty string for the full model')
    common(p)

    p = sub.add_parser("classify", help="split Missing(n) classes")
    p.add_argument("-n", "--n-missing", type=int, required=True, metavar="K",
                   help="number of absent big constraints")
    p.add_argument("--json", metavar="PATH",
                   help="also write the full report as JSON")
    common(p)

    p = sub.add_parser("probe", help="equality probes over a small set")
    p.add_argument("--missing", default="", metavar="LABELS",
                   help="model whose pairwise expansion is probed "
                        "(default: full model)")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--sample", type=int, metavar="COUNT",
                       help="probe a random sample of pairs")
    which.add_argument("--full", action="store_true",
                       help="probe every pair of the set")
    p.add_argument("--corpus", nargs="?", const=_CORPUS_FROM_ENV,
                   metavar="PATH",
                   help="seed probes from a puzzle corpus; without a path, "
                        f"${CORPUS_ENV} is used")
    p.add_argument("--budget", type=int, default=DEFAULT_PROBE_BUDGET,
                   help="node budget per corpus probe (default %(default)s)")
    p.add_argument("--jsonl", default="-", metavar="PATH",
                   help="probe report destination (default: stdout)")
    common(p, seed_for="--sample")

    p = sub.add_parser("solve", help="solve one problem instance")
    p.add_argument("--missing", default="", metavar="LABELS",
                   help="absent big constraints (default: none)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--givens", metavar="LINE",
                       help="puzzle line: side^2 chars, digits for givens, "
                            "0 or . for blanks")
    which.add_argument("--corpus", nargs="?", const=_CORPUS_FROM_ENV,
                       metavar="PATH",
                       help="take givens from a corpus "
                            f"(default ${CORPUS_ENV})")
    p.add_argument("--index", type=int, default=0,
                   help="which corpus puzzle to solve (default 0)")
    p.add_argument("--equal", action="append", default=[], metavar="R,C=R,C",
                   help="force two cells equal; repeatable")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="node budget (default %(default)s)")
    p.add_argument("--shuffle", action="store_true",
                   help="visit values in a seed-shuffled order instead of "
                        "ascending")
    common(p, seed_for="--shuffle")

    p = sub.add_parser("figure", help="draw a model or a whole run")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--missing", metavar="LABELS",
                       help="draw one model, shading absent regions")
    which.add_argument("--report", type=int, metavar="K",
                       help="draw thumbnail sheets for all Missing(K) classes")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii",
                   help="single-model output format (default ascii)")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="single-model destination (default: stdout)")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="sheet destination directory (default: cwd)")
    common(p)

    p = sub.add_parser("catalog", help="print the minimal negative catalog")
    p.add_argument("--max-missing", type=int, default=6, metavar="K",
                   help="catalog horizon (default 6)")
    p.add_argument("--json", metavar="PATH",
                   help="also write entries as JSON")
    common(p)

    return parser


def _resolve_corpus(parser, path: str | None) -> str | None:
    if path != _CORPUS_FROM_ENV:
        return path
    env = os.environ.get(CORPUS_ENV)
    if not env:
        parser.error(f"--corpus given without a path and ${CORPUS_ENV} "
                     "is not set")
    return env


def _validate_paths(parser, args) -> None:
    # Fail before any work starts, not after minutes of search.
    corpus = getattr(args, "corpus", None)
    if corpus is not None and not os.path.isfile(corpus):
        parser.error(f"corpus not found: {corpus}")
    for name in ("json", "jsonl", "output"):
        path = getattr(args, name, None)
        if path and path != "-":
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                parser.error(f"output directory does not exist: {parent}")
    if args.command == "figure" and args.report is not None:
        if not os.path.isdir(args.out_dir):
            parser.error(f"--out-dir does not exist: {args.out_dir}")


def _parse_model(parser, args) -> ConstraintSet:
    try:
        return parse_missing(Board(args.order), args.missing or "")
    except ValueError as exc:
        parser.error(str(exc))


def _load_corpus(path: str, board: Board) -> list:
    puzzles, diagnostics = read_corpus(path, board)
    for lineno, message in diagnostics:
        print(f"{path}:{lineno}: {message}", file=sys.stderr)
    return puzzles


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_closure(parser, args) -> int:
    cset = _parse_model(parser, args)
    fixpoint, steps = closure(cset)
    for i, step in enumerate(steps, 1):
        print(f"step {i}: {step.render(cset.board)}")
    if fixpoint.is_full():
        print("verdict: Sudoku")
    else:
        print(f"verdict: Stuck (missing {fixpoint.missing_labels()})")
    return EXIT_OK


def _cmd_classify(parser, args) -> int:
    report = run_classification(Board(args.order), args.n_missing)
    print(f"raw models: {report.raw_count}")
    print(f"classes: {report.class_count} "
          f"({len(report.sudoku_classes)} Sudoku, "
          f"{len(report.non_sudoku_classes)} not)")
    print(f"catalog entries: {len(report.catalog)}")
    print(f"elapsed: {report.elapsed:.1f}s")
    if args.json:
        _write_text(args.json, json.dumps(report.to_json_dict(),
                                          sort_keys=True, indent=2) + "\n")
        print(f"report written to {args.json}")
    unresolved = report.unresolved_classes
    if unresolved:
        print(f"unresolved classes ({len(unresolved)}):", file=sys.stderr)
        for cset in unresolved:
            print(f"  missing {cset.missing_labels()}", file=sys.stderr)
        return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_probe(parser, args) -> int:
    cset = _parse_model(parser, args)
    board = cset.board
    base = expand_small(cset)
    if not base:
        parser.error("the model expands to no small constraints")
    if args.full:
        probes = sorted(base)
    else:
        if args.sample < 1:
            parser.error("--sample must be positive")
        if args.sample > len(base):
            parser.error(f"--sample {args.sample} exceeds the set size "
                         f"{len(base)}")
        probes = sample_probes(base, args.sample, args.seed)
    corpus = None
    if args.corpus is not None:
        corpus = _load_corpus(args.corpus, board)
        if not corpus:
            print(f"error: no usable puzzles in {args.corpus}",
                  file=sys.stderr)
            return EXIT_IO
    records = probe_minimality(board, base, probes, corpus=corpus,
                               budget=args.budget)
    lines = "".join(json.dumps(r.to_json_dict(board), sort_keys=True) + "\n"
                    for r in records)
    _write_text(args.jsonl, lines)
    verdicts = Counter(r.verdict for r in records)
    print(f"confirmed needed: {verdicts[CONFIRMED_NEEDED]}/{len(records)}, "
          f"redundant: {verdicts[REDUNDANT]}, "
          f"inconclusive: {verdicts[INCONCLUSIVE]}")
    return EXIT_OK


def _parse_equalities(parser, board: Board, exprs) -> tuple:
    # R,C=R,C text to flat (a, b) pairs; the only place cells come in.
    out = []
    for expr in exprs:
        try:
            lhs, rhs = expr.split("=")
            r1, c1 = (int(t) for t in lhs.split(","))
            r2, c2 = (int(t) for t in rhs.split(","))
        except ValueError:
            parser.error(f"bad --equal (want R,C=R,C): {expr!r}")
        # cell_index's range error reaches main as a usage error.
        a, b = board.cell_index(r1, c1), board.cell_index(r2, c2)
        if a == b:
            parser.error(f"--equal pairs cell ({r1},{c1}) with itself")
        out.append((a, b))
    return tuple(out)


def _cmd_solve(parser, args) -> int:
    cset = _parse_model(parser, args)
    board = cset.board
    givens = None
    if args.givens is not None:
        try:
            givens = parse_puzzle_line(board, args.givens)
        except ValueError as exc:
            parser.error(str(exc))
    elif args.corpus is not None:
        puzzles = _load_corpus(args.corpus, board)
        index = args.index
        if not 0 <= index < len(puzzles):
            print(f"error: corpus has {len(puzzles)} puzzles, "
                  f"index {index} out of range", file=sys.stderr)
            return EXIT_IO
        givens = puzzles[index]
    equalities = _parse_equalities(parser, board, args.equal)
    problem = SolverProblem(cset, equalities=equalities, givens=givens)
    seed = args.seed if args.shuffle else None
    outcome = solve(problem, budget=args.budget, value_order_seed=seed)
    print(f"status: {outcome.status}")
    print(f"nodes: {outcome.stats.nodes}  "
          f"propagations: {outcome.stats.propagations}")
    if outcome.stats.degenerate:
        print("note: an equality contradicts the model's own disequalities")
    if outcome.is_solution:
        print(outcome.grid)
    return EXIT_OK


def _cmd_figure(parser, args) -> int:
    # Imported here: the only command that draws, so no other launch pays.
    from .figures import render_ascii, render_class_sheets, render_svg
    if args.missing is not None:
        cset = _parse_model(parser, args)
        if args.format == "svg":
            text = render_svg(cset)
        else:
            text = render_ascii(cset) + "\n"
        _write_text(args.output, text)
        return EXIT_OK
    report = run_classification(Board(args.order), args.report)
    for name, svg in render_class_sheets(report).items():
        path = os.path.join(args.out_dir,
                            f"missing{args.report}-{name}-classes.svg")
        _write_text(path, svg)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_catalog(parser, args) -> int:
    horizon = args.max_missing
    entries = minimal_catalog(Board(args.order), horizon)
    print(f"entries: {len(entries)} (max missing {horizon})")
    for i, entry in enumerate(entries, 1):
        print(f"{i}: {entry.label}")
    if args.json:
        data = [e.to_json_dict() for e in entries]
        _write_text(args.json,
                    json.dumps(data, sort_keys=True, indent=2) + "\n")
        print(f"catalog written to {args.json}")
    return EXIT_OK


_COMMANDS = {
    "closure": _cmd_closure,
    "classify": _cmd_classify,
    "probe": _cmd_probe,
    "solve": _cmd_solve,
    "figure": _cmd_figure,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "corpus"):
        args.corpus = _resolve_corpus(parser, args.corpus)
    _validate_paths(parser, args)
    if getattr(args, "budget", 1) < 1:
        parser.error("--budget must be positive")
    try:
        return _COMMANDS[args.command](parser, args)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
