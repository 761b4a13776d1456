"""Command line driver.

Exit codes, shared by every subcommand:
  0  success (equivalent / normalized / ran / analyzed)
  1  negative result (not equivalent, undefined input)
  2  usage, parse, or file errors
  3  an expansion cap was exceeded
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import words
from .analysis import (_state_span, is_erasing, mock_shift_table,
                       quasi_periodicity, rule_part_quasi_periodicity,
                       shortest_word, shortest_word_lengths)
from .core import EmptyTransducer, Ltw, UndefinedInput, evaluate, trim
from .equivalence import decide_equiv
from .ltwfile import (INLINE_MAX, ParseError, load_ltw, parse_tree, print_ltw,
                      print_tree)
from .normalize import partial_normal_form
from .oracle import EnumerationBudget, brute_equiv
from .words import CapExceeded

OK, NEGATIVE, USAGE, CAP = 0, 1, 2, 3


def _fmt(field: str, w) -> str:
    """word fields print their symbols when short, their length otherwise"""
    if w.length <= INLINE_MAX:
        return f"{field}={words.expand(w)}"
    return f"{field}_len={w.length}"


def _write_latin1(text: str) -> None:
    """Machine text and words go to stdout as latin-1, the encoding of .ltw
    files, when stdout is a byte stream; an in-process capture takes text."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        buffer.write(text.encode("latin-1"))
        buffer.flush()


def _qp_lines(M: Ltw, q: str, directions) -> list[str]:
    for d in directions:
        v = quasi_periodicity(M, q, d)
        if v is not None:
            return [f"quasi-periodic({d}): "
                    f"{_fmt('handle', v.handle)} {_fmt('period', v.period)}"]
    return ["not quasi-periodic"]


def _print_refutation(verdict) -> None:
    """A negative verdict of `check` or `oracle`: its reason and its tree."""
    print(f"not equivalent: {verdict.reason}")
    print(f"witness: {print_tree(verdict.witness)}")


def cmd_check(args) -> int:
    verdict = decide_equiv(load_ltw(args.a), load_ltw(args.b))
    if verdict.equivalent:
        print("equivalent")
    else:
        _print_refutation(verdict)
    if verdict.detail:
        print(verdict.detail, file=sys.stderr)
    return OK if verdict.equivalent else NEGATIVE


def cmd_normalize(args) -> int:
    if args.output and args.report and (
            os.path.realpath(args.output) == os.path.realpath(args.report)):
        print("error: -o and --report name the same file", file=sys.stderr)
        return USAGE
    M = load_ltw(args.a)
    try:
        report = partial_normal_form(M)
        text = print_ltw(report.result)
        lines = report.lines()
    except EmptyTransducer:
        empty = Ltw(M.alphabet, ("q",), (M.pool.empty, "q", M.pool.empty),
                    {}, M.pool)
        text = print_ltw(empty)
        lines = ["empty-domain"]
    report_text = "".join(line + "\n" for line in lines)
    with contextlib.ExitStack() as files:     # a bad path fails before any write
        out, report = [files.enter_context(open(path, "w", encoding="latin-1"))
                       if path else None for path in (args.output, args.report)]
        if out:
            out.write(text)
        else:
            _write_latin1(text)
        (report or sys.stderr).write(report_text)
    return OK


def cmd_run(args) -> int:
    if args.max_len < 0:
        print("error: --max-len must be at least 0", file=sys.stderr)
        return USAGE
    M = load_ltw(args.a)
    t = parse_tree(args.tree, M.alphabet)
    try:
        out = evaluate(M, t)
    except UndefinedInput as e:
        print(f"UndefinedInput: {e}")
        return NEGATIVE
    if out.length > args.max_len:
        print(f"output too long: len={out.length} exceeds max-len {args.max_len}",
              file=sys.stderr)
        return CAP
    _write_latin1(words.expand(out, cap=args.max_len) + "\n")
    return OK


def cmd_analyze(args) -> int:
    declared = load_ltw(args.a)
    try:
        M = trim(declared)
    except EmptyTransducer:
        print("empty domain")
        return OK
    if args.state is not None and args.state not in M.states:
        msg = (f"state {args.state} is trimmed away (unreachable or empty domain)"
               if args.state in declared.states else f"no state named {args.state}")
        print(f"error: {msg}", file=sys.stderr)
        return USAGE
    if args.state is None:    # one fixpoint from the axiom spans every state
        _state_span(M, M.axiom[1])
    targets = [args.state] if args.state else list(M.states)
    directions = [args.direction] if args.direction else ["left", "right"]
    m = shortest_word_lengths(M)
    for q in targets:         # a block prints whole or, on exit 3, not at all
        block = [f"state {q}",
                 f"shortest: len={m[q]} {_fmt('word', shortest_word(M, q))}",
                 f"erasing: {'yes' if is_erasing(M, q) else 'no'}",
                 *_qp_lines(M, q, directions)]
        table = mock_shift_table(M, q)
        cells = " ".join(f"{p}={table[p]}" for p in M.states if p in table)
        _write_latin1("\n".join([*block, f"shifts: {cells}"]) + "\n")
    for q in targets:
        for r in M.rules_of(q):
            for i, (callee, _) in enumerate(r.calls):
                if m[callee] == 0 and r.words[i + 1].length == 0:
                    continue
                v = rule_part_quasi_periodicity(M, q, r.symbol, i)
                if v is not None:
                    _write_latin1(f"part {q} {r.symbol} pos={i + 1} callee={callee}: "
                                  f"quasi-periodic(left): {_fmt('handle', v.handle)} "
                                  f"{_fmt('period', v.period)}\n")
    return OK


def cmd_oracle(args) -> int:
    if min(args.depth, args.max_trees) < 1:
        print("error: --depth and --max-trees must be at least 1", file=sys.stderr)
        return USAGE
    M1 = load_ltw(args.a)
    M2 = load_ltw(args.b)
    budget = EnumerationBudget(max_depth=args.depth, max_trees=args.max_trees)
    try:
        verdict = brute_equiv(M1, M2, budget)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    suffix = ", budget hit" if verdict.budget_hit else ""
    if verdict.equivalent:
        print(f"equivalent (checked {verdict.trees_checked} trees{suffix})")
        return OK
    _print_refutation(verdict)
    return NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`."""
    parser = argparse.ArgumentParser(
        prog="ltw",
        description="linear tree-to-word transducers: equivalence, "
                    "normalization, evaluation")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for fingerprints (default %(default)s)")
    parser.set_defaults(seed=0)   # run and oracle compare no words
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="decide equivalence of two transducers")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("normalize", parents=[common],
                       help="compute the partial normal form")
    p.add_argument("a")
    p.add_argument("-o", "--output", help="write the result here (default stdout)")
    p.add_argument("--report", help="write the rewrite report here (default stderr)")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("run", help="run a transducer on one input tree")
    p.add_argument("a")
    p.add_argument("--tree", required=True, help="input tree, e.g. 'f(g,g)'")
    p.add_argument("--max-len", type=int, default=words.DEFAULT_EXPAND_CAP,
                   help="longest output to materialize (default %(default)s)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", parents=[common],
                       help="per-state diagnostics: shortest words, "
                            "quasi-periodicity, shifts, rule parts")
    p.add_argument("a")
    p.add_argument("--state", help="restrict to one state")
    p.add_argument("--direction", choices=["left", "right"],
                   help="test only this side")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="bounded brute-force equivalence check")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=int, default=EnumerationBudget().max_depth)
    p.add_argument("--max-trees", type=int, default=EnumerationBudget().max_trees)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE
    words.set_equality_seed(args.seed)
    try:
        return args.func(args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return CAP


if __name__ == "__main__":
    sys.exit(main())
