"""Command line driver.

Exit codes, shared by every subcommand:
  0  success (equivalent / normalized / ran / analyzed)
  1  negative result (not equivalent, undefined input)
  2  usage, parse, or file errors
  3  an expansion cap was exceeded
"""

from __future__ import annotations

import argparse
import sys

from . import words
from .analysis import (is_erasing, mock_shift_table, quasi_periodicity,
                       rule_part_quasi_periodicity, shortest_word,
                       shortest_word_lengths)
from .core import EmptyTransducer, Ltw, UndefinedInput, evaluate, trim
from .equivalence import decide_equiv
from .ltwfile import ParseError, load_ltw, parse_tree, print_ltw, print_tree
from .normalize import partial_normal_form
from .oracle import EnumerationBudget, brute_equiv
from .words import CapExceeded

OK, NEGATIVE, USAGE, CAP = 0, 1, 2, 3

_INLINE = 40


def _fmt(field: str, w) -> str:
    """word fields print their symbols when short, their length otherwise"""
    if w.length <= _INLINE:
        return f"{field}={words.expand(w)}"
    return f"{field}_len={w.length}"


def _qp_lines(M: Ltw, q: str, directions) -> list[str]:
    for d in directions:
        v = quasi_periodicity(M, q, d)
        if v is not None:
            return [f"quasi-periodic({d}): "
                    f"{_fmt('handle', v.handle)} {_fmt('period', v.period)}"]
    return ["not quasi-periodic"]


def cmd_check(args) -> int:
    M1 = load_ltw(args.a)
    M2 = load_ltw(args.b)
    verdict = decide_equiv(M1, M2)
    if verdict.equivalent:
        print("equivalent")
        if verdict.detail:
            print(verdict.detail, file=sys.stderr)
        return OK
    print(f"not equivalent: {verdict.reason}")
    if verdict.witness is not None:
        print(f"witness: {print_tree(verdict.witness)}")
    if verdict.detail:
        print(verdict.detail, file=sys.stderr)
    return NEGATIVE


def cmd_normalize(args) -> int:
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
    if args.output:
        with open(args.output, "w", encoding="latin-1") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    report_text = "".join(line + "\n" for line in lines)
    if args.report:
        with open(args.report, "w", encoding="latin-1") as f:
            f.write(report_text)
    else:
        sys.stderr.write(report_text)
    return OK


def cmd_run(args) -> int:
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
    print(words.expand(out, cap=max(args.max_len, 1)))
    return OK


def cmd_analyze(args) -> int:
    M = load_ltw(args.a)
    try:
        M = trim(M)
    except EmptyTransducer:
        print("empty domain")
        return OK
    if args.state is not None and args.state not in M.states:
        print(f"error: no state named {args.state}", file=sys.stderr)
        return USAGE
    targets = [args.state] if args.state else list(M.states)
    directions = [args.direction] if args.direction else ["left", "right"]
    m = shortest_word_lengths(M)
    for q in targets:
        print(f"state {q}")
        print(f"shortest: len={m[q]} {_fmt('word', shortest_word(M, q))}")
        print(f"erasing: {'yes' if is_erasing(M, q) else 'no'}")
        for line in _qp_lines(M, q, directions):
            print(line)
        table = mock_shift_table(M, q)
        cells = " ".join(f"{p}={table.dist[p]}" for p in M.states
                         if p in table.dist)
        print(f"shifts: {cells}")
    for q in targets:
        for sym in M.rule_symbols(q):
            r = M.rule(q, sym)
            for i, (callee, _) in enumerate(r.calls):
                if m[callee] == 0 and r.words[i + 1].length == 0:
                    continue
                v = rule_part_quasi_periodicity(M, q, sym, i)[0]
                if v is not None:
                    print(f"part {q} {sym} pos={i + 1} callee={callee}: "
                          f"quasi-periodic(left): "
                          f"{_fmt('handle', v.handle)} {_fmt('period', v.period)}")
    return OK


def cmd_oracle(args) -> int:
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
    print(f"not equivalent: {verdict.reason}")
    if verdict.witness is not None:
        print(f"witness: {print_tree(verdict.witness)}")
    return NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltw",
        description="linear tree-to-word transducers: equivalence, "
                    "normalization, evaluation")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for fingerprints (default 0)")
    common.add_argument("--exact", action="store_true",
                        help="compare words by expansion instead of fingerprints")
    parser.set_defaults(seed=0, exact=False)   # run and oracle compare no words
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
    p.add_argument("--max-len", type=int, default=10 ** 6,
                   help="longest output to materialize (default 1000000)")
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
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--max-trees", type=int, default=20000)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE
    words.set_equality_seed(args.seed)
    words.set_equality_mode("exact" if args.exact else "fingerprint")
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return CAP
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
