"""The measured closed loop, run inside one workload's subprocess.

One client sends one op at a time: the next op starts when the previous one
returns.  An op is one in-process call of ``ltw.cli.main`` on files written
at set-up, with stdout and stderr captured.  Only that call is timed; each
result is checked against the answer key between ops, outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import resource
from collections import Counter
from time import perf_counter

from ltw import cli
from ltw.ltwfile import ParseError, load_ltw, parse_ltw, parse_tree
from ltw.oracle import evaluate_explicit
from ltw.words import CapExceeded

WARMUP_S = 1.0
MIN_PASSES = 3


def call_op(op: dict, main=cli.main) -> tuple[float, int | None, str | None, str]:
    """(seconds, exit code, escaped exception class, stdout) of one op."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op["argv"])
    except Exception as e:      # an escaped exception is a failed op, not a crash
        exc = type(e).__name__
    return perf_counter() - t0, rc, exc, out.getvalue()


class Checker:
    """Judges op results against the answer key.

    `check` returns ``(reason, wrong)``: reason is None for a passing op,
    else the failure class; `wrong` is True when the program printed a wrong
    answer (verdict, exit code, witness or normal form), False when it
    printed none (escaped exception, error exit).  Judgements are cached per
    distinct result, so repeating an op costs one lookup.
    """

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self._machines: dict[str, object] = {}
        self._seen: dict[tuple, tuple[str | None, bool]] = {}

    def _machine(self, path):
        if path not in self._machines:
            self._machines[path] = load_ltw(path)
        return self._machines[path]

    def check(self, i: int, rc, exc, stdout: str) -> tuple[str | None, bool]:
        op = self.ops[i]
        output = None
        if op["kind"] == "normalize" and exc is None and rc == cli.OK:
            with open(op["output"], encoding="latin-1") as f:
                output = f.read()
        key = (i, rc, exc, stdout, output)
        if key not in self._seen:
            self._seen[key] = self._judge(op, rc, exc, stdout, output)
        return self._seen[key]

    def _judge(self, op, rc, exc, stdout, output):
        if exc is not None:
            return f"exception:{exc}", False
        if op["kind"] == "normalize":
            if rc != cli.OK:
                return f"exit:{rc}", False
            return self._judge_normal_form(op, output)
        lines = stdout.splitlines()
        first = lines[0] if lines else ""
        if first in ("equivalent", "equivalent (randomized)"):
            verdict, want_rc = "equivalent", cli.OK
        elif first.startswith("not equivalent"):
            verdict, want_rc = "not equivalent", cli.NEGATIVE
        else:
            return f"exit:{rc}", False
        if rc != want_rc:
            return "wrong-exit", True
        if verdict != op["expect"]:
            return "wrong-verdict", True
        witness = next((ln[len("witness: "):] for ln in lines
                        if ln.startswith("witness: ")), None)
        if witness is not None and not self._separates(op, witness):
            return "bad-witness", True
        return None, False

    def _separates(self, op, text) -> bool:
        """The witness tree tells the two machines apart: defined on one
        side only, or defined on both with different outputs."""
        a, b = (self._machine(p) for p in op["files"])
        try:
            t = parse_tree(text)
            return evaluate_explicit(a, t) != evaluate_explicit(b, t)
        except (ParseError, CapExceeded):
            return False

    def _judge_normal_form(self, op, output):
        try:
            result = parse_ltw(output)
        except ParseError:
            return "bad-output", True
        source = self._machine(op["files"][0])
        for text in op["probes"]:
            t = parse_tree(text)
            if evaluate_explicit(source, t) != evaluate_explicit(result, t):
                return "bad-output", True
        return None, False


class Tally:
    """Per-pass timings and failure counts of one sequence of passes, and
    the ops that failed at least once."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.failures: Counter = Counter()
        self.failed_ops: set[int] = set()
        self.wrong = 0

    def new_pass(self):
        self.passes.append([])

    def add(self, i, dt, reason, wrong):
        self.passes[-1].append(dt)
        if reason is not None:
            self.failures[reason] += 1
            self.failed_ops.add(i)
        self.wrong += wrong

    def as_dict(self) -> dict:
        return {"passes": self.passes, "failures": dict(self.failures),
                "failed_ops": sorted(self.failed_ops), "wrong": self.wrong}


def _warm_up(ops):
    t_end = perf_counter() + WARMUP_S
    i = 0
    while True:
        call_op(ops[i % len(ops)])
        i += 1
        if perf_counter() >= t_end:
            return


def _done(passes: int, t_end: float) -> bool:
    return passes >= MIN_PASSES and perf_counter() >= t_end


def measure(ops: list[dict], checker: Checker, seconds: float,
            between=lambda: None) -> dict:
    """Whole passes over the op list, untraced, until `seconds` have passed
    and at least MIN_PASSES passes ran.  Every op runs once per pass, so
    each has the same number of samples, spread over the whole run.
    `between` is called after every op, outside the timed region."""
    _warm_up(ops)
    tally = Tally()
    t_end = perf_counter() + seconds
    while not _done(len(tally.passes), t_end):
        tally.new_pass()
        for i, op in enumerate(ops):
            dt, rc, exc, stdout = call_op(op)
            tally.add(i, dt, *checker.check(i, rc, exc, stdout))
            between()
    return {**tally.as_dict(), "peak_rss_mb": peak_rss_mb()}


def measure_traced(ops: list[dict], checker: Checker, seconds: float,
                   tracer) -> dict:
    """Untraced and traced passes in turn until `seconds` have passed and
    each side ran at least MIN_PASSES passes.  Alternating puts both sides
    under the same machine conditions, so their time ratio is the tracing
    overhead."""
    _warm_up(ops)
    plain, traced = Tally(), Tally()
    t_end = perf_counter() + seconds
    n = 0
    while not _done(len(traced.passes), t_end):
        plain.new_pass()
        for i, op in enumerate(ops):
            dt, rc, exc, stdout = call_op(op)
            plain.add(i, dt, *checker.check(i, rc, exc, stdout))
        traced.new_pass()
        for i, op in enumerate(ops):
            tracer.start_op(n)
            n += 1
            try:
                dt, rc, exc, stdout = call_op(op, tracer.main)
            finally:
                tracer.end_op()
            traced.add(i, dt, *checker.check(i, rc, exc, stdout))
    return {"plain": plain.as_dict(), **traced.as_dict(),
            "self_s": tracer.self_times(),
            "span_counts": dict(tracer.span_counts()),
            "counts": dict(tracer.counts), "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
