"""The CLI contract under fuzzing: whatever `.ltw` text or tree string it is
given, every subcommand returns exit code 0, 1, 2 or 3 and never lets an
exception (a traceback) escape."""

import contextlib
import io
import os
import random
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ltw.cli import main
from ltw.core import validate
from ltw.ltwfile import ParseError, parse_ltw

from _support import STRANDED_BY_REUSE, random_layered_text
from conftest import FIXTURES

BASES = [(FIXTURES / f"{name}.ltw").read_text(encoding="latin-1")
         for name in ("ex3", "ex5a", "ex5b", "ex6", "ex7", "stress_doubling")]
BASES += [random_layered_text(random.Random(i), 3) for i in range(4)]

# the characters the grammar gives a meaning to, plus a few it rejects
CHARS = " \t\n\"'\\$=(),:#x019abfgquW_\x01\xe9"
TREE_CHARS = "fgabcun0b2() ,x"


@st.composite
def ltw_texts(draw):
    """A fixture or a random machine with a few character edits (some just
    inside a literal), a whole line dropped or doubled, or plain random
    text."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.text(alphabet=CHARS, max_size=60))
    text = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "delete", "replace", "line"]))
        at = draw(st.integers(0, len(text)))
        quotes = [i + 1 for i, ch in enumerate(text) if ch == '"']
        if quotes and draw(st.booleans()):
            at = draw(st.sampled_from(quotes))
        if edit == "line":
            lines = text.splitlines(keepends=True)
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = draw(st.sampled_from(["", lines[i] * 2]))
            text = "".join(lines)
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            ch = draw(st.sampled_from(CHARS))
            text = text[:at] + ch + text[at + (edit == "replace"):]
    return text


trees = st.one_of(st.text(alphabet=TREE_CHARS, max_size=16),
                  st.sampled_from(["g", "f(g)", "f(f(g))", "u(n0)",
                                   "b2(n0,n1)", "f(a(b),a(c),a(b),a(c))"]))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue() + err.getvalue()


# a number past Python's limit on converting digit strings (4300 digits by
# default) in each place the grammar reads one
LONG = "9" * 5000
_LEAF = 'rule q g = "a"\n'


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=ltw_texts(), b=ltw_texts(), tree=trees)
@example(a=f"input f:{LONG} g:0\naxiom = q(x)\n" + _LEAF, b=BASES[0], tree="g")
@example(a=f"input f:1 g:0\naxiom = q(x)\nrule q f(x{LONG}) = q(x1)\n" + _LEAF,
         b=BASES[0], tree="g")
@example(a=f"input f:1 g:0\naxiom = q(x)\nrule q f(x1) = q(x{LONG})\n" + _LEAF,
         b=BASES[0], tree="g")
@example(a=f"input f:1 g:0\naxiom = q(x)\nrule q f(x1) = q(x {LONG})\n" + _LEAF,
         b=BASES[0], tree="g")
@example(a=STRANDED_BY_REUSE, b=BASES[0], tree="b(n,n)")
def test_every_subcommand_keeps_the_exit_code_contract(a, b, tree):
    with tempfile.TemporaryDirectory() as d:
        fa, fb = os.path.join(d, "a.ltw"), os.path.join(d, "b.ltw")
        for path, text in ((fa, a), (fb, b)):
            with open(path, "w", encoding="latin-1") as f:
                f.write(text)
        for argv in (["check", fa, fb], ["normalize", fa], ["analyze", fa],
                     ["run", fa, "--tree", tree],
                     ["oracle", fa, fb, "--depth", "3", "--max-trees", "200"]):
            rc, printed = run_cli(argv)
            assert rc in (0, 1, 2, 3), (argv, rc)
            assert "Traceback" not in printed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=ltw_texts())
@example(text="input f:1\naxiom = q(x)\nrule q f(x1) = q(x1)\n")
@example(text="input f:2 g:0\naxiom = q(x)\nrule q f(x1,x2) = q(x2) q(x2)\n")
def test_every_text_the_loader_accepts_is_a_valid_machine(text):
    # the loader does not run core.validate; its own checks must imply it
    try:
        M = parse_ltw(text)
    except ParseError:
        return
    validate(M)
