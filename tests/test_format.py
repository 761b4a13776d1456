import random

import pytest
from hypothesis import given, settings

from ltw import ParseError, expand, load_ltw, parse_ltw, parse_tree, print_ltw
from ltw.ltwfile import INLINE_MAX, print_tree

from _support import (random_cyclic_text, random_layered_text,
                      reference_parse_ltw, same_structure)
from test_cli_contract import ltw_texts

from conftest import FIXTURES, GOLDEN


def roundtrip(M):
    N = parse_ltw(print_ltw(M))
    assert same_structure(M, N)
    assert print_ltw(N) == print_ltw(M)


def test_roundtrip_fixtures():
    for name in ("ex3", "ex5a", "ex5b", "ex6", "ex7", "stress_doubling"):
        roundtrip(load_ltw(FIXTURES / f"{name}.ltw"))


def test_roundtrip_random_corpus():
    rng = random.Random(123)
    for _ in range(50):
        roundtrip(parse_ltw(random_layered_text(rng, rng.randrange(2, 5))))


def test_slp_declarations_single_and_double_quotes():
    M = parse_ltw("input g:0\n"
                  "slp W1 = 'a'\n"
                  "slp W0 = W1 W1\n"
                  "axiom = $W0 q(x)\n"
                  'rule q g = $W0 "b"\n')
    u0, _, _ = M.axiom
    assert expand(u0) == "aa"
    assert expand(M.rule("q", "g").words[0]) == "aab"


def test_slp_errors():
    with pytest.raises(ParseError):
        parse_ltw('input g:0\naxiom = $NOPE q(x)\nrule q g = ""\n')
    with pytest.raises(ParseError):
        parse_ltw("input g:0\nslp A = 'a'\nslp A = 'b'\n"
                  'axiom = q(x)\nrule q g = ""\n')


def test_escapes_roundtrip():
    M = parse_ltw('input g:0\naxiom = q(x)\nrule q g = "a\\"b\\\\c"\n')
    assert expand(M.rule("q", "g").words[0]) == 'a"b\\c'
    roundtrip(M)


def test_long_words_become_slp_declarations():
    word = "ab" * 21  # 42 symbols, above the inline limit
    M = parse_ltw(f'input g:0\naxiom = q(x)\nrule q g = "{word}"\n')
    text = print_ltw(M)
    assert "slp W0" in text
    assert "$W0" in text
    roundtrip(M)
    short = parse_ltw('input g:0\naxiom = q(x)\nrule q g = "%s"\n' % ("ab" * 20))
    assert "slp" not in print_ltw(short)


def test_empty_rhs_prints_as_quoted_empty():
    M = parse_ltw('input g:0\naxiom = q(x)\nrule q g = ""\n')
    assert 'rule q g = ""' in print_ltw(M)


def test_comments_and_blank_lines():
    M = parse_ltw("# heading\n\ninput g:0\n# more\naxiom = q(x)\n"
                  'rule q g = "a"\n')
    assert expand(M.rule("q", "g").words[0]) == "a"


def test_duplicate_rule_rejected():
    with pytest.raises(ParseError):
        parse_ltw('input g:0\naxiom = q(x)\nrule q g = "a"\nrule q g = "b"\n')


def test_non_permutation_rejected():
    with pytest.raises(ParseError):
        parse_ltw('input f:2 g:0\naxiom = q(x)\n'
                  "rule q f(x1,x2) = q(x1) q(x1)\n"
                  'rule q g = ""\n')


def test_head_variables_must_ascend():
    with pytest.raises(ParseError):
        parse_ltw('input f:2 g:0\naxiom = q(x)\n'
                  "rule q f(x2,x1) = q(x1) q(x2)\n"
                  'rule q g = ""\n')


def test_arity_conflict_rejected():
    with pytest.raises(ParseError):
        parse_ltw('input f:1 g:0\naxiom = q(x)\n'
                  'rule q f(x1,x2) = q(x1) q(x2)\nrule q g = ""\n')


def test_zero_symbol_input_line():
    with pytest.raises(ParseError):
        # no rule can ever apply, but the line itself must parse; the
        # validator then rejects the ruleless axiom state
        parse_ltw("input\naxiom = q(x)\n")


def test_rules_print_sorted():
    M = load_ltw(FIXTURES / "ex3.ltw")
    lines = [l for l in print_ltw(M).splitlines() if l.startswith("rule")]
    keys = [tuple(l.split()[1:3]) for l in lines]
    assert keys == sorted(keys)


# -- tree literals -------------------------------------------------------


def test_parse_tree_shapes():
    assert print_tree(parse_tree("g")) == "g"
    assert print_tree(parse_tree("f(g,h(g))")) == "f(g,h(g))"
    assert print_tree(parse_tree("f( g , h( g ) )")) == "f(g,h(g))"


def test_parse_tree_arity_checked():
    M = load_ltw(FIXTURES / "ex3.ltw")
    parse_tree("f(g)", M.alphabet)
    with pytest.raises(ParseError):
        parse_tree("f(g,g)", M.alphabet)
    with pytest.raises(ParseError):
        parse_tree("nope", M.alphabet)


def test_parse_tree_syntax_errors():
    for bad in ("", "f(", "f)g", "f(g))", "f(,)"):
        with pytest.raises(ParseError):
            parse_tree(bad)


# -- loader error contract: message, line and column -----------------------

_HEAD = "input f:1 g:0\n"

MALFORMED = [
    ("unterminated literal", _HEAD + 'axiom = "ab q(x)\n',
     "unterminated string literal", 2, 17),
    ("dangling backslash", _HEAD + "axiom = 'ab\\",
     "dangling backslash", 2, 12),
    ("bad escape", _HEAD + 'axiom = "a\\nb" q(x)\n',
     "unsupported escape \\n", 2, 11),
    ("unescaped double quote", _HEAD + "axiom = 'a\"b' q(x)\n",
     "'\"' must be escaped inside a literal", 2, 11),
    ("hash starts a comment even inside a literal",
     _HEAD + 'axiom = "a#b" q(x)\n', "unterminated string literal", 2, 11),
    ("unknown $ reference", _HEAD + "axiom = $NOPE  q(x)\n",
     "unknown slp name NOPE", 2, 14),
    ("unknown bare reference", _HEAD + 'slp W = "a" V\n',
     "unknown slp name V", 2, 14),
    ("missing =", _HEAD + "axiom q(x)\n", "expected '='", 2, 7),
    ("missing (", _HEAD + "axiom = q x)\n", "expected '('", 2, 11),
    ("missing x in the axiom", _HEAD + "axiom = q(y)\n", "expected 'x'", 2, 11),
    ("missing x in a call", _HEAD + "axiom = q(x)\nrule q f(x1) = q(y1)\n",
     "expected 'x'", 3, 18),
    ("missing slot number", _HEAD + "axiom = q(x)\nrule q f(x1) = q(xa)\n",
     "expected a number", 3, 19),
    ("slot number glued to a name", _HEAD + "axiom = q(x)\nrule q f(x1) = q(x1a)\n",
     "expected ')'", 3, 20),
    ("missing arity", "input g:x\n", "expected a number", 1, 9),
    ("trailing input after an axiom", _HEAD + 'axiom = q(x) "a" )\n',
     "trailing input after axiom", 2, 18),
    ("trailing input after an slp", _HEAD + 'slp W = "a" = \n',
     "trailing input after slp definition", 2, 13),
    ("duplicate rule", _HEAD + 'axiom = q(x)\nrule q g = "a"\n\trule q g = "b"\n',
     "duplicate rule for q,g", 4, 16),
    ("non-permutation", "input f:2 g:0\naxiom = q(x)\n"
     "rule q f(x1,x2) = q(x1) q(x1)\n",
     "call slots [1, 1] are not a permutation of the children", 3, 30),
    ("head variables out of order", "input f:2 g:0\naxiom = q(x)\n"
     "rule q f(x2,x1) = q(x1) q(x2)\n",
     "head variables must be x1,..,xn in order", 3, 30),
    ("head and calls disagree", "input f:2 g:0\naxiom = q(x)\n"
     "rule q f(x1,x2) = q(x1)\n",
     "head declares 2 children but 1 are called", 3, 24),
    ("arity conflict", "input f:1 f:2\n",
     "symbol f redeclared with arity 2 != 1", 1, 14),
    ("unknown declaration", _HEAD + "  output g\n",
     "unknown declaration 'output'", 2, 9),
    ("slp redefined", "input g:0\nslp A = 'a'\nslp A = 'b'\n",
     "slp A redefined", 3, 6),
    ("axiom redefined", _HEAD + "axiom = q(x)\naxiom = q(x)\n",
     "axiom redefined", 3, 6),
    ("no nullary symbol, reported at the end of the input",
     "input f:1\naxiom = q(x)\nrule q f(x1) = q(x1)  # loops\n\n",
     "alphabet has no nullary symbol, so no finite trees exist", 3, 21),
]


@pytest.mark.parametrize("text,msg,line,col", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_message_and_position(text, msg, line, col):
    with pytest.raises(ParseError) as e:
        parse_ltw(text)
    assert str(e.value) == f"{msg} (line {line}, col {col})"
    assert (e.value.line, e.value.col) == (line, col)


def test_missing_axiom_has_no_position():
    with pytest.raises(ParseError) as e:
        parse_ltw("input g:0\n")
    assert str(e.value) == "missing axiom"
    assert (e.value.line, e.value.col) == (None, None)


def test_tabs_comments_and_quote_styles():
    M = parse_ltw("\tinput\tf:1\tg : 0   # symbols\n"
                  "# a whole-line comment\n"
                  "slp W1 = 'it''s' \"\\\\\"\t# bare refs follow\n"
                  "slp W0 = W1\tW1\n"
                  "axiom\t=\t$W0 q ( x ) 'a\\'b'\n"
                  "rule q f( x1 ) = \"'\" q(x 1) '\\\"'\n"
                  "rule q g =\t\"\"\n")
    u0, q, u1 = M.axiom
    assert q == "q"
    assert expand(u0) == "its\\its\\"
    assert expand(u1) == "a'b"
    assert [expand(w) for w in M.rule("q", "f").words] == ["'", '"']
    assert M.rule("q", "f").calls == (("q", 1),)
    assert expand(M.rule("q", "g").words[0]) == ""


TREE_ERRORS = [
    ("", "expected a name (line 1, col 1)"),
    ("f(", "expected a name (line 1, col 3)"),
    ("f)g", "trailing input after tree (line 1, col 2)"),
    ("f(g))", "trailing input after tree (line 1, col 5)"),
    ("f(,)", "expected a name (line 1, col 3)"),
    ("f\ng", "trailing input after tree (line 1, col 2)"),
    ("f( g , h( g ) ) x", "trailing input after tree (line 1, col 17)"),
    ("h(g g)", "expected ',' (line 1, col 5)"),
    ("f(g,", "expected a name (line 1, col 5)"),
    ("f(g , ", "expected a name (line 1, col 6)"),
]


@pytest.mark.parametrize("text,msg", TREE_ERRORS)
def test_tree_error_message_and_position(text, msg):
    with pytest.raises(ParseError) as e:
        parse_tree(text)
    assert str(e.value) == msg


def test_tree_arity_errors_point_after_the_node():
    M = load_ltw(FIXTURES / "ex3.ltw")
    with pytest.raises(ParseError) as e:
        parse_tree("f(g() , g)", M.alphabet)
    assert str(e.value) == "symbol f expects 1 children, got 2 (line 1, col 11)"
    with pytest.raises(ParseError) as e:
        parse_tree("f(h )", M.alphabet)
    assert str(e.value) == "unknown input symbol h (line 1, col 5)"
    with pytest.raises(ParseError) as e:
        parse_tree("f()", M.alphabet)
    assert str(e.value) == "symbol f expects 1 children, got 0 (line 1, col 4)"
    with pytest.raises(ParseError) as e:
        parse_tree("f ( )  ", M.alphabet)
    assert str(e.value) == "symbol f expects 1 children, got 0 (line 1, col 6)"
    with pytest.raises(ParseError) as e:
        parse_tree("f(z ,g)", M.alphabet)
    assert str(e.value) == "unknown input symbol z (line 1, col 5)"


def test_non_symbol_in_a_literal_is_a_parse_error():
    with pytest.raises(ParseError) as e:
        parse_ltw(_HEAD + 'axiom = "a\tb" q(x)\n')
    assert str(e.value) == "invalid output symbol: '\\t' (line 2, col 14)"


# -- the loader against the reference cursor --------------------------------

def assert_loads_like_reference(text):
    """Both loaders accept `text` and build the same machine, or both reject
    it with the same message, line and column."""
    try:
        want = reference_parse_ltw(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            parse_ltw(text)
        assert (str(got.value), got.value.line, got.value.col) == (str(e), e.line, e.col)
        return
    got = parse_ltw(text)
    assert print_ltw(got) == print_ltw(want)
    assert same_structure(got, want)


# lines in the rarer forms the grammar allows, and their near misses
RARE_LINES = [
    "", "rule", "rule q", "rule q f", "rule q f(", "rule q f(x1", "rule q f(x1,",
    "rule q f()", "rule q f(,) = \"\"", "rule q f(x 1) = q( x 1 )",
    "rule q f(x1a) = q(x1)", "rule q f(y1) = q(x1)", "rule q f(x) = q(x1)",
    "rule q f(x1) q(x1)", "rule q f(x1) = q", "rule q f(x1) = q(", "rule q f(x1) = q(x1",
    "rule q f(x1) = q(x01)", "rule q f(x1) = \"a\" 5", "rule q f = p(x1)",
    "rule q f(x1) = q(xa)", "rule q f(x1) = q(x)", "rule q f(x1) = 5(x1)",
    "rule q g = 'a\\'b' \"c\\\\d\" $W", "rule q g = $W$W 'a'\"b\"",
    "rule q g = \"\xe9\xff\"", "rule q g = \"a\x01\"", "rule q g = \"\x85\"",
    "axiom", "axiom =", "axiom = \"a\"", "axiom = q(x1)", "axiom = q(xy)",
    "axiom = q(x) p(x)", "axiom = q(x) \"a\" 'b' $W", "axiom = q ( x ) $W",
    "axiom = $", "axiom = $ 5", "axiom = q(x) $", "axiom = q(x", "axiom = q(x))",
    "slp", "slp 5", "slp W", "slp W =", "slp V = 'a' $W W", "slp V = V",
    "slp V = $", "slp V = W (", "slp V = \"a", "slp V = 'a\\",
    "input f", "input f:", "input f 1", "input 5:1", "input f:1 g:0 f:1",
    "input g:0 g:1", "5 rule", "\"a\"", "$", "Rule q", "\trule q g = ''",
    "rule q g = \"%s\"" % ("ab" * 21), "rule p g = \"%s\"" % ("ab" * 21),
]
_BEFORE = "input f:1 g:0\nslp W = 'ab'\n"
_AFTER = "\naxiom = z(x)\nrule z g = \"\"\n"


def test_the_loader_matches_the_reference_on_rare_lines():
    for line in RARE_LINES:
        for text in (line, _BEFORE + line, _BEFORE + line + _AFTER,
                     _BEFORE + "axiom = q(x)\n" + line + "\n\n# end\n"):
            assert_loads_like_reference(text)


def test_the_loader_matches_the_reference_on_tables_and_files():
    long = "ab" * (INLINE_MAX // 2 + 1)
    texts = [c[1] for c in MALFORMED]
    texts.append(_BEFORE + f'axiom = q(x) "{long}"\nrule q g = "{long}"\n'
                 f'rule p g = "{long}" "ab"\nrule r g = "ab" \'ab\' $W\n')
    texts += [p.read_text(encoding="latin-1")
              for d in (FIXTURES, GOLDEN) for p in sorted(d.iterdir())]
    rng = random.Random(7)
    texts += [random_layered_text(rng, rng.randrange(2, 6)) for _ in range(60)]
    texts += [random_cyclic_text(rng, rng.randrange(2, 6)) for _ in range(60)]
    for text in texts:
        assert_loads_like_reference(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=ltw_texts())
def test_the_loader_matches_the_reference_on_edited_texts(text):
    assert_loads_like_reference(text)


def test_a_repeated_short_literal_is_one_pool_node():
    def pool_size(n_rules, word):
        text = "input g:0\naxiom = q0(x)\n" + "".join(
            f'rule q{i} g = "{word}"\n' for i in range(n_rules))
        return len(parse_ltw(text).pool)

    assert pool_size(200, "ab") == pool_size(1, "ab")
    # longer literals stay apart: each prints as its own slp declaration
    long = "ab" * (INLINE_MAX // 2 + 1)
    assert pool_size(2, long) > pool_size(1, long)
