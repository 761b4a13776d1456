import random

import pytest

from ltw import (EmptyTransducer, Ltw, Rule, Tree, UndefinedInput, evaluate,
                 expand, load_ltw, mirror, parse_ltw, parse_tree, trim,
                 validate)
from ltw import words as W
from ltw.core import (accessible, domain_defined, productive_states,
                      same_structure, settle, with_axiom_state)

from _support import random_layered

from conftest import FIXTURES


def ex3():
    return load_ltw(FIXTURES / "ex3.ltw")


def t(s, M=None):
    return parse_tree(s, M.alphabet if M else None)


# -- trees ---------------------------------------------------------------


def test_tree_shape():
    tr = parse_tree("f(g(h,h),h)")
    assert str(tr) == "f(g(h,h),h)"
    assert tr.size == 5
    assert tr.depth == 3
    assert parse_tree("g").depth == 1


def test_deep_trees_need_no_recursion():
    # every tree walk keeps its own stack, so depth is not bounded by
    # Python's recursion limit
    M = parse_ltw('input f:1 b:2 g:0\naxiom = q(x)\n'
                  'rule q f(x1) = "a" q(x1)\nrule q b(x1,x2) = q(x2) q(x1)\n'
                  'rule q g = "c"\n')
    text = "f(" * 4999 + "g" + ")" * 4999
    tr = parse_tree(text, M.alphabet)
    assert str(tr) == text and tr.size == 5000 and tr.depth == 5000
    assert expand(evaluate(M, tr)) == "a" * 4999 + "c"
    assert domain_defined(M, tr)
    bad = parse_tree("f(" * 3000 + "b(g,h)" + ")" * 3000)
    assert not domain_defined(M, bad)
    with pytest.raises(UndefinedInput) as ei:
        evaluate(M, bad)
    assert ei.value.symbol == "h" and ei.value.path == (1,) * 3000 + (2,)


# -- evaluation ----------------------------------------------------------


def test_evaluate_ex3():
    M = ex3()
    assert expand(evaluate(M, t("f(f(g))", M))) == "aaaabcabc"
    assert expand(evaluate(M, t("f(f(f(g)))", M))) == "aaaabcabcabc"
    assert expand(evaluate(M, t("f(f(f(f(g))))", M))) == "aaaabcabcabcabc"


def test_evaluate_undefined_path():
    M = ex3()
    with pytest.raises(UndefinedInput) as ei:
        evaluate(M, t("g", M))
    assert ei.value.state == "q" and ei.value.symbol == "g"
    assert ei.value.path == ()
    with pytest.raises(UndefinedInput) as ei:
        evaluate(M, t("f(g)", M))
    assert ei.value.state == "q1" and ei.value.path == (1,)


def test_domain_defined_matches_evaluate():
    rng = random.Random(3)
    from ltw.oracle import EnumerationBudget, enumerate_all_trees
    for _ in range(10):
        M = random_layered(rng, 3)
        for tree in enumerate_all_trees(list(M.alphabet.items()),
                                        EnumerationBudget(max_depth=3,
                                                          max_trees=200)):
            try:
                evaluate(M, tree)
                ran = True
            except UndefinedInput:
                ran = False
            assert domain_defined(M, tree) == ran


def test_evaluate_respects_permutation():
    M = parse_ltw('input f:2 a:0 b:0\n'
                  'axiom = q(x)\n'
                  'rule q f(x1,x2) = "[" p(x2) "|" p(x1) "]"\n'
                  'rule p a = "A"\n'
                  'rule p b = "B"\n')
    assert expand(evaluate(M, t("f(a,b)", M))) == "[B|A]"


# -- validation ----------------------------------------------------------


def test_validate_rejects_non_permutation():
    with pytest.raises(Exception):
        parse_ltw('input f:2 g:0\naxiom = q(x)\n'
                  'rule q f(x1,x2) = q(x1) q(x1)\nrule q g = ""\n')


def test_validate_rejects_unknown_axiom_state():
    M = ex3()
    bad = M.with_(axiom=(M.pool.empty, "nope", M.pool.empty))
    with pytest.raises(Exception):
        validate(bad)


def test_rule_slots():
    M = ex3()
    r = M.rule("q", "f")
    assert r.arity == 1 and r.slots == (1,)
    assert len(r.words) == len(r.calls) + 1


# -- trimming ------------------------------------------------------------


def test_trim_drops_unproductive_and_unreachable():
    M = parse_ltw('input f:1 g:0\n'
                  'axiom = q(x)\n'
                  'rule q f(x1) = "a" q(x1)\n'
                  'rule q g = ""\n'
                  'rule dead f(x1) = dead(x1)\n')  # no completion
    T = trim(M)
    assert set(T.states) == {"q"}
    assert ("dead", "f") not in T.rules


def test_trim_empty_domain_raises():
    # q never reaches a nullary rule, so its domain is empty
    M = parse_ltw('input f:1 g:0\naxiom = q(x)\nrule q f(x1) = q(x1)\n')
    with pytest.raises(EmptyTransducer):
        trim(M)


def test_settle_weighted_minimum_in_settling_order():
    out = settle([
        ("a", "a-leaf", [], 5),
        ("b", "b-leaf", [], 1),
        ("a", "a-via-b", ["b", "b"], 1),   # 1 + 1 + 1 beats 5
        ("c", "c-loop", ["c"], 0),         # a zero-cost self-loop never fires
        ("c", "c-via-a", ["a"], 0),
        ("d", "d-dead", ["e"], 0),         # e has no rule
    ])
    assert out == {"b": (1, "b-leaf", []), "a": (3, "a-via-b", ["b", "b"]),
                   "c": (3, "c-via-a", ["a"])}
    assert list(out) == ["b", "a", "c"]


def test_settle_equal_values_first_ready_wins():
    # z's rules tie at 0; via-x becomes ready first although it is listed
    # last, and the later leaf for x loses to the earlier one
    out = settle([("x", "x-first", [], 0), ("y", "y", [], 0),
                  ("z", "via-y", ["y"], 0), ("z", "via-x", ["x"], 0),
                  ("x", "x-second", [], 0)])
    assert list(out) == ["x", "y", "z"]
    assert out["x"] == (0, "x-first", []) and out["z"] == (0, "via-x", ["x"])


def test_productive_accessible():
    M = ex3()
    assert productive_states(M) == set(M.states)
    assert accessible(M, "q") == {"q", "q1", "q2"}
    assert accessible(M, "q2") == {"q2"}


# -- mirror --------------------------------------------------------------


def test_mirror_reverses_outputs():
    M = ex3()
    R = mirror(M)
    for s in ("f(f(g))", "f(f(f(g)))"):
        a = expand(evaluate(M, t(s, M)))
        b = expand(evaluate(R, t(s, M)))
        assert b == a[::-1]
    assert same_structure(mirror(R), M)


def test_with_axiom_state_language():
    M = ex3()
    S = with_axiom_state(M, "q2")
    assert expand(evaluate(S, t("g", M))) == "abc"
    assert expand(evaluate(S, t("f(g)", M))) == "abcabc"
    assert set(S.states) == {"q2"}


def test_same_structure_detects_word_change():
    M = ex3()
    rules = dict(M.rules)
    r = rules[("q2", "g")]
    rules[("q2", "g")] = Rule(r.state, r.symbol, (M.pool.literal("abx"),),
                              r.calls)
    assert not same_structure(M, M.with_(rules=rules))
    assert same_structure(M, M.with_())
