import random
import subprocess
import sys

import pytest

from ltw import (EmptyTransducer, Ltw, Rule, Tree, UndefinedInput, evaluate,
                 expand, load_ltw, mirror, parse_ltw, parse_tree, trim,
                 validate)
from ltw import core
from ltw import words as W
from ltw.analysis import QuasiPeriodicity
from ltw.core import (accessible, domain_defined, productive_rules, settle,
                      with_axiom_state)
from ltw.equivalence import EquivVerdict
from ltw.oracle import (EnumerationBudget, enumerate_trees, evaluate_explicit,
                        every_tree_machine)

from _support import (random_layered, reference_settle, same_structure,
                      tree_depth, tree_size)

from conftest import FIXTURES

SRC = FIXTURES.parent.parent / "src"


def ex3():
    return load_ltw(FIXTURES / "ex3.ltw")


def t(s, M=None):
    return parse_tree(s, M.alphabet if M else None)


# -- trees ---------------------------------------------------------------


def test_tree_shape():
    tr = parse_tree("f(g(h,h),h)")
    assert str(tr) == "f(g(h,h),h)"
    assert tree_size(tr) == 5
    assert tree_depth(tr) == 3
    assert tree_depth(parse_tree("g")) == 1


def test_deep_trees_need_no_recursion():
    # every tree walk keeps its own stack, so depth is not bounded by
    # Python's recursion limit
    M = parse_ltw('input f:1 b:2 g:0\naxiom = q(x)\n'
                  'rule q f(x1) = "a" q(x1)\nrule q b(x1,x2) = q(x2) q(x1)\n'
                  'rule q g = "c"\n')
    text = "f(" * 4999 + "g" + ")" * 4999
    tr = parse_tree(text, M.alphabet)
    assert str(tr) == text and tree_size(tr) == 5000 and tree_depth(tr) == 5000
    assert repr(tr) == f"Tree({text!r})"
    assert expand(evaluate(M, tr)) == "a" * 4999 + "c"
    assert domain_defined(M, tr)
    bad = parse_tree("f(" * 3000 + "b(g,h)" + ")" * 3000)
    assert not domain_defined(M, bad)
    with pytest.raises(UndefinedInput) as ei:
        evaluate(M, bad)
    assert ei.value.symbol == "h" and ei.value.path == (1,) * 3000 + (2,)
    deep = parse_tree("f(" * 3000 + "g" + ")" * 3000)
    assert str(deep) == str(parse_tree("f(" * 3000 + "g" + ")" * 3000))
    v = EquivVerdict(False, reason="domain", witness=parse_tree(
        "f(" * 5000 + "g" + ")" * 5000))
    assert repr(v).startswith("EquivVerdict(equivalent=False, reason='domain', "
                              "witness=Tree('f(f(")
    assert evaluate_explicit(M, deep) == "a" * 3000 + "c"
    assert evaluate_explicit(M, bad) is None


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
    for _ in range(10):
        M = random_layered(rng, 3)
        every = every_tree_machine(M.alphabet)
        for tree in enumerate_trees(every, budget=EnumerationBudget(
                max_depth=3, max_trees=200)):
            assert domain_defined(M, tree) == (
                evaluate_explicit(M, tree) is not None)


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


def _one_rule_changed(M, key, rule):
    return M.with_(rules={**M.rules, key: rule})


@pytest.mark.parametrize("change, message", [
    (lambda M, e: M.with_(states=M.states + ("q",)), "duplicate state names"),
    (lambda M, e: M.with_(alphabet={"f": 1}), "alphabet has no nullary symbol"),
    (lambda M, e: _one_rule_changed(M, ("z", "g"), Rule("z", "g", (e,), ())),
     "rule for undeclared state z"),
    (lambda M, e: _one_rule_changed(M, ("q", "h"), Rule("q", "h", (e,), ())),
     "rule for undeclared symbol h"),
    (lambda M, e: _one_rule_changed(M, ("q", "g"), Rule("q2", "g", (e,), ())),
     "rule indexed under a mismatched key"),
    (lambda M, e: _one_rule_changed(M, ("q", "f"), Rule("q", "f", (e,), ())),
     "rule q,f has 0 calls, arity is 1"),
    (lambda M, e: _one_rule_changed(M, ("q", "f"), Rule("q", "f", (e,), (("q1", 1),))),
     "rule q,f has 1 words, expected 2"),
    (lambda M, e: _one_rule_changed(M, ("q", "f"), Rule("q", "f", (e, e), (("q1", 2),))),
     r"rule q,f call slots \(2,\) are not a permutation"),
    (lambda M, e: _one_rule_changed(M, ("q", "f"), Rule("q", "f", (e, e), (("z", 1),))),
     "rule q,f calls undeclared state z"),
    (lambda M, e: _one_rule_changed(M, ("q2", "g"), Rule(
        "q2", "g", (W.SlpPool().literal("abc"),), ())), "rule word from a foreign pool"),
])
def test_validate_names_each_structural_defect(change, message):
    M = ex3()
    validate(M)
    with pytest.raises(ValueError, match=message):
        validate(change(M, M.pool.empty))


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


def _random_system(rng):
    # few nodes and costs, so values tie often; heads with several rules,
    # nodes listed twice in one body, nodes no rule settles ("dead", and
    # cycles with no way in), and every fourth system all at cost 0
    nodes = [f"n{i}" for i in range(rng.randrange(1, 8))]
    zero = rng.random() < 0.25
    rules = []
    for label in range(rng.randrange(16)):
        body = [rng.choice(nodes + ["dead"])
                for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))]
        if body and rng.random() < 0.2:
            body.insert(rng.randrange(len(body) + 1), rng.choice(body))
        cost = 0 if zero else rng.randrange(3)
        rules.append((rng.choice(nodes), label, body, cost))
    return rules


def test_settle_matches_the_heap_reference_in_value_label_and_order():
    rng = random.Random(20)
    for _ in range(2500):
        rules = _random_system(rng)
        got, want = settle(rules), reference_settle(rules)
        assert list(got.items()) == list(want.items()), rules


def test_settle_all_zero_costs_push_nothing_on_the_heap(monkeypatch):
    pushes = [0]
    push = core.heapq.heappush

    def counting(heap, item):
        pushes[0] += 1
        push(heap, item)

    monkeypatch.setattr(core.heapq, "heappush", counting)
    rules = [(f"n{i}", i, [f"n{i - 1}", f"n{i // 2}"] if i else [], 0)
             for i in range(200)]
    assert list(settle(rules)) == [f"n{i}" for i in range(200)]
    assert pushes[0] == 0
    # the counter does see pushes: a weighted system makes some
    assert settle([(h, label, body, 1) for h, label, body, _ in rules])
    assert pushes[0] > 0


def test_productive_accessible():
    M = ex3()
    assert {q for q, rules in productive_rules(M).items() if rules} == set(M.states)
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


# -- value types ---------------------------------------------------------


def test_import_loads_neither_dataclasses_nor_inspect():
    # modules the interpreter loaded before the import (site's) do not count
    code = ("import sys; before = set(sys.modules); import ltw; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    p = subprocess.run([sys.executable, "-I", "-c", f"import sys; "
                        f"sys.path.insert(0, {str(SRC)!r}); {code}"],
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "[]\n"


def _frozen_values():
    M = ex3()
    w = M.pool.literal("ab")
    return [(w, "node"), (Tree("f", (Tree("g"),)), "children"),
            (M.rule("q", "f"), "words"), (M, "rules"),
            (QuasiPeriodicity("left", w, w), "period"),
            (EnumerationBudget(), "max_trees")]


@pytest.mark.parametrize("i", range(6), ids=[
    "WordRef", "Tree", "Rule", "Ltw", "QuasiPeriodicity", "EnumerationBudget"])
def test_immutable_types_reject_assignment_and_deletion(i):
    v, name = _frozen_values()[i]
    with pytest.raises(AttributeError):
        setattr(v, name, None)
    with pytest.raises(AttributeError):
        delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1


def test_value_equality_hashing_and_repr():
    M = ex3()
    r = M.rule("q", "f")
    twin = Rule(r.state, r.symbol, r.words, r.calls)
    assert twin == r and hash(twin) == hash(r) and twin != (r.state, r.symbol)
    assert EnumerationBudget(max_trees=3) == EnumerationBudget(5, 3)
    assert repr(EnumerationBudget()) == (
        "EnumerationBudget(max_depth=5, max_trees=20000)")
    g = Tree("g")
    assert g == g and g != Tree("g") and len({g, Tree("g")}) == 2
    assert repr(Tree("f", (g, g))) == "Tree('f(g,g)')"
    assert M != M.with_() and M == M and len({M, M.with_()}) == 2


def test_with_rejects_unknown_fields():
    M = ex3()
    with pytest.raises(TypeError):
        M.with_(bogus=1)
    N = M.with_(states=("q",))
    assert N.states == ("q",) and N.rules is M.rules and N.pool is M.pool
