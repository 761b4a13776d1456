import random

import pytest

from ltw import expand, load_ltw, mirror, parse_ltw, trim
from ltw import words as W
from ltw.analysis import (PairSpace, build_Tq, domains_equal,
                          erasing_states, is_erasing, is_periodic_state,
                          mock_shift_table, part_quasi_periodicity,
                          quasi_periodicity, rule_part_quasi_periodicity,
                          same_ordered, shortest_domain_tree,
                          shortest_nonempty_word, shortest_word,
                          shortest_word_lengths, shortest_words,
                          singleton_word)
from ltw.core import evaluate, same_structure, with_axiom_state
from ltw.oracle import (EnumerationBudget, brute_quasi_periodic,
                        enumerate_trees, evaluate_explicit)

from conftest import FIXTURES


def ex(name):
    return trim(load_ltw(FIXTURES / f"{name}.ltw"))


# -- shortest words -------------------------------------------------------


def test_shortest_lengths_ex3():
    M = ex("ex3")
    assert shortest_word_lengths(M) == {"q": 9, "q1": 7, "q2": 3}


def test_shortest_words_are_the_lcp_values():
    M = ex("ex3")
    w = shortest_words(M)
    assert expand(w["q"]) == "aaaabcabc"
    assert expand(w["q1"]) == "aaabcab"
    assert expand(w["q2"]) == "abc"


def test_shortest_word_agrees_with_enumeration():
    # acyclic machines of depth <= 3, so depth-4 enumeration sees every output
    rng = random.Random(21)
    from _support import random_layered
    for _ in range(15):
        M = random_layered(rng, 3)
        try:
            M = trim(M)
        except Exception:
            continue
        for q in M.states:
            outs = {evaluate_explicit(with_axiom_state(M, q), t)
                    for t in enumerate_trees(M, q,
                                             EnumerationBudget(max_depth=4))}
            outs.discard(None)
            assert outs
            assert shortest_word_lengths(M)[q] == min(map(len, outs))
            assert expand(shortest_word(M, q)) in outs
            nonempty = {o for o in outs if o}
            plus = shortest_nonempty_word(M, q)
            if nonempty:
                assert expand(plus) in nonempty
                assert plus.length == min(map(len, nonempty))
            else:
                assert plus is None
            assert is_erasing(M, q) == (outs == {""})
            single = singleton_word(M, q)
            assert (single is not None) == (len(outs) == 1)
            if single is not None:
                assert {expand(single)} == outs


def test_shortest_nonempty_ex5a():
    M = ex("ex5a")
    assert shortest_nonempty_word(M, "q1") is None  # erasing: only empty output
    assert expand(shortest_nonempty_word(M, "q2")) == "abab"
    assert expand(shortest_nonempty_word(M, "q4")) == "ab"


def test_erasing_states():
    assert erasing_states(ex("ex5a")) == {"q1"}
    assert erasing_states(ex("ex3")) == set()
    assert is_erasing(ex("ex5a"), "q1")


def test_singleton_word():
    M = parse_ltw('input g:0 h:0\naxiom = q(x)\nrule q g = "xy"\n'
                  'rule q h = "xy"\n')
    assert expand(singleton_word(M, "q")) == "xy"
    assert singleton_word(ex("ex3"), "q") is None


# -- shifts ---------------------------------------------------------------


def test_mock_shift_table_ex3():
    M = ex("ex3")
    t = mock_shift_table(M, "q")
    assert t.dist == {"q": 0, "q1": 1, "q2": 3}
    t1 = mock_shift_table(M, "q1")
    assert t1.dist == {"q1": 0, "q2": 2}


def test_shift_triangle_inequality():
    for name in ("ex3", "ex5a", "ex7"):
        M = ex(name)
        tables = {q: mock_shift_table(M, q) for q in M.states}
        for q in M.states:
            for r, dqr in tables[q].dist.items():
                for p, drp in tables[r].dist.items():
                    assert tables[q].dist[p] <= dqr + drp


def test_shift_additivity_on_chain():
    # unique call paths make the triangle inequality an equality
    M = ex("ex3")
    t = mock_shift_table(M, "q")
    t1 = mock_shift_table(M, "q1")
    assert t.dist["q2"] == t.dist["q1"] + t1.dist["q2"]


# -- companion transducer --------------------------------------------------


def test_build_Tq_ex3():
    M = ex("ex3")
    T = build_Tq(M, "q")
    u0, ax, u1 = T.axiom
    assert expand(u0) == "aaaabcabc" and u1.length == 0
    assert ax == "q__T"
    words_by_rule = {k: expand(r.words[0]) for k, r in T.rules.items()}
    assert words_by_rule == {("q__T", "f"): "", ("q1__T", "f"): "",
                             ("q2__T", "f"): "abc", ("q2__T", "g"): ""}
    for r in T.rules.values():
        assert all(w.length == 0 for w in r.words[1:])


def test_build_Tq_language_is_rotation_aligned():
    # T^q concatenates the same symbols as M from q, so they are equivalent
    M = ex("ex3")
    T = build_Tq(M, "q")
    for t in enumerate_trees(M, "q", EnumerationBudget(max_depth=6)):
        a = expand(evaluate(M, t))
        b = expand(evaluate(T, t))
        assert a == b


# -- periodicity ----------------------------------------------------------


def test_is_periodic_state():
    M5 = ex("ex5a")
    assert expand(is_periodic_state(M5, "q2")) == "ab"
    assert expand(is_periodic_state(M5, "q4")) == "ab"
    assert expand(is_periodic_state(M5, "q1")) == ""  # erasing
    M3 = ex("ex3")
    assert expand(is_periodic_state(M3, "q2")) == "abc"
    assert is_periodic_state(M3, "q") is None  # handle is not empty
    M7 = ex("ex7")
    assert expand(is_periodic_state(M7, "q2")) == "cab"
    assert is_periodic_state(M7, "q") is None


def test_singleton_state_period_is_primitive_root():
    M = parse_ltw('input g:0\naxiom = q(x)\nrule q g = "abab"\n')
    assert expand(is_periodic_state(M, "q")) == "ab"


def test_quasi_periodicity_ex3_frozen():
    M = ex("ex3")
    v = quasi_periodicity(M, "q", "left")
    assert v is not None and v.direction == "left"
    assert expand(v.handle) == "aaaabcabc" and expand(v.period) == "abc"
    v1 = quasi_periodicity(M, "q1", "left")
    assert expand(v1.handle) == "aaabcab" and expand(v1.period) == "cab"
    v2 = quasi_periodicity(M, "q2", "left")
    assert expand(v2.handle) == "abc" and expand(v2.period) == "abc"


def test_quasi_periodicity_right_via_mirror():
    M = mirror(ex("ex3"))
    v = quasi_periodicity(M, "q", "right")
    assert v is not None and v.direction == "right"
    assert expand(v.handle) == "cbacbaaaa" and expand(v.period) == "cba"
    assert quasi_periodicity(M, "q", "left") is None


def test_quasi_periodicity_negative():
    M = ex("ex7")
    assert quasi_periodicity(M, "q", "left") is None
    assert quasi_periodicity(M, "q", "right") is None


def test_quasi_periodicity_matches_brute_evidence():
    for name in ("ex3", "ex5a", "ex6", "ex7"):
        M = ex(name)
        for q in M.states:
            v = quasi_periodicity(M, q, "left")
            if v is None or v.handle.length > 50:
                continue
            Mq = with_axiom_state(M, q)
            outs = [expand(evaluate(Mq, t))
                    for t in enumerate_trees(
                        Mq, q, EnumerationBudget(max_depth=6, max_trees=300))]
            if len(outs) < 2:
                continue
            bv = brute_quasi_periodic(outs, "left")
            assert bv is not None, (name, q)
            assert bv.handle == expand(v.handle)
            if bv.period and v.period.length:
                assert bv.period == expand(v.period)


# -- rule parts -----------------------------------------------------------


def test_part_quasi_periodicity_ex6():
    M = ex("ex6")
    v, M2, hat = rule_part_quasi_periodicity(M, "p", "h", 0)
    assert v is not None
    assert expand(v.handle) == "bc" and expand(v.period) == "abc"
    assert hat == "q__hat"
    T = build_Tq(trim(with_axiom_state(M2, hat)), hat)
    expected = parse_ltw('input f:1 g:0\n'
                         'axiom = "bc" q__hat__T(x)\n'
                         'rule q__hat__T f(x1) = "abc" q__hat__T(x1)\n'
                         'rule q__hat__T g = ""\n')
    assert same_structure(T, expected)


def test_part_quasi_periodicity_ex7():
    M = ex("ex7")
    r = M.rule("q", "h")
    callee, _ = r.calls[0]
    v, _, _ = part_quasi_periodicity(M, callee, r.words[1])
    assert expand(v.handle) == "b" and expand(v.period) == "cab"


def test_part_not_quasi_periodic():
    M = ex("ex3")
    # part (q1, "c"): language aa(abc)^n ab c, quasi-periodic
    v, _, _ = rule_part_quasi_periodicity(M, "q", "f", 0)
    assert v is not None and expand(v.handle) == "aaabcabc"
    # a part with two unrelated letters after stripping is not
    N = parse_ltw('input u:1 n:0 m:0\naxiom = s(x)\n'
                  'rule s u(x1) = p(x1) "z"\n'
                  'rule p n = "a"\nrule p m = "b"\n')
    v2, _, _ = rule_part_quasi_periodicity(trim(N), "s", "u", 0)
    assert v2 is None


# -- pair space -----------------------------------------------------------


def test_co_reachable_pairs_ex5():
    ps = PairSpace(ex("ex5a"), ex("ex5b"))
    assert ps.axiom_pair == ("q0", "q0")
    assert ("q0", "q0") in ps.co
    assert ("q1", "q1") in ps.co and ("q2", "q2") in ps.co
    # mixed pairs never share an input node
    assert ("q1", "q2") not in ps.co


def test_common_tree_is_in_both_domains():
    M1, M2 = ex("ex5a"), ex("ex5b")
    ps = PairSpace(M1, M2)
    for pair in ps.co:
        t = ps.common_tree(pair)
        c1, c2 = pair
        evaluate(with_axiom_state(M1, c1), t)
        evaluate(with_axiom_state(M2, c2), t)


def test_context_lifts_to_axiom():
    M1, M2 = ex("ex5a"), ex("ex5b")
    ps = PairSpace(M1, M2)
    for pair in ps.co:
        sub = ps.common_tree(pair)
        full = ps.context(pair, sub)
        evaluate(M1, full)
        evaluate(M2, full)


def test_domains_equal_positive():
    ps = PairSpace(ex("ex5a"), ex("ex5b"))
    dc = domains_equal(ps)
    assert dc.equal and dc.witness is None


def test_domains_unequal_witness_verified():
    M = ex("ex3")
    N = parse_ltw('input f:1 g:0 h:0\n'
                  'axiom = q(x)\n'
                  'rule q f(x1) = "a" q1(x1) "c"\n'
                  'rule q1 f(x1) = "aa" q2(x1) "ab"\n'
                  'rule q2 f(x1) = "abc" q2(x1)\n'
                  'rule q2 g = "abc"\nrule q2 h = "abc"\n')
    dc = domains_equal(PairSpace(M, trim(N)))
    assert not dc.equal and dc.witness is not None
    t = dc.witness
    defined_m = True
    try:
        evaluate(M, t)
    except Exception:
        defined_m = False
    defined_n = True
    try:
        evaluate(N, t)
    except Exception:
        defined_n = False
    assert defined_m != defined_n


def test_same_ordered():
    A, B = ex("ex5a"), ex("ex5b")
    assert not same_ordered(PairSpace(A, B))  # original call orders differ
    assert same_ordered(PairSpace(A, A))


def test_shortest_domain_tree():
    M = ex("ex3")
    t = shortest_domain_tree(M, "q2")
    assert str(t) == "g"
    assert str(shortest_domain_tree(M, "q")) == "f(f(g))"
