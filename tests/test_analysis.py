import random
from collections import Counter

import pytest

from ltw import analysis, core, expand, load_ltw, mirror, parse_ltw, trim
from ltw import words as W
from ltw.analysis import (PairSpace, domains_equal, erasing_states,
                          is_erasing, mock_shift_table,
                          part_quasi_periodicity, periodic_word,
                          quasi_periodicity, rule_part_quasi_periodicity,
                          same_ordered, shortest_domain_tree,
                          shortest_nonempty_word, shortest_word,
                          shortest_word_lengths, shortest_words)
from ltw.core import accessible, evaluate, productive_rules, with_axiom_state
from ltw.normalize import hat_state_machine
from ltw.oracle import EnumerationBudget, enumerate_trees, evaluate_explicit

from _support import (brute_quasi_periodic, build_Tq, chain,
                      is_periodic_state, plain_rank, same_structure)
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
            v = quasi_periodicity(M, q)
            single = v is not None and v.period.length == 0
            assert single == (len(outs) == 1)
            if single:
                assert {expand(v.handle)} == outs


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
    # a singleton language is the quasi-periodic case with an empty period
    M = parse_ltw('input g:0 h:0\naxiom = q(x)\nrule q g = "xy"\n'
                  'rule q h = "xy"\n')
    for d in ("left", "right"):
        v = quasi_periodicity(M, "q", d)
        assert expand(v.handle) == "xy" and v.period.length == 0
    assert quasi_periodicity(ex("ex3"), "q").period.length == 3


# -- shifts ---------------------------------------------------------------


def test_mock_shift_table_ex3():
    M = ex("ex3")
    assert mock_shift_table(M, "q") == {"q": 0, "q1": 1, "q2": 3}
    assert mock_shift_table(M, "q1") == {"q1": 0, "q2": 2}


def test_shift_triangle_inequality():
    for name in ("ex3", "ex5a", "ex7"):
        M = ex(name)
        tables = {q: mock_shift_table(M, q) for q in M.states}
        for q in M.states:
            for r, dqr in tables[q].items():
                for p, drp in tables[r].items():
                    assert tables[q][p] <= dqr + drp


def test_shift_additivity_on_chain():
    # unique call paths make the triangle inequality an equality
    M = ex("ex3")
    t = mock_shift_table(M, "q")
    t1 = mock_shift_table(M, "q1")
    assert t["q2"] == t["q1"] + t1["q2"]


def test_shift_table_reads_only_accessible_rules(monkeypatch):
    # edges out of states q cannot reach never fire, so the settle must not
    # be handed them: deep in a chain, that is a handful of edges, not 200
    M = trim(chain(200))
    q = "q190"
    shortest_word_lengths(M)
    sizes = []
    settle = analysis.settle

    def counting(rules):
        rules = list(rules)
        sizes.append(len(rules))
        return settle(rules)

    monkeypatch.setattr(analysis, "settle", counting)
    table = mock_shift_table(M, q)
    acc = accessible(M, q)
    calls = sum(len(r.calls) for p in acc for r in M.rules_of(p))
    assert calls == 11
    assert sum(sizes) <= 1 + calls
    assert set(table) == acc


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


def test_verdicts_after_a_seed_change_read_spans_of_the_new_seed():
    # spans hold fingerprints, so spans cached under seed 0 must not answer
    # for seed 7: read against seed-7 words they would refute every verdict
    M = load_ltw(FIXTURES / "ex7.ltw")
    quasi_periodicity(M, "q", "left")       # caches the spans of q, q1, q2
    W.set_equality_seed(7)
    try:
        for machine in (M, load_ltw(FIXTURES / "ex7.ltw")):
            v = quasi_periodicity(machine, "q1", "left")
            assert (expand(v.handle), expand(v.period)) == ("", "bca")
            assert expand(periodic_word(machine, "q2")) == "cab"
            v = rule_part_quasi_periodicity(machine, "q", "h", 0)
            assert (expand(v.handle), expand(v.period)) == ("b", "cab")
            for q in machine.states:        # each vector is its word's, at seed 7
                span = analysis._state_span(machine, q)
                sums = [W.fingerprinter().summary(w)
                        for w in analysis._basis_words(machine, q)]
                assert [v[:2] for v in span.vectors] == sums
                assert [v[2:4] for v in span.vectors] == sums
    finally:
        W.set_equality_seed(0)


def test_each_analysis_runs_once_per_machine_and_seed(monkeypatch):
    # the memo keeps every result on the machine; a seed change drops them
    # all, so each family then runs exactly once more
    M = ex("ex5a")
    runs = Counter()
    for module, name in ((analysis, "settle"), (core, "settle"),
                         (analysis, "pair_spans"), (analysis, "_fits")):
        def counting(*args, _f=getattr(module, name), _key=(module, name)):
            runs[_key] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counting)

    def shortest_family():
        for q in M.states:
            shortest_word_lengths(M)[q], shortest_words(M)[q]
            shortest_word(M, q), shortest_nonempty_word(M, q), is_erasing(M, q)
        erasing_states(M)

    def the_rest():
        productive_rules(M)
        for q in M.states:
            periodic_word(M, q), shortest_domain_tree(M, q)

    shortest_family()
    shortest_family()
    assert runs == {(analysis, "settle"): 1}    # one settle for the family
    the_rest()
    the_rest()
    once = dict(runs)
    assert set(once) == {(analysis, "settle"), (core, "settle"),
                         (analysis, "pair_spans"), (analysis, "_fits")}
    W.set_equality_seed(7)
    try:
        for read in (shortest_family, the_rest, shortest_family, the_rest):
            read()
        assert runs == {key: 2 * n for key, n in once.items()}
    finally:
        W.set_equality_seed(0)


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


def test_quasi_periodicity_rejects_a_bad_direction():
    with pytest.raises(ValueError, match="direction must be left or right, not 'up'"):
        quasi_periodicity(ex("ex3"), "q", "up")


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


def _admits(out: str, handle: str, period: str, direction: str) -> bool:
    """`out` lies in handle.period* (left) or period*.handle (right)."""
    if direction == "right":
        out, handle, period = out[::-1], handle[::-1], period[::-1]
    rest = out[len(handle):]
    powers = period * (len(rest) // len(period)) if period else ""
    return out.startswith(handle) and rest == powers


def test_verdicts_match_brute_evidence_on_cyclic_machines():
    # cyclic machines whose words are rotations of one period: a positive
    # verdict must admit every output up to depth 5; when the outputs hold
    # q's shortest word and still refute quasi-periodicity, the verdict
    # must be None (and so must periodicity, which implies it)
    from _support import random_cyclic_text
    rng = random.Random(11)
    seen = Counter()
    for _ in range(60):
        M = trim(parse_ltw(random_cyclic_text(rng, rng.randrange(2, 5))))
        for q in M.states:
            Mq = with_axiom_state(M, q)
            outs = {evaluate_explicit(Mq, t) for t in enumerate_trees(
                Mq, q, EnumerationBudget(max_depth=5, max_trees=400))}
            outs = sorted(outs - {None})
            shortest_seen = expand(shortest_word(M, q)) in outs
            for d in ("left", "right"):
                v = quasi_periodicity(M, q, d)
                refuted = shortest_seen and brute_quasi_periodic(outs, d) is None
                if v is not None:
                    assert not refuted, (q, d, outs)
                    h, p = expand(v.handle), expand(v.period)
                    assert all(_admits(o, h, p, d) for o in outs), (q, d, outs)
                seen[d, v is not None, refuted] += 1
            pi = is_periodic_state(M, q)
            refuted = shortest_seen and brute_quasi_periodic(outs) is None
            if pi is not None:
                assert not refuted, (q, outs)
                assert all(_admits(o, "", expand(pi), "left") for o in outs), (q, outs)
            seen["periodic", pi is not None, refuted] += 1
    for d in ("left", "right", "periodic"):
        assert seen[d, True, False] and seen[d, False, True], seen


def test_companion_is_equivalent_whenever_quasi_periodic():
    # the normal form rewrites a quasi-periodic state by its companion
    # without re-checking it, so the verdict must imply the equivalence
    from _support import random_cyclic_text
    from ltw.equivalence import decide_same_ordered_equiv
    rng = random.Random(12)
    machines = [ex(name) for name in ("ex3", "ex5a", "ex6", "ex7")]
    machines += [trim(parse_ltw(random_cyclic_text(rng, rng.randrange(2, 5))))
                 for _ in range(60)]
    checked = 0
    for M in machines:
        for q in M.states:
            v = quasi_periodicity(M, q, "left")
            if v is None:
                continue
            Mq = with_axiom_state(M, q)
            T = build_Tq(Mq, q)
            assert decide_same_ordered_equiv(Mq, T).equivalent, q
            pi = is_periodic_state(T, q + "__T")
            assert pi is not None and W.equals(pi, v.period)
            checked += 1
    assert checked > 50


# -- rule parts -----------------------------------------------------------


def test_part_quasi_periodicity_ex6():
    M = ex("ex6")
    v = rule_part_quasi_periodicity(M, "p", "h", 0)
    assert v is not None
    assert expand(v.handle) == "bc" and expand(v.period) == "abc"
    r = M.rule("p", "h")
    M2, hat = hat_state_machine(M, r.calls[0][0], r.words[1])
    assert hat == "q__hat"
    T = build_Tq(trim(with_axiom_state(M2, hat)), hat)
    expected = parse_ltw('input f:1 g:0\n'
                         'axiom = "bc" q__hat__T(x)\n'
                         'rule q__hat__T f(x1) = "abc" q__hat__T(x1)\n'
                         'rule q__hat__T g = ""\n')
    assert same_structure(T, expected)


@pytest.mark.parametrize("state, symbol, pos", [
    ("p", "h", 1), ("p", "h", -1), ("q", "g", 0), ("p", "f", 0)])
def test_rule_part_rejects_a_bad_position(state, symbol, pos):
    with pytest.raises(ValueError, match=f"no call {pos} in rule {state},{symbol}"):
        rule_part_quasi_periodicity(ex("ex6"), state, symbol, pos)


def test_part_quasi_periodicity_ex7():
    M = ex("ex7")
    r = M.rule("q", "h")
    callee, _ = r.calls[0]
    v = part_quasi_periodicity(M, callee, r.words[1])
    assert expand(v.handle) == "b" and expand(v.period) == "cab"


def test_part_not_quasi_periodic():
    M = ex("ex3")
    # part (q1, "c"): language aa(abc)^n ab c, quasi-periodic
    v = rule_part_quasi_periodicity(M, "q", "f", 0)
    assert v is not None and expand(v.handle) == "aaabcabc"
    # a part with two unrelated letters after stripping is not
    N = parse_ltw('input u:1 n:0 m:0\naxiom = s(x)\n'
                  'rule s u(x1) = p(x1) "z"\n'
                  'rule p n = "a"\nrule p m = "b"\n')
    v2 = rule_part_quasi_periodicity(trim(N), "s", "u", 0)
    assert v2 is None


def test_part_verdicts_match_the_hat_state_reference():
    # a part's verdict reads its callee's span times u; the reference reads
    # the span of a hat state with language L(callee).u restarted at it
    from _support import mutate, random_cyclic_text
    rng = random.Random(23)
    seen = Counter()
    for _ in range(40):
        M = parse_ltw(random_cyclic_text(rng, rng.randrange(2, 5)))
        for M in (M, mutate(M, rng)):
            for r in M.rules.values():
                for (callee, _), u in zip(r.calls, r.words[1:]):
                    v = part_quasi_periodicity(M, callee, u)
                    R2, rhat = hat_state_machine(M, callee, u)
                    ref = quasi_periodicity(with_axiom_state(R2, rhat), rhat, "left")
                    seen[ref is not None] += 1
                    if ref is None:
                        assert v is None
                        continue
                    assert W.equals(v.handle, ref.handle) and v.direction == "left"
                    assert W.equals(v.period, ref.period)
    assert seen[True] > 50 and seen[False] > 50


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
    assert domains_equal(ps) is None


def test_domains_unequal_witness_verified():
    M = ex("ex3")
    N = parse_ltw('input f:1 g:0 h:0\n'
                  'axiom = q(x)\n'
                  'rule q f(x1) = "a" q1(x1) "c"\n'
                  'rule q1 f(x1) = "aa" q2(x1) "ab"\n'
                  'rule q2 f(x1) = "abc" q2(x1)\n'
                  'rule q2 g = "abc"\nrule q2 h = "abc"\n')
    diff = domains_equal(PairSpace(M, trim(N)))
    assert diff is not None
    t, detail = diff
    assert detail == "symbol h offered on one side only (or at a different arity)"
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


# -- the span kernel ----------------------------------------------------------

def _assert_add_matches_plain_rank(vectors):
    # one _Span fed `vectors` keeps exactly those that raise the rank of the
    # ones kept before them, and then holds them as its basis
    p = W.fingerprinter().prime
    span, kept = analysis._Span(), []
    for v in vectors:
        grows = plain_rank(kept + [v]) > len(kept)
        assert span.add(v, p) == grows, (kept, v)
        if grows:
            kept.append(v)
    assert span.vectors == kept


def _combination(rng, vectors, coefficients):
    p = W.fingerprinter().prime
    out = [0] * len(vectors[0])
    for v in vectors:
        c = rng.choice(coefficients)
        out = [(a + c * b) % p for a, b in zip(out, v)]
    return out


def test_span_add_keeps_exactly_what_raises_the_rank():
    # pair vectors always have P1 != 0 and C = 1, so they never reach a zero
    # vector or a first pivot past column 0; these cases do
    p = W.fingerprinter().prime
    rng = random.Random(7)
    for D in (1, 5, 6, 12):
        unit = [[int(i == j) for j in range(D)] for i in range(D)]
        zero = [0] * D
        v = [rng.randrange(1, p) for _ in range(D)]
        _assert_add_matches_plain_rank([zero, zero, v, zero, [2 * a % p for a in v],
                                        [(p - 1) * a % p for a in v]])
        # the first nonzero coordinate at column 2, then at the last column
        for c in {min(2, D - 1), D - 1}:
            w = [0] * c + [rng.randrange(1, p) for _ in range(D - c)]
            _assert_add_matches_plain_rank([w, [3 * a % p for a in w], unit[-1],
                                            unit[0], [(a + b) % p for a, b in zip(w, unit[0])]])
        # saturation: every unit vector but the first, then v fills the
        # space, and every vector after it is rejected
        tail = [_combination(rng, unit, (0, 1, p - 1, rng.randrange(p))) for _ in range(D)]
        _assert_add_matches_plain_rank(unit[1:] + [v] + tail + [zero, unit[0]])


def test_span_add_matches_plain_rank_on_random_sequences():
    # vectors from random subspaces, so that both branches run often, with
    # entries and coefficients drawn from 0, 1, p - 1 and random residues
    p = W.fingerprinter().prime
    rng = random.Random(11)
    for D in (1, 5, 6, 12):
        for _ in range(40):
            draw = (0, 1, p - 1, rng.randrange(p))
            gens = [[rng.choice(draw) for _ in range(D)]
                    for _ in range(rng.randrange(1, D + 2))]
            seq = [_combination(rng, gens, draw) if rng.random() < 0.6
                   else rng.choice(gens) for _ in range(2 * D + 2)]
            _assert_add_matches_plain_rank(seq)
