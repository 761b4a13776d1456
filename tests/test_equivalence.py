"""Equivalence decision tests: verdict reasons, verified witnesses, and
the span fixpoint behind every verdict."""

import random

from ltw import analysis, words
from ltw.core import (EmptyTransducer, Ltw, trim, domain_defined, evaluate,
                      with_axiom_state)
from ltw.ltwfile import parse_ltw, print_tree
from ltw.analysis import PairSpace, same_ordered
from ltw.normalize import partial_normal_form
from ltw.equivalence import (decide_equiv, decide_same_ordered_equiv,
                             morphism_equivalence, pair_spans)

from _support import (RuleBudget, chain, mutate, periodic_run_machine,
                      random_cyclic_text, random_layered, reference_pair_spans)


def _load(fixtures, name):
    return parse_ltw((fixtures / f"{name}.ltw").read_text())


# -- positive pairs -----------------------------------------------------------

def test_machine_equivalent_to_its_normal_form(fixtures, golden):
    for fix, gold in (("ex3", "ex3_pnf"), ("ex7", "ex7_pnf")):
        M = _load(fixtures, fix)
        P = parse_ltw((golden / f"{gold}.ltw").read_text())
        v = decide_equiv(M, P)
        assert v.equivalent and v.witness is None
        assert v.detail == "span"


def test_reordered_pair_equivalent(fixtures):
    v = decide_equiv(_load(fixtures, "ex5a"), _load(fixtures, "ex5b"))
    assert v.equivalent and v.detail == "span"


def test_self_equivalence(fixtures):
    for name in ("ex3", "ex5a", "ex6", "ex7"):
        M = _load(fixtures, name)
        v = decide_equiv(M, _load(fixtures, name))
        assert v.equivalent, name


# -- same-ordered entry point -------------------------------------------------

def test_same_ordered_entry_decides_order_mismatch(fixtures):
    # the span test needs no common call order, so neither does its entry
    A = trim(_load(fixtures, "ex5a"))
    B = trim(_load(fixtures, "ex5b"))
    assert not same_ordered(PairSpace(A, B))
    v = decide_same_ordered_equiv(A, B)
    assert v.equivalent and v.detail == "span"


def test_same_ordered_decides_after_normalization(fixtures):
    A = partial_normal_form(trim(_load(fixtures, "ex5a"))).result
    B = partial_normal_form(trim(_load(fixtures, "ex5b"))).result
    assert same_ordered(PairSpace(A, B))
    v = decide_same_ordered_equiv(A, B)
    assert v.equivalent and v.detail == "span"


# -- output witnesses ---------------------------------------------------------

def test_output_difference_witnessed(fixtures):
    M = _load(fixtures, "ex3")
    N = parse_ltw((fixtures / "ex3.ltw").read_text()
                  .replace('"aa" q2(x1) "ab"', '"aa" q2(x1) "ba"'))
    v = decide_equiv(M, N)
    assert not v.equivalent
    assert v.reason == "output" and v.detail == "span"
    t = v.witness
    assert t is not None
    assert domain_defined(M, t) and domain_defined(N, t)
    assert not words.equals(evaluate(M, t), evaluate(N, t))


# -- domain witnesses ---------------------------------------------------------

def test_missing_rule_shrinks_domain(fixtures):
    M = _load(fixtures, "ex7")
    N = parse_ltw("\n".join(
        line for line in (fixtures / "ex7.ltw").read_text().splitlines()
        if not line.startswith("rule q k")))
    v = decide_equiv(M, N)
    assert not v.equivalent and v.reason == "domain"
    t = v.witness
    assert domain_defined(M, t) != domain_defined(N, t)


def test_empty_against_nonempty_domain(fixtures):
    M = _load(fixtures, "ex3")
    # dropping the only nullary rule empties the domain entirely
    N = parse_ltw("\n".join(
        line for line in (fixtures / "ex3.ltw").read_text().splitlines()
        if not line.startswith("rule q2 g")))
    v = decide_equiv(M, N)
    assert not v.equivalent and v.reason == "domain"
    assert v.detail == "one domain is empty"
    assert domain_defined(M, v.witness) and not domain_defined(N, v.witness)


def test_both_domains_empty():
    text = """
input f:1 g:0
axiom = q(x)
rule q f(x1) = "a" q(x1)
"""
    v = decide_equiv(parse_ltw(text), parse_ltw(text))
    assert v.equivalent and v.witness is None
    assert v.detail == "both domains empty"


def test_extra_symbol_enlarges_domain(fixtures):
    M = _load(fixtures, "ex3")
    N = parse_ltw((fixtures / "ex3.ltw").read_text()
                  .replace("input f:1 g:0", "input f:1 g:0 h:0")
                  + 'rule q2 h = "abc"\n')
    v = decide_equiv(M, N)
    assert not v.equivalent and v.reason == "domain"
    assert not domain_defined(M, v.witness) and domain_defined(N, v.witness)


# -- order witnesses ----------------------------------------------------------

ORDER_A = """
input b2:2 u:1 n:0
axiom = q(x)
rule q b2(x1, x2) = p1(x1) p2(x2)
rule p1 u(x1) = "ab" p1(x1)
rule p1 n = "ab"
rule p2 u(x1) = "cd" p2(x1)
rule p2 n = "cd"
"""


def test_order_mismatch_witnessed():
    # an order difference is an output difference with a witness like any other
    A = parse_ltw(ORDER_A)
    B = parse_ltw(ORDER_A.replace("p1(x1) p2(x2)", "p2(x2) p1(x1)"))
    v = decide_equiv(A, B)
    assert not v.equivalent
    assert v.reason == "output" and v.detail == "span"
    t = v.witness
    assert t is not None
    assert not words.equals(evaluate(A, t), evaluate(B, t))


# -- deep recursion -----------------------------------------------------------

# three states in a cycle under a binary symbol: far too many derivations to
# enumerate, yet every pair's span has at most five dimensions
DEEP = """
input b:2 n:0
axiom = q1(x)
rule q1 b(x1, x2) = "a" q2(x1) q2(x2)
rule q1 n = "d"
rule q2 b(x1, x2) = "a" q3(x1) q3(x2)
rule q2 n = "d"
rule q3 b(x1, x2) = "a" q1(x1) q1(x2)
rule q3 n = "d"
"""


def test_deep_recursion_equivalent_for_every_seed():
    for seed in (0, 1, 2):
        words.set_equality_seed(seed)
        v = decide_equiv(parse_ltw(DEEP), parse_ltw(DEEP))
        assert v.equivalent and v.witness is None
        assert v.detail == "span"


def test_sampled_difference_is_exact_and_verified():
    A = parse_ltw(DEEP)
    B = parse_ltw(DEEP.replace('rule q3 b(x1, x2) = "a"',
                               'rule q3 b(x1, x2) = "aa"'))
    v = decide_equiv(A, B)
    assert not v.equivalent
    assert v.reason == "output" and v.detail == "span"
    t = v.witness
    assert not words.equals(evaluate(A, t), evaluate(B, t))


def test_sampled_witness_deterministic_per_seed():
    A = parse_ltw(DEEP)
    mut = DEEP.replace('rule q3 b(x1, x2) = "a"', 'rule q3 b(x1, x2) = "aa"')
    words.set_equality_seed(0)
    v1 = decide_equiv(parse_ltw(DEEP), parse_ltw(mut))
    words.set_equality_seed(0)
    v2 = decide_equiv(parse_ltw(DEEP), parse_ltw(mut))
    assert print_tree(v1.witness) == print_tree(v2.witness)


# -- span internals -----------------------------------------------------------

def test_derivation_trees_live_in_both_domains(fixtures):
    # every basis vector is the raw image of the tree stored with it
    A = trim(_load(fixtures, "ex5a"))
    B = trim(_load(fixtures, "ex5b"))
    ps = PairSpace(A, B)
    assert morphism_equivalence(ps) == ("span", None)
    fp = words.fingerprinter()
    spans = pair_spans(ps)
    assert set(spans) == set(ps.co)
    for (q1, q2), span in spans.items():
        assert 1 <= len(span.vectors) <= 5
        for v, t in zip(span.vectors, span.trees):
            _, h1, p1 = fp.triple(evaluate(with_axiom_state(A, q1), t))
            _, h2, p2 = fp.triple(evaluate(with_axiom_state(B, q2), t))
            assert v == (p1, h1, p2, h2, 1)


def test_morphism_failure_yields_counterexample(fixtures):
    A = partial_normal_form(trim(_load(fixtures, "ex3"))).result
    text = (fixtures / "ex3.ltw").read_text().replace('"abc" q2(x1)',
                                                          '"acb" q2(x1)')
    B = partial_normal_form(trim(parse_ltw(text))).result
    method, t = morphism_equivalence(PairSpace(A, B))
    assert method == "span" and t is not None
    assert not words.equals(evaluate(A, t), evaluate(B, t))


# -- regressions --------------------------------------------------------------

# four mutually recursive states over b:2 u:1 n:0, each entering an 8-state
# unary v-chain; only trees reaching the chain's end, v^8(n), see c8's n-rule
PROBE = """
input b:2 u:1 n:0 v:1
axiom = r0(x)
rule r0 b(x1,x2) = "a" r3(x1) r3(x2)
rule r0 u(x1) = "b" r3(x1)
rule r0 n = "a"
rule r0 v(x1) = c1(x1)
rule r1 b(x1,x2) = "a" r3(x2) r2(x1)
rule r1 u(x1) = "b" r2(x1)
rule r1 n = "a"
rule r1 v(x1) = c1(x1)
rule r2 b(x1,x2) = "a" r1(x1) r1(x2)
rule r2 u(x1) = "b" r0(x1)
rule r2 n = "a"
rule r2 v(x1) = c1(x1)
rule r3 b(x1,x2) = "a" r2(x1) r1(x2)
rule r3 u(x1) = "b" r0(x1)
rule r3 n = "a"
rule r3 v(x1) = c1(x1)
""" + "".join(f'rule c{j} v(x1) = "c" c{min(j + 1, 8)}(x1)\n'
              f'rule c{j} n = "d"\n' for j in range(1, 9))


def test_recursive_probe_chain_end_witnessed():
    A = parse_ltw(PROBE)
    B = parse_ltw(PROBE.replace('rule c8 n = "d"', 'rule c8 n = "e"'))
    v = decide_equiv(A, B)
    assert not v.equivalent and v.reason == "output"
    t = v.witness
    assert "v(v(v(v(v(v(v(v(n))))))))" in print_tree(t)
    assert not words.equals(evaluate(A, t), evaluate(B, t))
    assert decide_equiv(A, parse_ltw(PROBE)).equivalent


def test_long_chain_decided_without_recursion_error():
    v = decide_equiv(chain(640), chain(640))
    assert v.equivalent and v.detail == "span"


# -- the span fixpoint against its plain reading --------------------------------

def _span_cases(fixtures):
    names = ("ex3", "ex5a", "ex5b", "ex6", "ex7", "stress_doubling")
    fx = {n: _load(fixtures, n) for n in names}
    cases = [(M, M) for M in fx.values()] + [(fx["ex5a"], fx["ex5b"])]
    cases += [(chain(k), chain(k)) for k in (2, 5, 9)]
    rng = random.Random(6)
    for _ in range(80):
        M = random_layered(rng, rng.randrange(2, 6))
        cases += [(M, M), (M, mutate(M, rng))]
    cases += [periodic_run_machine(rng) for _ in range(40)]
    for _ in range(80):
        M = parse_ltw(random_cyclic_text(rng, rng.randrange(2, 5)))
        cases += [(M, M), (M, mutate(M, rng))]
    return cases


def test_pair_spans_match_the_reference(fixtures):
    # same basis vectors and trees, in the same order, for every pair; the
    # early-stopped witness is the first failing tree of the full span
    witnesses = 0
    for A, B in _span_cases(fixtures):
        try:
            A, B = trim(A), trim(B)
        except EmptyTransducer:
            continue
        ps = PairSpace(A, B)
        spans, ref = pair_spans(ps), reference_pair_spans(ps)
        assert set(spans) == set(ref)
        for pair, (vectors, trees) in ref.items():
            assert spans[pair].vectors == vectors
            assert list(map(str, spans[pair].trees)) == list(map(str, trees))
        _, t = morphism_equivalence(ps)
        first = next((u for u in ref[ps.axiom_pair][1]
                      if not words.equals(evaluate(A, u), evaluate(B, u))), None)
        assert str(t) == str(first)
        witnesses += t is not None
    assert witnesses >= 40


def _count_products(monkeypatch):
    seen = []
    real = analysis._image

    def image(rule, vecs, p):
        seen.append((id(rule), tuple(vecs)))
        return real(rule, vecs, p)

    monkeypatch.setattr(analysis, "_image", image)
    return seen


def test_each_product_is_evaluated_once(monkeypatch, fixtures):
    # every (pair, rule, combination of child basis vectors) at most once;
    # on a pair that is not equivalent the early stop evaluates fewer
    A = parse_ltw(PROBE)
    B = parse_ltw(PROBE.replace('rule c8 n = "d"', 'rule c8 n = "e"'))
    seen = _count_products(monkeypatch)
    for M1, M2 in ((A, B), (A, A), (parse_ltw(DEEP), parse_ltw(DEEP)),
                   (_load(fixtures, "ex5a"), _load(fixtures, "ex5b"))):
        ps = PairSpace(trim(M1), trim(M2))
        seen.clear()
        pair_spans(ps)
        assert seen and len(set(seen)) == len(seen)
    ps = PairSpace(trim(A), trim(B))
    seen.clear()
    pair_spans(ps)
    full = len(seen)
    seen.clear()
    _, t = morphism_equivalence(ps)
    assert t is not None and len(seen) < full


def _doubling(depth: int, letter: str, *leaves: str) -> Ltw:
    lines = ["input b:2 n:0 c:0", "axiom = q0(x)"]
    lines += [f"rule q{i} b(x1,x2) = q{i + 1}(x1) q{i + 1}(x2)" for i in range(depth)]
    lines += [f'rule q{depth} {leaf} = "{letter}"' for leaf in ("n", *leaves)]
    return parse_ltw("\n".join(lines) + "\n")


def test_shared_witness_verified_at_its_shared_size(monkeypatch):
    # the witness is the full binary tree of depth 30, built from 31 shared
    # subtrees; its re-verification reads each (state, subtree) once
    A, B = _doubling(30, "a"), _doubling(30, "b")
    reads = [0]
    real = Ltw.rule

    def rule(self, state, symbol):
        reads[0] += 1
        return real(self, state, symbol)

    monkeypatch.setattr(Ltw, "rule", rule)
    v = decide_equiv(A, B)
    assert not v.equivalent and v.reason == "output"
    assert reads[0] < 1000
    t = v.witness
    assert not words.equals(evaluate(A, t), evaluate(B, t))
    assert evaluate(A, t).length == 2 ** 30


def test_domain_witness_verified_at_its_shared_size(monkeypatch):
    # only B maps c at its deepest state; the witness is a full binary tree
    # of depth 40 from 41 shared subtrees, so its re-verification, like the
    # whole decision, stays within 2000 lookups of one shared rule budget
    left = [2000]
    real = Ltw.__init__

    def budgeted(self, alphabet, states, axiom, rules, pool):
        real(self, alphabet, states, axiom, RuleBudget(rules, left), pool)

    monkeypatch.setattr(Ltw, "__init__", budgeted)
    A, B = _doubling(40, "a"), _doubling(40, "a", "c")
    v = decide_equiv(A, B)
    assert not v.equivalent and v.reason == "domain"
    assert not domain_defined(A, v.witness) and domain_defined(B, v.witness)
