"""Equivalence decision tests: verdict reasons, verified witnesses, and
the span fixpoint behind every verdict."""

import hashlib
import random
from collections import Counter

import pytest

from ltw import analysis, core, oracle, words
from ltw.core import (EmptyTransducer, Ltw, Rule, trim, domain_defined,
                      evaluate, with_axiom_state)
from ltw.ltwfile import load_ltw, parse_ltw, print_tree
from ltw.analysis import (PairSpace, domains_equal, same_ordered,
                          shortest_domain_tree)
from ltw.normalize import partial_normal_form
from ltw.equivalence import (EquivVerdict, decide_equiv,
                             decide_same_ordered_equiv, morphism_equivalence,
                             pair_spans)

from _support import (RuleBudget, chain, count_products, mutate,
                      periodic_run_machine, plain_rank, random_cyclic_text,
                      random_layered, random_layered_text, reference_pair_spans,
                      wide_pair, with_junk)


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


def _edited(M, key, word=None):
    """M in its own pool without the rule `key`, or with its last word
    replaced by `word`."""
    rules = dict(M.rules)
    r = rules.pop(key)
    if word is not None:
        rules[key] = Rule(r.state, r.symbol, r.words[:-1] + (M.pool.literal(word),),
                          r.calls)
    return M.with_(rules=rules)


@pytest.mark.parametrize("name, key, word, reason", [
    ("ex3", ("q2", "g"), None, "domain"),       # an empty domain
    ("ex7", ("q", "k"), None, "domain"),
    ("ex3", ("q1", "f"), "ba", "output"),
])
def test_a_witness_that_does_not_separate_is_refused(monkeypatch, fixtures,
                                                     name, key, word, reason):
    # the decision finds its witness without reading a rule by key, so once
    # both machines run on the rules of the first, the re-run of the
    # witness finds no difference and the verdict is refused
    M = _load(fixtures, name)
    N = _edited(M, key, word)
    assert decide_equiv(M, N).reason == reason
    monkeypatch.setattr(Ltw, "rule", lambda self, q, f: M.rules.get((q, f)))
    with pytest.raises(RuntimeError, match=f"^{reason} witness failed verification$"):
        decide_equiv(M, N)


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
            p1, h1 = fp.summary(evaluate(with_axiom_state(A, q1), t))
            p2, h2 = fp.summary(evaluate(with_axiom_state(B, q2), t))
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


def _assert_same_subspaces(spans, ref):
    # both bases independent, of one size, and each inside the other's span
    assert set(spans) == set(ref)
    for pair, (vectors, _) in ref.items():
        got = spans[pair].vectors
        assert plain_rank(got) == len(got) == len(vectors) == plain_rank(got + vectors)


def _reference_failure(ps, ref):
    """The first tree of the reference basis at the axiom pair on which the
    two machines disagree, or None."""
    return next((u for u in ref[ps.axiom_pair][1]
                 if not words.equals(evaluate(ps.M1, u), evaluate(ps.M2, u))), None)


def test_pair_spans_match_the_reference(fixtures):
    # the same subspace for every pair, basis against basis; the early stop
    # finds a witness exactly when the reference basis holds one, and the
    # witness is re-run on both machines
    witnesses = 0
    for A, B in _span_cases(fixtures):
        try:
            A, B = trim(A), trim(B)
        except EmptyTransducer:
            continue
        ps = PairSpace(A, B)
        ref = reference_pair_spans(ps)
        _assert_same_subspaces(pair_spans(ps), ref)
        _, t = morphism_equivalence(ps)
        assert (t is None) == (_reference_failure(ps, ref) is None)
        if t is not None:
            assert not words.equals(evaluate(A, t), evaluate(B, t))
            witnesses += 1
    assert witnesses >= 40


def test_pair_spans_match_the_reference_under_a_second_seed(fixtures):
    # other fingerprints, so other vectors reach every membership test
    words.set_equality_seed(1)
    test_pair_spans_match_the_reference(fixtures)


def test_span_bases_are_pinned(fixtures):
    # the reference test above compares subspaces only; this pins every
    # pair's basis vectors and their trees in basis order, which picks the
    # witnesses, and the early stop's witness, on every case above at
    # fingerprint seed 0
    digest = hashlib.sha256()
    for A, B in _span_cases(fixtures):
        try:
            A, B = trim(A), trim(B)
        except EmptyTransducer:
            continue
        ps = PairSpace(A, B)
        for pair, sp in pair_spans(ps).items():
            trees = [print_tree(t) for t in sp.trees]
            digest.update(repr((pair, [tuple(v) for v in sp.vectors], trees)).encode())
        _, t = morphism_equivalence(ps)
        digest.update(b"-" if t is None else print_tree(t).encode())
    assert digest.hexdigest() == (
        "a3664802eeafe3396452109506a3c9b73ccefbfcb92f57770d81429cf328997b")


def test_wide_machines_match_the_reference_and_the_oracle():
    # rules of arity 3-6 whose sides read the slots in orders of their own:
    # the only machines here that fold children into several runs of side 2
    rng = random.Random(17)
    budget = oracle.EnumerationBudget(max_depth=5, max_trees=20000)
    pairs = []
    for _ in range(100):
        A, B = wide_pair(rng)
        pairs += [(A, B), (A, mutate(A, rng)), (A, mutate(B, rng))]
    verdicts, brute = [], 0
    for A, B in pairs:
        v = decide_equiv(A, B)
        verdicts.append(v.equivalent)
        if v.reason == "domain":
            assert domain_defined(A, v.witness) != domain_defined(B, v.witness)
        elif v.reason == "output":
            assert not words.equals(evaluate(A, v.witness), evaluate(B, v.witness))
        T1, T2 = trim(A), trim(B)
        ps = PairSpace(T1, T2)
        if domains_equal(ps) is None:
            ref = reference_pair_spans(ps)
            _assert_same_subspaces(pair_spans(ps), ref)
            assert v.equivalent == (_reference_failure(ps, ref) is None)
        else:
            assert v.reason == "domain"
        if A.alphabet["w"] <= 4 and len(A.states) <= 3 and brute < 60:
            assert oracle.brute_equiv(A, B, budget).equivalent == v.equivalent
            brute += 1
    assert len(pairs) >= 300 and brute == 60
    assert 60 <= sum(verdicts) <= len(pairs) - 60


def test_each_product_is_evaluated_once(monkeypatch, fixtures):
    # every (step, partial or pair vector, child vector) at most once, a
    # first child's frames included; on a pair that is not equivalent the
    # early stop evaluates under a third of the full fixpoint's products,
    # since the depth-first stacks climb from the chain's end to the axiom
    # pair along one chain of products.  The counts on PROBE are pinned
    A = parse_ltw(PROBE)
    B = parse_ltw(PROBE.replace('rule c8 n = "d"', 'rule c8 n = "e"'))
    seen = count_products(monkeypatch)
    rng = random.Random(3)
    cases = [(A, B), (A, A), (parse_ltw(DEEP), parse_ltw(DEEP)),
             (_load(fixtures, "ex5a"), _load(fixtures, "ex5b"))]
    cases += [wide_pair(rng) for _ in range(20)]
    counts = []
    for M1, M2 in cases:
        ps = PairSpace(trim(M1), trim(M2))
        seen.clear()
        pair_spans(ps)
        assert seen and len(set(seen)) == len(seen)
        counts.append(len(seen))
    assert counts[:2] == [130, 84]
    ps = PairSpace(trim(A), trim(B))
    seen.clear()
    _, t = morphism_equivalence(ps)
    assert t is not None and len(seen) <= counts[0] // 3, (len(seen), counts[0])
    assert len(seen) == 28
    assert print_tree(t) == "v(v(v(v(v(v(v(v(n))))))))"


def _wide_family(k: int, order=None, chain: int = 0) -> Ltw:
    """q f(x1..xk) = q(x1) "c" ... q(xk) "c" with q a = "a" and q b = "bb",
    the calls made in `order` (default 1..k); with `chain` = m > 0, also
    q g(x1) = "d" p1(x1), p<i> g(x1) = "d" p<i+1>(x1) and p<m> a = "a"."""
    xs = ",".join(f"x{s}" for s in range(1, k + 1))
    body = " ".join(f'q(x{s}) "c"' for s in order or range(1, k + 1))
    text = (f"input f:{k} a:0 b:0{' g:1' if chain else ''}\naxiom = q(x)\n"
            f'rule q f({xs}) = {body}\nrule q a = "a"\nrule q b = "bb"\n')
    if chain:
        text += "".join(f'rule {"q" if i == 0 else f"p{i}"} g(x1) = "d" p{i + 1}(x1)\n'
                        for i in range(chain))
        text += f'rule p{chain} a = "a"\n'
    return parse_ltw(text)


def test_products_grow_linearly_in_arity(monkeypatch):
    # the whole fixpoint of the k-ary family against itself in the same
    # order, reversed, and with one adjacent swap: a constant number of
    # products per child; side 1 interleaved as 2,4,..,k,1,3,..,k-1 against
    # side 2 in order meets the README's bound with m_j = min(j, k + 1 - j)
    seen = count_products(monkeypatch)

    def products(side1, side2):
        seen.clear()
        spans = pair_spans(PairSpace(side1, side2))
        return len(seen), len(spans[("q", "q")].vectors)

    for kind in ("same", "reversed", "swap"):
        counts = []
        for k in range(4, 13):
            order = list(range(1, k + 1))
            if kind == "reversed":
                order.reverse()
            elif kind == "swap":
                order[1], order[2] = order[2], order[1]
            counts.append(products(_wide_family(k), _wide_family(k, order))[0])
        steps = {b - a for a, b in zip(counts, counts[1:])}
        assert len(steps) == 1 and steps.pop() <= 25, (kind, counts)
        first, step = {"same": (-6, 9), "reversed": (-12, 16), "swap": (12, 16)}[kind]
        assert counts == [first + step * k for k in range(4, 13)], (kind, counts)
    for k in (4, 6, 8):
        interleaved = list(range(2, k + 1, 2)) + list(range(1, k + 1, 2))
        n, c = products(_wide_family(k, interleaved), _wide_family(k))
        bound = c + c * c + sum(c * (3 + 3 ** min(j, k + 1 - j)) for j in range(2, k))
        assert n <= bound, (k, n, bound)


def test_interleaved_refutation_stops_early(monkeypatch):
    # the 16-ary family read in bit-reversal order against in order, with
    # leaves "a", "bb" and "c": every partial span lives in dimension
    # 3 + 3**8, and a full sweep of the lower vectors takes about 2000
    # products there; the depth-first stacks refute in about a hundred
    k = 16
    bitrev = [1, 9, 5, 13, 3, 11, 7, 15, 2, 10, 6, 14, 4, 12, 8, 16]
    xs = ",".join(f"x{s}" for s in range(1, k + 1))

    def side(order):
        body = " ".join(f'q(x{s}) "a"' for s in order)
        return parse_ltw(f"input f:{k} a:0 b:0 c:0\naxiom = q(x)\n"
                         f'rule q f({xs}) = {body}\nrule q a = "a"\n'
                         'rule q b = "bb"\nrule q c = "c"\n')

    A, B = side(bitrev), side(range(1, k + 1))
    seen = count_products(monkeypatch, limit=150)
    v = decide_equiv(A, B)
    assert not v.equivalent and v.reason == "output" and len(seen) == 93
    assert not words.equals(evaluate(A, v.witness), evaluate(B, v.witness))


def test_wide16_fixture_is_decided_both_ways(fixtures):
    text = (fixtures / "wide16.ltw").read_text()
    assert decide_equiv(parse_ltw(text), parse_ltw(text)).equivalent
    other = parse_ltw(text.replace('rule q b = "bb"', 'rule q b = "ba"'))
    v = decide_equiv(parse_ltw(text), other)
    assert not v.equivalent and v.reason == "output"
    assert not words.equals(evaluate(parse_ltw(text), v.witness), evaluate(other, v.witness))


def _doubling(depth: int, letter: str, *leaves: str) -> Ltw:
    lines = ["input b:2 n:0 c:0", "axiom = q0(x)"]
    lines += [f"rule q{i} b(x1,x2) = q{i + 1}(x1) q{i + 1}(x2)" for i in range(depth)]
    lines += [f'rule q{depth} {leaf} = "{letter}"' for leaf in ("n", *leaves)]
    return parse_ltw("\n".join(lines) + "\n")


def test_shared_witness_verified_at_its_shared_size(monkeypatch):
    # the witness is the full binary tree of depth 30, built from 31 shared
    # subtrees; its re-verification reads each (state, subtree)'s rule once
    # per machine, and nothing else in the decision reads a rule by key
    A, B = _doubling(30, "a"), _doubling(30, "b")
    reads = [0]
    real = Ltw.rule

    def rule(self, state, symbol):
        reads[0] += 1
        return real(self, state, symbol)

    monkeypatch.setattr(Ltw, "rule", rule)
    v = decide_equiv(A, B)
    assert not v.equivalent and v.reason == "output"
    assert reads[0] == 2 * 31
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


def test_every_rule_pair_gets_a_step_table(monkeypatch):
    # the k-ary family against its reversal stops at its first failing
    # f-tree, which the near stack builds from q's leaves while the far
    # stack climbs the unary chain under q one level per turn, so the
    # stopped fixpoint never reads the rules at the chain's top and its
    # witness has no g node (one stack, deepest leaves first, would read
    # them all and put the chain into the witness).  Every rule pair with
    # children is registered before the fixpoint starts, whether it stops
    # early or runs to the end: the word frames of its first child on both
    # sides, and, for the f rule pair alone, a _steps table with one step
    # per later child, which frames that child on both sides too
    seen = count_products(monkeypatch)
    frames, built = [], []
    real_frame, real_steps = analysis._frame, analysis._steps

    def frame(*args):
        frames.append(len(seen))
        return real_frame(*args)

    def steps(*args):
        table = real_steps(*args)
        built.append(table)
        return table

    monkeypatch.setattr(analysis, "_frame", frame)
    monkeypatch.setattr(analysis, "_steps", steps)
    for k in (4, 6, 8):
        m = 3 * k + 5
        A = _wide_family(k, chain=m)
        B = _wide_family(k, list(range(k, 0, -1)), chain=m)
        ps = PairSpace(A, B)
        arities = sorted(len(kids) for pair in ps.co
                         for _, kids, _, _ in ps.rule_pairs[pair] if kids)
        with_children = len(arities)
        assert arities == [1] * m + [k]
        for stopped in (True, False):
            frames.clear()
            built.clear()
            seen.clear()
            if stopped:
                _, t = morphism_equivalence(ps)
                assert t is not None and "g(" not in print_tree(t)
                assert not words.equals(evaluate(A, t), evaluate(B, t))
            else:
                pair_spans(ps)
            assert frames == [0] * 2 * (with_children + k - 1)
            assert [len(table) for table in built] == [k - 1]
            read = {key for key, partial, _ in seen if partial is None}
            if stopped:
                assert 2 <= len(read) < with_children
            else:
                assert len(read) == with_children


# -- machines as loaded -------------------------------------------------------

def _decide_on_trimmed(M1, M2) -> EquivVerdict:
    """decide_equiv on trim(M1) and trim(M2); an axiom state with an empty
    domain, which trim refuses, is decided by the empty-domain rules."""
    T1, T2 = [], []
    for M, T in ((M1, T1), (M2, T2)):
        try:
            T.append(trim(M))
        except EmptyTransducer:
            pass
    if not T1 and not T2:
        return EquivVerdict(True, detail="both domains empty")
    if not T1 or not T2:
        T = (T1 or T2)[0]
        return EquivVerdict(False, reason="domain", detail="one domain is empty",
                            witness=shortest_domain_tree(T, T.axiom[1]))
    return decide_equiv(T1[0], T2[0])


def _assert_verified(v, A, B):
    if v.reason == "domain":
        assert domain_defined(A, v.witness) != domain_defined(B, v.witness)
    elif v.reason == "output":
        assert not words.equals(evaluate(A, v.witness), evaluate(B, v.witness))


def _redirected(M: Ltw, rng) -> Ltw:
    """M with one call redirected to a new state y that has one nullary
    rule, so the pair of the old callee and y may own no common tree."""
    keys = sorted(k for k, r in M.rules.items() if r.calls)
    if not keys:
        return M
    r = M.rules[keys[rng.randrange(len(keys))]]
    calls = list(r.calls)
    i = rng.randrange(len(calls))
    calls[i] = ("y", calls[i][1])
    f = rng.choice([f for f, n in M.alphabet.items() if n == 0])
    rules = dict(M.rules)
    rules[r.state, r.symbol] = Rule(r.state, r.symbol, r.words, tuple(calls))
    rules["y", f] = Rule("y", f, (M.pool.literal("b"),), ())
    return M.with_(states=M.states + ("y",), rules=rules)


def test_untrimmed_machines_decide_as_their_trimmed_copies():
    # inaccessible and unproductive states, rules that call an unproductive
    # state, and unproductive axioms on one side or both: decide_equiv on
    # the machines as loaded gives the verdict, reason, detail and witness
    # it gives on their trimmed copies, and every witness holds on the
    # machines as loaded
    rng = random.Random(23)
    kinds = Counter()
    for i in range(600):
        n = rng.randrange(1, 5)
        M = parse_ltw(random_layered_text(rng, n) if i % 2 else random_cyclic_text(rng, n))
        edit = rng.random()
        N = mutate(M, rng) if edit < 0.4 else _redirected(M, rng) if edit < 0.7 else M
        empty = rng.random()
        A = with_junk(M, rng, empty_axiom=empty < 0.06)
        B = with_junk(N, rng, empty_axiom=empty < 0.03 or 0.06 <= empty < 0.09)
        v, ref = decide_equiv(A, B), _decide_on_trimmed(A, B)
        assert ((v.equivalent, v.reason, v.detail, str(v.witness))
                == (ref.equivalent, ref.reason, ref.detail, str(ref.witness))), i
        _assert_verified(v, A, B)
        kinds[v.reason, v.detail.split()[0]] += 1
    assert kinds[None, "span"] >= 100 and kinds["output", "span"] >= 60
    assert kinds["domain", "symbol"] >= 100 and kinds["domain", "slot"] >= 8
    assert kinds["domain", "one"] >= 10 and kinds[None, "both"] >= 5


class _Passes(dict):
    """A rule table that counts the passes over all of its rules."""

    def __init__(self, rules, passes: list[int]):
        super().__init__(rules)
        self.passes = passes

    def values(self):
        self.passes[0] += 1
        return super().values()

    def items(self):
        self.passes[0] += 1
        return super().items()


def test_check_runs_one_pair_pass(monkeypatch, fixtures):
    # decide_equiv makes no trimmed copy and walks no accessibility: it
    # reads each machine's rules in one pass, for its productive rules, and
    # PairSpace builds no tree; only a domain witness asks for common trees
    def refuse(*args):
        raise AssertionError("decide_equiv trimmed a machine")

    monkeypatch.setattr(core, "trim", refuse)
    monkeypatch.setattr(core, "accessible", refuse)
    monkeypatch.setattr(analysis, "accessible", refuse)
    passes, trees, asked = [0], [0], []
    real_tree, real_common = analysis.Tree, PairSpace.common_tree

    def tree(*args):
        trees[0] += 1
        return real_tree(*args)

    def common_tree(self, pair):
        asked.append(pair)
        return real_common(self, pair)

    monkeypatch.setattr(PairSpace, "common_tree", common_tree)
    paths = sorted(fixtures.glob("*.ltw"))
    reasons = Counter()
    for a in paths:
        for b in paths:
            A, B = load_ltw(a), load_ltw(b)
            monkeypatch.setattr(analysis, "Tree", tree)
            PairSpace(A, B)
            monkeypatch.setattr(analysis, "Tree", real_tree)
            assert trees[0] == 0, (a.stem, b.stem)
            A, B = (M.with_(rules=_Passes(M.rules, passes)) for M in (load_ltw(a), load_ltw(b)))
            passes[0] = 0
            asked.clear()
            v = decide_equiv(A, B)
            assert passes[0] == 2, (a.stem, b.stem)
            assert v.reason == "domain" or not asked, (a.stem, b.stem)
            _assert_verified(v, A, B)
            again = decide_equiv(A, B)
            assert str(again.witness) == str(v.witness) and passes[0] == 2
            reasons[v.reason] += 1
    assert reasons[None] >= len(paths) and reasons["domain"] and reasons["output"]
