import random
from collections import defaultdict

import pytest

from ltw import Tree, evaluate, expand, load_ltw, parse_ltw, parse_tree
from ltw import words as W
from ltw.equivalence import decide_equiv
from ltw.oracle import (EnumerationBudget, brute_equiv, enumerate_trees,
                        evaluate_explicit, live_tree_machine)

from _support import (RuleBudget, brute_quasi_periodic, enumerate_all_trees,
                      every_tree_machine, is_live, mutate, random_cyclic_text,
                      random_layered, string_primitive_root, tree_depth,
                      wide_pair)

from conftest import FIXTURES


def ex(name):
    return load_ltw(FIXTURES / f"{name}.ltw")


# -- enumeration ---------------------------------------------------------


def test_enumerate_ex3_domain():
    M = ex("ex3")
    trees = enumerate_trees(M, budget=EnumerationBudget(max_depth=5))
    texts = [str(t) for t in trees]
    assert texts == ["f(f(g))", "f(f(f(g)))", "f(f(f(f(g))))"]


def all_trees(alphabet_items, budget):
    """Every tree over the alphabet, as brute_equiv enumerates them."""
    return list(enumerate_trees(every_tree_machine(dict(alphabet_items)), budget=budget))


def test_enumerate_depth_major_unary():
    trees = all_trees([("u", 1), ("n", 0)], EnumerationBudget(max_depth=4))
    assert [str(t) for t in trees] == ["n", "u(n)", "u(u(n))", "u(u(u(n)))"]


def test_enumerate_binary_counts():
    # level sizes for one binary and one nullary symbol follow the
    # "all children shallower, at least one of maximal depth" recurrence
    budget = EnumerationBudget(max_depth=4, max_trees=10 ** 6)
    trees = all_trees([("b", 2), ("n", 0)], budget)
    by_depth = {}
    for t in trees:
        d = tree_depth(t)
        by_depth[d] = by_depth.get(d, 0) + 1
    assert by_depth[1] == 1
    assert by_depth[2] == 1            # b(n,n)
    assert by_depth[3] == 2 * 2 - 1    # pairs over {n, b(n,n)} minus shallow
    c3 = 1 + 1 + 3
    assert by_depth[4] == c3 * c3 - 2 * 2
    # no duplicates
    assert len(set(map(str, trees))) == len(trees)


def test_enumerate_budget_prefix_stable():
    big = all_trees([("b", 2), ("n", 0)],
                    EnumerationBudget(max_depth=5, max_trees=500))
    small = all_trees([("b", 2), ("n", 0)],
                      EnumerationBudget(max_depth=5, max_trees=40))
    assert [str(t) for t in small] == [str(t) for t in big[:40]]
    assert len(small) == 40


def _same_trees(a, b) -> bool:
    """Equal tree lists, read in time linear in their arity: each list holds
    the children of its trees before the trees, so two lists are equal when
    each pair of trees has one symbol and children at the same positions."""
    pa = {id(t): i for i, t in enumerate(a)}
    pb = {id(t): i for i, t in enumerate(b)}
    return len(a) == len(b) and all(
        x.symbol == y.symbol and [pa[id(c)] for c in x.children]
        == [pb[id(c)] for c in y.children] for x, y in zip(a, b))


def test_one_state_machine_enumerates_like_the_reference():
    # random alphabets, nullary symbols sometimes missing, and budgets from
    # one tree to the oracle's default
    rng = random.Random(31)
    for case in range(540):
        items = [(f"s{i}", rng.choice([0, 0, 1, 2, 3]))
                 for i in range(rng.randrange(1, 6))]
        budget = EnumerationBudget(max_depth=case % 6 + 1,
                                   max_trees=(1, 2, 5, 17, 100, 20000)[case // 6 % 6])
        assert _same_trees(all_trees(items, budget),
                           enumerate_all_trees(items, budget)), (items, budget)
    trees = all_trees([("b", 2), ("n", 0)], EnumerationBudget(max_depth=3))
    assert [str(t) for t in trees] == \
        ["n", "b(n,n)", "b(b(n,n),n)", "b(b(n,n),b(n,n))", "b(n,b(n,n))"]
    assert not _same_trees(trees, trees[:2] + [trees[3], trees[2], trees[4]])


def test_enumerate_trees_respects_domain():
    M = ex("ex7")
    trees = enumerate_trees(M, budget=EnumerationBudget(max_depth=4))
    for t in trees:
        evaluate(M, t)  # must not raise


# -- explicit evaluation -------------------------------------------------


def test_evaluate_explicit_matches_compressed():
    rng = random.Random(5)
    for _ in range(20):
        M = random_layered(rng, 3)
        for t in enumerate_trees(M, budget=EnumerationBudget(max_depth=4,
                                                             max_trees=100)):
            assert evaluate_explicit(M, t) == expand(evaluate(M, t))


def test_evaluate_explicit_none_when_undefined():
    M = ex("ex3")
    assert evaluate_explicit(M, parse_tree("g", M.alphabet)) is None


def test_evaluate_explicit_cap_is_loud():
    M = ex("stress_doubling")
    t = parse_tree("f(g)", M.alphabet)
    with pytest.raises(W.CapExceeded):
        evaluate_explicit(M, t, cap=10 ** 6)


def test_evaluate_explicit_cap_covers_the_prefix_before_undefined():
    M = parse_ltw('input f:2 g:0 h:0\naxiom = "zz" q(x) "zz"\n'
                  'rule q f(x1,x2) = "aaaa" q(x1) q(x2)\nrule q g = "bb"\n')
    cases = [("f(g,g)", 8, "zzaaaabbbbzz"),     # the axiom words do not count
             ("f(g,h)", 6, None),                # six symbols before h
             ("f(g,h)", 5, "cap"),
             ("f(h,f(g,g))", 5, None),           # nothing after h counts
             ("f(g,f(g,h))", 11, "cap"),         # twelve symbols before h
             ("f(g,f(g,h))", 12, None),
             ("f(f(g,g),g)", 9, "cap")]
    trees = [parse_tree(text, M.alphabet) for text, _, _ in cases]
    memo = defaultdict(dict)
    for shared in (None, memo):
        for t, (_, cap, want) in zip(trees, cases):
            assert _outcome(M, t, cap, shared) == want


def test_evaluate_explicit_runs_shared_subtrees_once():
    # full binary trees of depth 40 built from 41 shared subtrees: silent
    # ones (every leaf prints nothing), and one whose last leaf is
    # undefined; a run per (state, subtree) stays within 500 rule lookups
    M = parse_ltw('input f:2 g:0 e:0 h:0\naxiom = q(x)\n'
                  'rule q f(x1,x2) = q(x1) q(x2)\n'
                  'rule q g = "ab"\nrule q e = ""\n')
    M = M.with_(rules=RuleBudget(M.rules, [500]))
    silent, bad, full = Tree("e"), Tree("h"), [Tree("g")]
    for _ in range(40):
        silent, bad = Tree("f", (silent, silent)), Tree("f", (silent, bad))
        full.append(Tree("f", (full[-1], full[-1])))
    assert evaluate_explicit(M, silent) == ""
    assert evaluate_explicit(M, bad) is None
    with pytest.raises(W.CapExceeded):
        evaluate_explicit(M, full[-1])
    memo = defaultdict(dict)
    assert evaluate_explicit(M, full[5], 100, memo) == "ab" * 32
    # one entry per distinct proper subtree; the root is not kept
    assert sorted(memo["q"].values()) == ["ab" * 2 ** k for k in range(5)]
    assert [evaluate_explicit(M, t, 100, memo) for t in full[:6]] == \
        ["ab" * 2 ** k for k in range(6)]


def test_shared_memo_agrees_with_fresh_runs():
    rng = random.Random(12)
    budget = EnumerationBudget(max_depth=4, max_trees=300)
    runs = 0
    for _ in range(30):
        M = random_layered(rng, 4)
        N = mutate(M, rng)
        trees = all_trees(list(M.alphabet.items()), budget)
        for cap in (4, 100000):
            for A in (M, N):
                memo = defaultdict(dict)
                for t in trees:
                    runs += 1
                    assert _outcome(A, t, cap, memo) == _outcome(A, t, cap, None)
    assert runs > 10000


def _outcome(M, t, cap, memo):
    try:
        return evaluate_explicit(M, t, cap, memo)
    except W.CapExceeded:
        return "cap"


# -- brute-force equivalence ----------------------------------------------


def test_brute_equiv_equivalent_pair():
    v = brute_equiv(ex("ex5a"), ex("ex5b"),
                    EnumerationBudget(max_depth=4))
    assert v.equivalent and v.witness is None
    assert v.trees_checked > 0


def test_brute_equiv_finds_output_difference():
    M = ex("ex3")
    rules = dict(M.rules)
    r = rules[("q2", "g")]
    from ltw import Rule
    rules[("q2", "g")] = Rule("q2", "g", (M.pool.literal("abx"),), ())
    N = M.with_(rules=rules)
    v = brute_equiv(M, N, EnumerationBudget(max_depth=5))
    assert not v.equivalent and v.reason == "output"
    o1 = evaluate_explicit(M, v.witness)
    o2 = evaluate_explicit(N, v.witness)
    assert o1 is not None and o2 is not None and o1 != o2


def test_brute_equiv_finds_definedness_difference():
    M = ex("ex3")
    rules = dict(M.rules)
    del rules[("q2", "g")]  # N accepts nothing at all
    N = M.with_(rules=rules)
    v = brute_equiv(M, N, EnumerationBudget(max_depth=5))
    assert not v.equivalent and v.reason == "definedness"
    assert (evaluate_explicit(M, v.witness) is None) != \
           (evaluate_explicit(N, v.witness) is None)


def test_live_trees_are_every_tree_but_the_dead_ones_in_reference_order():
    # the oracle lists the trees with no node where both machines are
    # undefined: the reference enumeration over the merged alphabet, uncut,
    # filtered by that predicate and then cut at the tree budget
    rng = random.Random(41)
    pairs = [(ex(a), ex(b)) for a, b in (("ex3", "ex6"), ("ex6", "ex3"),
                                         ("ex7", "ex3"), ("ex3", "ex7"))]
    for _ in range(12):
        M = random_layered(rng, rng.randrange(2, 5))
        pairs.append((M, mutate(M, rng)))
        M = parse_ltw(random_cyclic_text(rng, rng.randrange(2, 4)))
        pairs.append((M, mutate(M, rng)))
    for M in pairs[-4:]:                  # every tree is live
        pairs += [(every_tree_machine(M[0].alphabet), M[0]),
                  (M[1], every_tree_machine(M[1].alphabet))]
    for case, (M1, M2) in enumerate(pairs):
        items = list({**M1.alphabet, **M2.alphabet}.items())
        depth = case % 4 + 1
        every = enumerate_all_trees(items, EnumerationBudget(depth, 10 ** 6))
        live = [str(t) for t in every if is_live(M1, M2, t)]
        assert len(every) < 10 ** 6
        for cap in (1, 3, 50, 10 ** 6):
            machine = live_tree_machine(M1, M2, dict(items))
            got = enumerate_trees(machine, budget=EnumerationBudget(depth, cap))
            assert [str(t) for t in got] == live[:cap], (case, cap)


def test_wide_pairs_past_the_old_budget_get_witnesses():
    # among 150 wide_pair pairs (seed 6), these 10 are not equivalent, yet
    # came back "equivalent, budget hit" at this budget while the oracle
    # listed every tree over the alphabet; over the live trees, each gets
    # an output witness
    rng = random.Random(6)
    pairs = [wide_pair(rng) for _ in range(150)]
    budget = EnumerationBudget(max_depth=6, max_trees=200000)
    for i in (6, 12, 30, 37, 63, 77, 83, 88, 98, 149):
        A, B = pairs[i]
        assert not decide_equiv(A, B).equivalent
        v = brute_equiv(A, B, budget)
        assert not v.equivalent and v.reason == "output"
        o1, o2 = (evaluate_explicit(M, v.witness) for M in (A, B))
        assert None not in (o1, o2) and o1 != o2


def test_brute_equiv_arity_conflict():
    A = parse_ltw('input f:1 g:0\naxiom = q(x)\nrule q f(x1) = q(x1)\n'
                  'rule q g = ""\n')
    B = parse_ltw('input f:2 g:0\naxiom = q(x)\n'
                  'rule q f(x1,x2) = q(x1) q(x2)\nrule q g = ""\n')
    with pytest.raises(ValueError):
        brute_equiv(A, B)


def test_brute_equiv_budget_hit_reported():
    v = brute_equiv(ex("ex5a"), ex("ex5a"),
                    EnumerationBudget(max_depth=6, max_trees=50))
    assert v.equivalent and v.budget_hit == "trees"


# -- string helpers -------------------------------------------------------


def test_string_primitive_root():
    assert string_primitive_root("") == ""
    assert string_primitive_root("a") == "a"
    assert string_primitive_root("abab") == "ab"
    assert string_primitive_root("aba") == "aba"
    assert string_primitive_root("aaaaaa") == "a"


def test_primitive_root_cross_check():
    rng = random.Random(9)
    pool = W.SlpPool()
    for _ in range(300):
        base = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 6)))
        s = base * rng.randrange(1, 5)
        assert expand(W.primitive_root(pool.literal(s))) == \
            string_primitive_root(s)


def test_brute_quasi_periodic_on_ex3_outputs():
    M = ex("ex3")
    outs = [evaluate_explicit(M, t)
            for t in enumerate_trees(M, budget=EnumerationBudget(max_depth=7))]
    v = brute_quasi_periodic(outs, "left")
    assert v is not None
    assert v.handle == "aaaabcabc" and v.period == "abc"
    rv = brute_quasi_periodic(outs, "right")
    assert rv is None  # the stripped tails are not right-periodic


def test_brute_quasi_periodic_rejects_mixed():
    assert brute_quasi_periodic(["ab", "ba", "abab"], "left") is None
