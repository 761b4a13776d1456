"""Normalization pipeline tests: goldens, report entries,
per-stage semantics preservation, and the handle/period laws every
elimination must satisfy."""

import random

import pytest

from ltw import words, oracle
from ltw.core import EmptyTransducer, accessible, mirror, trim
from ltw.equivalence import decide_equiv
from ltw.ltwfile import parse_ltw, print_ltw
from ltw.analysis import PairSpace, quasi_periodicity, same_ordered
from ltw.normalize import (_fresh, _strip_hat, erase_order, make_state_earliest,
                           partial_normal_form, processing_order,
                           reorder_periodic_runs)

from _support import (axiom_handle, check_elimination_laws, random_cyclic_text,
                      random_layered_text, replay_with_laws, split_state,
                      stage_pipeline, un_earliest)

FIX_NAMES = ("ex3", "ex5a", "ex5b", "ex6", "ex7")


def _load(fixtures, name):
    return trim(parse_ltw((fixtures / f"{name}.ltw").read_text()))


# -- goldens ------------------------------------------------------------------

def test_normal_form_golden_chain(fixtures, golden):
    rep = partial_normal_form(_load(fixtures, "ex3"))
    assert print_ltw(rep.result) == (golden / "ex3_pnf.ltw").read_text()
    assert rep.entries == ["earliest-state q left handle_len=9 period_len=3"]
    assert rep.eliminated == [("q", "left")]


def test_erase_order_golden(fixtures, golden):
    M, entries = erase_order(_load(fixtures, "ex5a"))
    assert print_ltw(M) == (golden / "ex5a_erase.ltw").read_text()
    assert entries == ["erase-order q0 f"]


def test_normal_form_golden_parts(fixtures, golden):
    rep = partial_normal_form(_load(fixtures, "ex7"))
    assert print_ltw(rep.result) == (golden / "ex7_pnf.ltw").read_text()
    assert rep.entries == [
        "earliest-part q h pos=1 callee=q1 handle_len=1 period_len=3",
        "reorder-run q h pos=1..2",
    ]
    assert rep.parts_passes == 2


def test_report_lines_carry_timings(fixtures):
    rep = partial_normal_form(_load(fixtures, "ex3"))
    lines = rep.lines()
    assert lines[0] == "earliest-state q left handle_len=9 period_len=3"
    stages = [l.split()[2] for l in lines if l.startswith("# timing:")]
    assert stages == ["trim", "eliminate", "erase-order", "parts", "reorder"]
    assert lines[-1] == "# parts-passes: 1"


def test_frozen_entry_lists(fixtures):
    got = {name: partial_normal_form(_load(fixtures, name)).entries
           for name in FIX_NAMES}
    assert got["ex5a"] == ["erase-order q0 f", "reorder-run q0 f pos=1..2"]
    assert got["ex5b"] == []
    assert got["ex6"] == ["earliest-state p left handle_len=2 period_len=3"]


# -- normal forms agree across equivalent inputs -------------------------------

def test_reordered_inputs_reach_one_normal_form(fixtures):
    A = partial_normal_form(_load(fixtures, "ex5a")).result
    B = partial_normal_form(_load(fixtures, "ex5b")).result
    assert print_ltw(A) == print_ltw(B)
    assert same_ordered(PairSpace(A, B))


# -- right-direction elimination ----------------------------------------------

def test_mirrored_chain_eliminates_to_the_right(fixtures):
    rep = partial_normal_form(mirror(_load(fixtures, "ex3")))
    assert rep.entries == [
        "earliest-state q right handle_len=9 period_len=3",
        "earliest-part q2__e f pos=1 callee=q2__e handle_len=3 period_len=3",
    ]


# -- stage-wise semantics preservation ----------------------------------------

@pytest.mark.parametrize("name", FIX_NAMES)
def test_every_stage_preserves_semantics(fixtures, name):
    M = _load(fixtures, name)
    budget = oracle.EnumerationBudget(max_depth=5)
    for stage, N in stage_pipeline(M):
        v = oracle.brute_equiv(M, N, budget)
        assert v.equivalent, f"{name}: stage {stage} changed the function"


# -- handle and period laws ---------------------------------------------------

def test_elimination_laws_on_fixtures(fixtures):
    steps = sum(replay_with_laws(_load(fixtures, name)) for name in FIX_NAMES)
    steps += replay_with_laws(mirror(_load(fixtures, "ex3")))
    assert steps >= 3


# -- structural properties ----------------------------------------------------

@pytest.mark.parametrize("name", FIX_NAMES)
def test_normal_form_idempotent(fixtures, name):
    rep = partial_normal_form(_load(fixtures, name))
    rep2 = partial_normal_form(rep.result)
    assert rep2.entries == []
    assert print_ltw(rep2.result) == print_ltw(rep.result)


def _assert_normal_forms_agree(M, N):
    # Boiret-Palenta: equivalent machines in partial normal form read their
    # children in the same order; M and N are equivalent by construction
    assert decide_equiv(M, N).equivalent, print_ltw(N)
    P, Q = (partial_normal_form(X).result for X in (M, N))
    assert same_ordered(PairSpace(P, Q)), (print_ltw(M), print_ltw(N))
    assert decide_equiv(P, Q).equivalent
    for X in (P, Q):
        again = partial_normal_form(X)
        assert again.entries == [] and print_ltw(again.result) == print_ltw(X)


def test_un_earliest_pairs_have_same_ordered_idempotent_normal_forms():
    # each pair is a random machine and a copy that 1-3 un-earliest edits
    # moved words into fresh callee copies
    rng = random.Random(20)
    pairs = 0
    while pairs < 300:
        gen = random_layered_text if pairs % 2 else random_cyclic_text
        M = parse_ltw(gen(rng, rng.randrange(2, 5)))
        N = M
        for _ in range(rng.randrange(1, 4)):
            N = un_earliest(N, rng) or N
        if N is M:
            continue
        pairs += 1
        _assert_normal_forms_agree(M, N)


def test_split_state_pairs_have_same_ordered_idempotent_normal_forms():
    # each pair is a random machine and a copy with one call split off to a
    # fresh copy of its callee, then 0-2 more splits or un-earliest edits
    rng = random.Random(25)
    pairs = 0
    while pairs < 200:
        gen = random_layered_text if pairs % 2 else random_cyclic_text
        M = parse_ltw(gen(rng, rng.randrange(2, 5)))
        N = split_state(M, rng)
        if N is None:
            continue
        for edit in rng.choices((split_state, un_earliest), k=rng.randrange(3)):
            N = edit(N, rng) or N
        pairs += 1
        _assert_normal_forms_agree(M, N)


def test_axiom_handle_pairs_have_same_ordered_idempotent_normal_forms():
    # each pair writes one random word next to the axiom call, once in the
    # axiom and once inside every rule of a fresh copy of the axiom state
    rng = random.Random(28)
    for pairs in range(300):
        gen = random_layered_text if pairs % 2 else random_cyclic_text
        M = parse_ltw(gen(rng, rng.randrange(2, 5)))
        _assert_normal_forms_agree(*axiom_handle(M, rng))


@pytest.mark.parametrize("name", FIX_NAMES)
def test_state_count_growth_bound(fixtures, name):
    M = _load(fixtures, name)
    call_sites = sum(len(r.calls) for q in M.states for r in M.rules_of(q))
    P = partial_normal_form(M).result
    assert len(P.states) <= len(M.states) + call_sites


SHARED_PART = """
input h:1 k:1 f:1 g:0
axiom = q(x)
rule q h(x1) = "z" q1(x1) "b"
rule q k(x1) = "zz" q1(x1) "b"
rule q1 f(x1) = "bcabca" q1(x1)
rule q1 g = ""
"""


def test_identical_parts_share_one_copy():
    rep = partial_normal_form(trim(parse_ltw(SHARED_PART)))
    assert sorted(rep.result.states) == ["q", "q1__e"]
    for sym in ("h", "k"):
        r = rep.result.rule("q", sym)
        assert r.calls == (("q1__e", 1),)
    assert rep.entries == [
        "earliest-part q h pos=1 callee=q1 handle_len=1 period_len=3",
        "earliest-part q k pos=1 callee=q1 handle_len=1 period_len=3",
    ]


def test_empty_domain_is_rejected():
    M = parse_ltw("""
input f:1 g:0
axiom = q(x)
rule q f(x1) = "a" q(x1)
""")
    with pytest.raises(EmptyTransducer):
        partial_normal_form(M)


# -- processing order ---------------------------------------------------------

def test_processing_order_callers_first(fixtures):
    M = _load(fixtures, "ex3")
    order = processing_order(M)
    assert set(order) == set(M.states)
    assert order.index("q") < order.index("q1") < order.index("q2")


def test_processing_order_contract():
    # components are the sets of mutually accessible states; depth is the
    # fewest calls from the axiom
    rng = random.Random(16)
    for _ in range(300):
        M = trim(parse_ltw(random_cyclic_text(rng, rng.randrange(1, 9))))
        order = processing_order(M)
        assert sorted(order) == sorted(M.states)
        pos = {p: i for i, p in enumerate(order)}
        reach = {p: accessible(M, p) for p in M.states}
        comp = {p: frozenset(c for c in reach[p] if p in reach[c]) for p in M.states}
        depth, level, k = {}, {M.axiom[1]}, 0
        while level:
            depth.update(dict.fromkeys(level, k))
            level = {c for p in level for r in M.rules_of(p)
                     for c, _ in r.calls} - depth.keys()
            k += 1
        for members in set(comp.values()):
            at = sorted(pos[p] for p in members)
            assert at == list(range(at[0], at[0] + len(at)))
            inside = [p for p in order if p in members]
            assert inside == sorted(members, key=lambda p: (-depth[p],
                                                            M.states.index(p)))
        for p in M.states:
            for c in reach[p] - comp[p]:
                assert pos[p] < pos[c]


def test_make_state_earliest_rewrites_only_the_target(fixtures):
    M = _load(fixtures, "ex3")
    v = quasi_periodicity(M, "q2", "left")
    N = trim(make_state_earliest(M, "q2", v))
    # q and q1 survive; the q2 call inside q1's rule moved to the copy
    assert "q2__e" in N.states
    r = N.rule("q1", "f")
    assert r.calls == (("q2__e", 1),)
    assert words.expand(r.words[0]) == "aaabc"


def test_reorder_reads_spans_once_per_machine(monkeypatch):
    # periodicity of every callee comes from one span computation for the
    # whole machine, however long the chain: each q<i> calls q<i+1> on both
    # children in reverse slot order, and every language lies in (abc)*
    from ltw import analysis
    calls = []
    real = analysis.pair_spans
    monkeypatch.setattr(analysis, "pair_spans",
                        lambda ps: calls.append(ps) or real(ps))
    counts = {}
    for k in (40, 160):
        lines = ["input b:2 g:0", "axiom = q1(x)"]
        lines += [f"rule q{i} b(x1,x2) = q{i + 1}(x2) q{i + 1}(x1)"
                  for i in range(1, k)]
        lines += [f'rule q{k} b(x1,x2) = "abc" q{k}(x2) q{k}(x1)',
                  f'rule q{k} g = ""']
        calls.clear()
        M, entries = reorder_periodic_runs(trim(parse_ltw("\n".join(lines))))
        assert len(entries) == k
        counts[k] = len(calls)
    assert counts == {40: 1, 160: 1}


def test_comb_normal_form_reads_spans_in_linear_total(monkeypatch):
    # a verdict restarts the span fixpoint at the state it asks about, and a
    # part reads its callee's span, so the pair nodes summed over every
    # fixpoint grow linearly; no part is rewritten, so no hat state is built
    from ltw import analysis, normalize
    from _support import comb
    pairs, hats = [], []
    real_spans, real_hat = analysis.pair_spans, normalize.hat_state_machine
    monkeypatch.setattr(analysis, "pair_spans",
                        lambda ps, *a: pairs.append(len(ps.co)) or real_spans(ps, *a))
    monkeypatch.setattr(normalize, "hat_state_machine",
                        lambda *a: hats.append(a) or real_hat(*a))
    for n in (25, 50, 100):
        pairs.clear()
        rep = partial_normal_form(comb(n))
        assert len(rep.eliminated) == n
        assert not any(e.startswith("earliest-part") for e in rep.entries)
        assert hats == []
        assert sum(pairs) <= 8 * n


def test_right_eliminations_grow_the_pool_linearly():
    # a right elimination mirrors the machine, rewrites it and mirrors it
    # back; the pool keeps every reversal both ways, so mirroring back
    # returns the words' own nodes instead of copying each word twice
    from _support import comb
    for n in (25, 50):
        M = mirror(comb(n))
        before = len(M.pool)
        rep = partial_normal_form(M)
        assert {d for _, d in rep.eliminated} == {"right"}
        assert len(M.pool) - before <= 40 * n


def test_a_shared_word_stays_one_declaration_after_a_right_elimination():
    # $L is shared by three rules of s, and q is quasi-periodic on the right
    text = ('input h:1 k:1 f:1 g:0\n'
            f'slp L = "{"xy" * 25}"\n'
            'axiom = s(x)\n'
            'rule s h(x1) = $L q(x1)\nrule s k(x1) = q(x1) $L\nrule s g = $L\n'
            'rule q f(x1) = "ab" q(x1)\nrule q g = "c"\n')
    rep = partial_normal_form(parse_ltw(text))
    assert rep.eliminated == [("q", "right")]
    out = print_ltw(rep.result)
    bodies = [line.split(" = ", 1)[1] for line in out.splitlines()
              if line.startswith("slp ")]
    assert len(bodies) == len(set(bodies)) == 2     # L, and "c" L
    assert decide_equiv(parse_ltw(text), parse_ltw(out)).equivalent


def test_part_rewrite_that_strands_its_own_rule():
    # q2's part calls q1, whose earliest copies include q2 itself; the trim
    # after that rewrite drops the original q2 and the rule being rewritten
    M = parse_ltw('input n0:0 n1:0 u:1 b2:2\naxiom = "a" q0(x)\n'
                  'rule q0 n0 = ""\nrule q0 u(x1) = q1(x1)\n'
                  'rule q1 n0 = ""\nrule q1 u(x1) = q2(x1) "aa"\n'
                  'rule q1 b2(x1,x2) = q2(x2) q2(x1) "aaa"\n'
                  'rule q2 n0 = ""\nrule q2 u(x1) = "a" q0(x1)\n'
                  'rule q2 b2(x1,x2) = "aa" q1(x1) "a" q2(x2)\n')
    N = partial_normal_form(M).result
    assert "q2" not in N.states
    assert decide_equiv(M, N).equivalent
    for t in oracle.enumerate_trees(M, None, oracle.EnumerationBudget(max_depth=5)):
        assert oracle.evaluate_explicit(M, t) == oracle.evaluate_explicit(N, t)


# -- small helpers ------------------------------------------------------------

def test_strip_hat_names():
    assert _strip_hat("q__hat") == "q"
    assert _strip_hat("q__hat2") == "q"
    assert _strip_hat("q__hat__hat") == "q"
    assert _strip_hat("q__hatch") == "q__hatch"
    assert _strip_hat("q") == "q"


def test_fresh_names_avoid_collisions():
    assert _fresh({"q"}, "p") == "p"
    assert _fresh({"p"}, "p") == "p2"
    assert _fresh({"p", "p2"}, "p") == "p3"
