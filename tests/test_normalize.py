"""Normalization pipeline tests: goldens, report entries, replays,
per-stage semantics preservation, and the handle/period laws every
elimination must satisfy."""

import pytest

from ltw import words, oracle
from ltw.core import EmptyTransducer, mirror, trim
from ltw.ltwfile import parse_ltw, print_ltw
from ltw.analysis import PairSpace, _fresh, quasi_periodicity, same_ordered
from ltw.normalize import (_strip_hat, eliminate_quasi_periodic_states,
                           erase_order, make_state_earliest,
                           partial_normal_form, processing_order)

from _support import check_elimination_laws, replay_with_laws, stage_pipeline

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


# -- replay -------------------------------------------------------------------

def test_elimination_replay_reproduces_result(fixtures):
    M = _load(fixtures, "ex3")
    rep = partial_normal_form(M)
    rep2 = partial_normal_form(M, order_override=rep.eliminated)
    assert print_ltw(rep2.result) == print_ltw(rep.result)
    assert rep2.entries == rep.entries


def test_replay_rejects_non_quasi_periodic_state(fixtures):
    M = _load(fixtures, "ex7")
    with pytest.raises(ValueError, match="replay"):
        eliminate_quasi_periodic_states(M, order_override=[("q", "left")])


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


def test_make_state_earliest_rewrites_only_the_target(fixtures):
    M = _load(fixtures, "ex3")
    v = quasi_periodicity(M, "q2", "left")
    N = trim(make_state_earliest(M, "q2", v))
    # q and q1 survive; the q2 call inside q1's rule moved to the copy
    assert "q2__e" in N.states
    r = N.rule("q1", "f")
    assert r.calls == (("q2__e", 1),)
    assert words.expand(r.words[0]) == "aaabc"


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
