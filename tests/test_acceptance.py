"""Acceptance gate.

Eight criteria, one test each, run in file order.  Every test prints exactly
one line to the real stdout -- `ACCEPTANCE <n> <name>: PASS|FAIL` -- so the
gate's outcome stays visible under pytest's capture.
"""

import hashlib
import random
import sys
import time
import tracemalloc
from contextlib import contextmanager

import pytest

from ltw import oracle, words
from ltw.core import domain_defined, evaluate, mirror, trim, with_axiom_state
from ltw.ltwfile import parse_ltw, parse_tree, print_ltw
from ltw.analysis import (PairSpace, mock_shift_table,
                          rule_part_quasi_periodicity, same_ordered)
from ltw.normalize import erase_order, hat_state_machine, partial_normal_form
from ltw.equivalence import decide_equiv
from ltw.cli import main

from _support import (build_Tq, chain, check_elimination_laws,
                      equality_differential, oracle_corpus,
                      periodic_run_machine, random_layered, random_word_ref,
                      replay_with_laws, same_structure, stage_pipeline)

from conftest import ACCEPTANCE_LINES, FIXTURES, GOLDEN


@contextmanager
def criterion(n, name):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        line = f"ACCEPTANCE {n} {name}: {outcome}"
        ACCEPTANCE_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)


def load(name):
    return parse_ltw((FIXTURES / f"{name}.ltw").read_text())


def test_criterion_1_chain_normal_form():
    with criterion(1, "chain normal form golden"):
        t0 = time.perf_counter()
        rep = partial_normal_form(trim(load("ex3")))
        elapsed = time.perf_counter() - t0
        assert print_ltw(rep.result) == (GOLDEN / "ex3_pnf.ltw").read_text()
        assert elapsed < 1.0


def test_criterion_2_part_analysis_and_companion(capsys):
    with criterion(2, "part handle and companion machine"):
        t0 = time.perf_counter()
        M = trim(load("ex6"))
        v = rule_part_quasi_periodicity(M, "p", "h", 0)
        assert v is not None
        assert words.expand(v.handle) == "bc"
        assert words.expand(v.period) == "abc"
        r = M.rule("p", "h")
        M2, hat = hat_state_machine(M, r.calls[0][0], r.words[1])
        T = build_Tq(trim(with_axiom_state(M2, hat)), hat)
        expected = parse_ltw('input f:1 g:0\n'
                             'axiom = "bc" q__hat__T(x)\n'
                             'rule q__hat__T f(x1) = "abc" q__hat__T(x1)\n'
                             'rule q__hat__T g = ""\n')
        assert same_structure(T, expected)
        elapsed = time.perf_counter() - t0
        assert main(["analyze", str(FIXTURES / "ex6.ltw")]) == 0
        out = capsys.readouterr().out
        assert ("part p h pos=1 callee=q: quasi-periodic(left): "
                "handle=bc period=abc") in out
        assert elapsed < 1.0


def test_criterion_3_erase_ordering():
    with criterion(3, "erase ordering golden"):
        M, _ = erase_order(trim(load("ex5a")))
        text = print_ltw(M)
        assert text == (GOLDEN / "ex5a_erase.ltw").read_text()
        assert ("rule q0 f(x1,x2,x3,x4) = "
                "q2(x3) q4(x1) q1(x2) q1(x4)") in text


def test_criterion_4_parts_end_to_end(tmp_path, capsys):
    with criterion(4, "rule part normalization end to end"):
        M = load("ex7")
        rep = partial_normal_form(trim(M))
        text = print_ltw(rep.result)
        assert 'rule q h(x1,x2) = "b" q2(x1) q1__e(x2)' in text
        assert 'rule q1__e f(x1) = "cabcab" q1__e(x1)' in text
        pnf_file = tmp_path / "ex7_pnf.ltw"
        pnf_file.write_text(text)
        assert main(["check", str(FIXTURES / "ex7.ltw"), str(pnf_file)]) == 0
        assert capsys.readouterr().out == "equivalent\n"
        bv = oracle.brute_equiv(M, rep.result,
                                oracle.EnumerationBudget(max_depth=4))
        assert bv.equivalent and bv.budget_hit is None


def test_criterion_5_order_difference_equivalence(capsys):
    with criterion(5, "call order difference equivalence"):
        assert main(["check", str(FIXTURES / "ex5a.ltw"),
                     str(FIXTURES / "ex5b.ltw")]) == 0
        assert capsys.readouterr().out == "equivalent\n"
        A = partial_normal_form(trim(load("ex5a"))).result
        B = partial_normal_form(trim(load("ex5b"))).result
        assert same_ordered(PairSpace(A, B))


def test_criterion_6_compression_and_scaling():
    with criterion(6, "compression stress and scaling"):
        tracemalloc.start()
        t0 = time.perf_counter()
        M = load("stress_doubling")
        out = evaluate(M, _tree(M, "f(g)"))
        assert out.length == 2 ** 60
        rep = partial_normal_form(trim(M))
        v = decide_equiv(M, rep.result)
        assert v.equivalent
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 200 * 1024 * 1024

        floor = 0.05
        times = {}
        for k in (10, 20, 40, 80):
            C = chain(k)
            call_sites = sum(len(r.calls) for q in C.states
                             for r in C.rules_of(q)) + 1
            t0 = time.perf_counter()
            P = partial_normal_form(trim(C)).result
            times[k] = max(time.perf_counter() - t0, floor)
            assert len(P.states) <= len(C.states) + call_sites
        for k in (10, 20, 40):
            assert times[2 * k] <= 8 * times[k], (k, times)


def _tree(M, text):
    return parse_tree(text, M.alphabet)


def _verify_witness(M1, M2, t):
    d1, d2 = domain_defined(M1, t), domain_defined(M2, t)
    if d1 != d2:
        return True
    return bool(d1) and words.expand(evaluate(M1, t)) != words.expand(
        evaluate(M2, t))


def test_criterion_7_oracle_agreement():
    with criterion(7, "oracle agreement on generated corpus"):
        t0 = time.perf_counter()
        pairs = oracle_corpus()
        assert len(pairs) >= 200

        budget = oracle.EnumerationBudget(max_depth=5, max_trees=20000)
        agreements = 0
        fields = []
        for M1, M2 in pairs:
            v = decide_equiv(M1, M2)
            bv = oracle.brute_equiv(M1, M2, budget)
            assert v.equivalent == bv.equivalent
            agreements += 1
            if not v.equivalent and v.witness is not None:
                assert _verify_witness(M1, M2, v.witness)
            if not bv.equivalent:
                assert _verify_witness(M1, M2, bv.witness)
            fields.append((bv.equivalent, str(bv.witness), bv.reason,
                           bv.trees_checked, bv.budget_hit))
        assert agreements == len(pairs)
        # every oracle field as brute_equiv gives it on the trees of the
        # reference enumerator, _support.enumerate_all_trees
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == \
            "4967b6db97e2205ea4a90c912a805c6fcd7acfb7c73f3f87a5065a0e951856cb"
        assert time.perf_counter() - t0 < 600


def test_criterion_8_invariant_suites():
    with criterion(8, "invariant suites"):
        # compressed vs expanded equality, ground truth by expansion
        assert equality_differential(10000, seed=20260816) == 0

        # rotation composition law, by fingerprint and by expansion
        rng = random.Random(99)
        pool = words.SlpPool()
        for _ in range(500):
            w = random_word_ref(pool, rng)
            if not w.length:
                continue
            a = rng.randrange(2 * w.length)
            b = rng.randrange(2 * w.length)
            lhs = words.rotate_left(words.rotate_left(w, a), b)
            rhs = words.rotate_left(w, (a + b) % w.length)
            assert words.equals(lhs, rhs)
            assert words.expand(lhs) == words.expand(rhs)
            s = words.expand(w)
            r = a % len(s)
            assert words.expand(words.rotate_left(w, a)) == s[r:] + s[:r]

        # mock shift additivity along a unique-path chain
        C = trim(chain(10))
        t1 = mock_shift_table(C, "q1")
        for j in range(2, 10):
            tj = mock_shift_table(C, f"q{j}")
            for k in range(j + 1, 11):
                assert t1[f"q{k}"] == t1[f"q{j}"] + tj[f"q{k}"]

        # handle and period laws over every elimination in the corpus
        eliminations = 0
        corpus = [trim(load(n)) for n in ("ex3", "ex5a", "ex5b", "ex6", "ex7")]
        corpus.append(mirror(trim(load("ex3"))))
        corpus.append(trim(chain(5)))
        rng = random.Random(7)
        for _ in range(30):
            corpus.append(trim(random_layered(rng, 3)))
        for _ in range(15):
            A, B = periodic_run_machine(rng)
            corpus.extend([trim(A), trim(B)])
        for M in corpus:
            eliminations += replay_with_laws(M)
        assert eliminations >= 5

        # every pipeline stage preserves the function, exact string compare
        budget = oracle.EnumerationBudget(max_depth=5)
        for M in corpus[:5] + corpus[7:27]:
            for stage, N in stage_pipeline(M):
                bv = oracle.brute_equiv(M, N, budget)
                assert bv.equivalent, stage
