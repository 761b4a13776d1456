import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltw import words as W
from ltw.words import (CapExceeded, OutOfRange, PoolMismatch, SlpPool, WordRef,
                       equals, expand, primitive_root, reverse, rotate_left,
                       strip_prefix, strip_suffix, valid_symbol)

from ltw.cli import main
from ltw.ltwfile import parse_ltw

from _support import (equality_differential, is_power_of, power,
                      pow_family_text, string_primitive_root)
from conftest import FIXTURES


@pytest.fixture
def pool():
    return SlpPool()


def lit(pool, s):
    return pool.literal(s) if s else pool.empty


# -- basics --------------------------------------------------------------


def test_empty_literal_concat(pool):
    e = pool.empty
    assert e.length == 0 and expand(e) == ""
    a = pool.literal("abc")
    assert a.length == 3 and expand(a) == "abc"
    c = pool.concat(a, pool.literal("de"))
    assert c.length == 5 and expand(c) == "abcde"
    # concatenation with the empty word returns the other operand unchanged
    assert pool.concat(e, a).node == a.node
    assert pool.concat(a, e).node == a.node


def test_concat_all(pool):
    ws = [pool.literal(s) for s in ("a", "bc", "d")]
    assert expand(pool.concat_all(ws)) == "abcd"
    assert expand(pool.concat_all([])) == ""


def test_valid_symbol_boundaries():
    assert not valid_symbol(chr(31))
    assert valid_symbol(" ") and valid_symbol("~")
    assert not valid_symbol(chr(127)) and not valid_symbol(chr(159))
    assert valid_symbol(chr(160)) and valid_symbol(chr(255))
    assert not valid_symbol(chr(256))


def test_pool_mismatch(pool):
    other = SlpPool()
    with pytest.raises(PoolMismatch):
        pool.concat(pool.literal("a"), other.literal("b"))


def test_cross_pool_equality(pool):
    other = SlpPool()
    assert equals(pool.literal("abc"), other.literal("abc"))
    assert not equals(pool.literal("abc"), other.literal("abd"))
    assert expand(pool.literal("abc")) == expand(other.literal("abc"))


# -- giant words ---------------------------------------------------------


def test_doubling_to_2_pow_60(pool):
    w = pool.literal("a")
    for _ in range(60):
        w = pool.concat(w, w)
    assert w.length == 2 ** 60
    assert equals(w, power(pool.literal("a"), 2 ** 60))
    assert is_power_of(w, pool.literal("a"))
    with pytest.raises(CapExceeded) as ei:
        expand(w)
    assert ei.value.length == 2 ** 60


def test_expand_cap(pool):
    w = pool.literal("ab" * 50)
    assert expand(w, cap=100) == "ab" * 50
    with pytest.raises(CapExceeded):
        expand(w, cap=99)


def test_giant_rotate_strip(pool):
    a, b = pool.literal("a"), pool.literal("b")
    w = pool.concat(power(a, 2 ** 50), pool.concat(b, power(a, 2 ** 50)))
    # rotating past the b lands it near the front
    r = rotate_left(w, 2 ** 50)
    assert expand(W.prefix(r, 3)) == "baa"
    s = strip_prefix(w, 2 ** 50)
    assert expand(W.prefix(s, 3)) == "baa"
    assert s.length == 2 ** 50 + 1


# -- randomized differential against explicit strings --------------------


def test_equality_differential_large():
    assert equality_differential(10000, seed=7) == 0


def test_seed_change_keeps_answers():
    W.set_equality_seed(12345)
    assert equality_differential(2000, seed=17) == 0


def test_fixed_prime_and_one_fingerprinter_per_seed(monkeypatch):
    # the seed draws only the base; the prime is fixed and never searched
    assert W._probably_prime(W.PRIME) and W.PRIME >= 2 ** 127
    fp0, fp7 = W.Fingerprinter(0), W.Fingerprinter(7)
    assert fp0.prime == fp7.prime == W.PRIME and fp0.base != fp7.base
    calls = []
    real = W._probably_prime
    monkeypatch.setattr(W, "_probably_prime", lambda n: calls.append(n) or real(n))
    W.Fingerprinter(12345)
    assert calls == []
    # a check with the default seed keeps the fingerprinter, so the pools'
    # tables and the span caches keyed by it stay valid across ops
    ex5a = str(FIXTURES / "ex5a.ltw")
    assert main(["check", ex5a, ex5a]) == 0
    fp = W.fingerprinter()
    assert main(["check", ex5a, ex5a]) == 0
    assert W.fingerprinter() is fp and fp.seed == 0


def test_pool_keeps_one_table_across_seed_changes():
    # each change of seed builds a new fingerprinter, so a pool that kept a
    # table per fingerprinter would grow by one on every switch
    pool = SlpPool()
    a, b = pool.literal("abab"), pool.literal("abba")
    for seed in (0, 7) * 10:
        W.set_equality_seed(seed)
        assert not equals(a, b) and equals(a, pool.concat(pool.literal("ab"),
                                                           pool.literal("ab")))
    assert len(pool._fp) == 1


# -- operation laws -----------------------------------------------------

texts = st.text(alphabet="ab", max_size=12)


@settings(max_examples=200)
@given(texts, st.integers(min_value=0, max_value=24))
def test_strip_prefix_matches_slicing(s, n):
    pool = SlpPool()
    n = min(n, len(s))
    assert expand(strip_prefix(lit(pool, s), n)) == s[n:]


@settings(max_examples=200)
@given(texts, st.integers(min_value=0, max_value=24))
def test_strip_suffix_matches_slicing(s, n):
    pool = SlpPool()
    n = min(n, len(s))
    assert expand(strip_suffix(lit(pool, s), n)) == s[:len(s) - n]


@pytest.mark.parametrize("strip", [strip_prefix, strip_suffix])
@pytest.mark.parametrize("n", [-1, 6])
def test_strip_out_of_range(pool, strip, n):
    with pytest.raises(OutOfRange, match=f"cannot strip {n} symbols from a word of length 5"):
        strip(pool.literal("abcde"), n)


@settings(max_examples=200)
@given(texts, st.integers(min_value=0, max_value=48))
def test_rotate_left_matches_slicing(s, n):
    pool = SlpPool()
    w = rotate_left(lit(pool, s), n)
    if s:
        k = n % len(s)
        assert expand(w) == s[k:] + s[:k]
    else:
        assert expand(w) == ""


@settings(max_examples=200)
@given(texts, st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=30))
def test_rotate_composition(s, a, b):
    pool = SlpPool()
    w = lit(pool, s)
    lhs = rotate_left(rotate_left(w, a), b)
    rhs = rotate_left(w, a + b)
    assert expand(lhs) == expand(rhs)


@settings(max_examples=200)
@given(texts)
def test_reverse_involution(s):
    pool = SlpPool()
    w = lit(pool, s)
    assert expand(reverse(w)) == s[::-1]
    assert expand(reverse(reverse(w))) == expand(w)


def test_reverse_is_remembered_both_ways(pool):
    # the pool keeps each reversal, so a word reversed twice is the word's
    # own node and no reversal is built a second time
    w = pool.concat(pool.literal("abc"), pool.literal("de"))
    r = reverse(w)
    size = len(pool)
    assert reverse(r) == w and reverse(w) == r
    assert len(pool) == size
    shared = pool.concat(w, pool.literal("a"))
    assert expand(reverse(shared)) == "aedcba"
    assert len(pool) == size + 2          # w "a", then its reversal


@settings(max_examples=200)
@given(texts, st.integers(min_value=0, max_value=5))
def test_power_matches_repetition(s, k):
    pool = SlpPool()
    assert expand(power(lit(pool, s), k), cap=100) == s * k


@settings(max_examples=300)
@given(st.text(alphabet="ab", min_size=1, max_size=8),
       st.integers(min_value=1, max_value=4))
def test_primitive_root_of_powers(s, k):
    pool = SlpPool()
    w = power(lit(pool, s), k)
    got = expand(primitive_root(w))
    assert got == string_primitive_root(s * k)
    assert is_power_of(w, primitive_root(w))


def test_primitive_root_above_expansion_cap(pool):
    a = power(pool.literal("a"), 2 ** 40)
    assert expand(primitive_root(a)) == "a"
    ab = power(pool.literal("ab"), 2 ** 31)
    assert expand(primitive_root(ab)) == "ab"
    # a primitive giant word is its own root
    w = pool.concat(power(pool.literal("a"), 2 ** 21), pool.literal("b"))
    big = power(w, 2 ** 3)
    r = primitive_root(big)
    assert r.length == w.length and equals(r, w)


def test_pollard_rho_stops_at_its_step_cap(monkeypatch):
    # each rho step takes one gcd; factors near 2**20 split well inside the
    # cap, factors near 2**52 do not, and the root search then gives up
    steps = []
    monkeypatch.setattr(W, "math", types.SimpleNamespace(
        gcd=lambda a, m: steps.append(1) or math.gcd(a, m)))
    small = parse_ltw(pow_family_text(20)).rule("q", "h").words[0]
    assert expand(primitive_root(small)) == "a"
    assert 0 < len(steps) < W.RHO_STEPS // 8
    steps.clear()
    big = parse_ltw(pow_family_text(52)).rule("q", "h").words[0]
    with pytest.raises(CapExceeded):
        primitive_root(big)
    assert len(steps) == W.RHO_STEPS


def test_a_length_with_many_divisors_finds_its_root(pool, monkeypatch):
    # the product of the first 13 primes has 2**13 divisors; the root search
    # divides out one prime at a time, one period test per step or refusal
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41
    tests = []
    real = W.equals
    monkeypatch.setattr(W, "equals", lambda a, b: tests.append(1) or real(a, b))
    assert expand(primitive_root(power(pool.literal("a"), n))) == "a"
    assert len(tests) <= n.bit_length() + 13
    tests.clear()
    w = power(pool.concat(power(pool.literal("a"), n // 6), pool.literal("b")), 6)
    r = primitive_root(w)
    assert r.length == n // 6 + 1 and real(power(r, 6), w)
    assert len(tests) <= w.length.bit_length() + 13


def test_is_power_of_negative(pool):
    assert not is_power_of(pool.literal("aba"), pool.literal("ab"))
    assert is_power_of(pool.empty, pool.literal("ab"))
