"""Shared corpus builders: deterministic random machines (wide ones too,
whose two sides call a rule's slots in differing orders), mutations, junk
that trimming removes, the word-equality differential, and the elimination
law harness used by both the unit suites and the acceptance gate; and the
helpers only tests need: word powers, structural machine equality, the
companion machine, a state's primitive period, tree size and depth, the
tree enumerator over a whole alphabet and brute-force quasi-periodicity;
the un-earliest, state-splitting and axiom-handle edits that make
equivalent copies of a machine; the plain references that faster code is tested against: the
heap settle, the span fixpoint, rank by row reduction and the token-cursor
loader; and a counter of the span fixpoint's products."""

from __future__ import annotations

import heapq
import itertools
import random
import re
from collections import defaultdict, deque

from ltw import Ltw, ParseError, Rule, Tree, analysis, parse_ltw
from ltw import words as W
from ltw.core import EmptyTransducer, accessible, mirror, trim
from ltw.analysis import (companion_rules, mock_shift_table, periodic_word,
                          quasi_periodicity, shortest_words)
from ltw.oracle import _exact_depth_combos
from ltw.normalize import (eliminate_quasi_periodic_states, erase_order,
                           make_rule_parts_earliest, make_state_earliest,
                           partial_normal_form, reorder_periodic_runs)

WORD_CHARS = "ab"


def chain_text(k: int) -> str:
    """k states, each quasi-periodic with period abc; only the last is
    earliest, so normalization has k-1 handles to move."""
    lines = ["input f:1 g:0", "axiom = q1(x)"]
    for i in range(1, k):
        lines.append(f'rule q{i} f(x1) = "abc" q{i + 1}(x1)')
    lines.append(f'rule q{k} f(x1) = "abc" q{k}(x1)')
    lines.append(f'rule q{k} g = ""')
    return "\n".join(lines) + "\n"


def chain(k: int) -> Ltw:
    return parse_ltw(chain_text(k))


def comb_text(n: int) -> str:
    """A ring of n states s<i>, each with a tooth p<i> of language
    h<i%5>(ab)*.  Normalization makes every tooth earliest and then finds
    no quasi-periodic rule part, so it rewrites no part."""
    lines = ["input n:0 u:1 b:2", "axiom = s0(x)"]
    for i in range(n):
        lines.append(f'rule s{i} b(x1,x2) = "z" s{(i + 1) % n}(x1) "y" p{i}(x2)')
        lines.append(f'rule s{i} n = "z{i % 3}"')
        lines.append(f'rule p{i} n = "h{i % 5}"')
        lines.append(f'rule p{i} u(x1) = p{i}(x1) "ab"')
    return "\n".join(lines) + "\n"


def comb(n: int) -> Ltw:
    return parse_ltw(comb_text(n))


def _word(rng: random.Random, max_len: int = 4) -> str:
    n = rng.randrange(max_len + 1)
    return "".join(rng.choice(WORD_CHARS) for _ in range(n))


def _quote(s: str) -> str:
    return '"%s"' % s


def random_layered_text(rng: random.Random, n_states: int = 3) -> str:
    """Acyclic machine over n0:0 n1:0 u:1 b2:2; rules call strictly later
    states and every state keeps a nullary rule, so each state is reachable
    and completable within a couple of levels.  Differences between two such
    machines always show up on shallow trees."""
    lines = ["input n0:0 n1:0 u:1 b2:2",
             f"axiom = {_quote(_word(rng))} q0(x) {_quote(_word(rng))}"]
    for i in range(n_states):
        lines.append(f"rule q{i} n0 = {_quote(_word(rng))}")
        if rng.random() < 0.5:
            lines.append(f"rule q{i} n1 = {_quote(_word(rng))}")
        later = list(range(i + 1, n_states))
        if later and rng.random() < 0.7:
            j = rng.choice(later)
            lines.append(f"rule q{i} u(x1) = {_quote(_word(rng))} "
                         f"q{j}(x1) {_quote(_word(rng))}")
        if later and rng.random() < 0.5:
            a, b = rng.choice(later), rng.choice(later)
            s1, s2 = (1, 2) if rng.random() < 0.5 else (2, 1)
            lines.append(f"rule q{i} b2(x1,x2) = {_quote(_word(rng))} "
                         f"q{a}(x{s1}) {_quote(_word(rng))} "
                         f"q{b}(x{s2}) {_quote(_word(rng))}")
    return "\n".join(lines) + "\n"


def random_layered(rng: random.Random, n_states: int = 3) -> Ltw:
    return parse_ltw(random_layered_text(rng, n_states))


def random_cyclic_text(rng: random.Random, n_states: int = 3) -> str:
    """Machine over n0:0 n1:0 u:1 b2:2 whose rules may call any state,
    itself included, and whose words are rotations of powers of one
    primitive period (now and then cut short or given one extra letter).
    Every state has a nullary rule, so all are productive; a fair share of
    the states comes out quasi-periodic, many with a nonempty handle."""
    period = rng.choice(["a", "ab", "abc", "aab"])

    def word() -> str:
        k = rng.randrange(3)
        r = rng.randrange(len(period))
        w = (period * (k + 1))[r:r + len(period) * k]
        x = rng.random()
        if x < 0.1:
            w = w[:rng.randrange(len(w) + 1)]
        elif x < 0.15:
            w += rng.choice(WORD_CHARS)
        return _quote(w)

    lines = ["input n0:0 n1:0 u:1 b2:2", f"axiom = {word()} q0(x)"]
    for i in range(n_states):
        lines.append(f"rule q{i} n0 = {word()}")
        if rng.random() < 0.3:
            lines.append(f"rule q{i} n1 = {word()}")
        if rng.random() < 0.7:
            j = rng.randrange(n_states)
            lines.append(f"rule q{i} u(x1) = {word()} q{j}(x1) {word()}")
        if rng.random() < 0.3:
            a, b = rng.randrange(n_states), rng.randrange(n_states)
            s1, s2 = (1, 2) if rng.random() < 0.5 else (2, 1)
            lines.append(f"rule q{i} b2(x1,x2) = {word()} q{a}(x{s1}) "
                         f"{word()} q{b}(x{s2}) {word()}")
    return "\n".join(lines) + "\n"


def periodic_run_machine(rng: random.Random) -> tuple[Ltw, Ltw]:
    """A rule with two adjacent calls to states sharing one primitive period,
    and the same machine with the calls swapped; the pair is equivalent."""
    period = rng.choice(["a", "ab", "ba"])
    reps_a, reps_b = rng.randrange(1, 3), rng.randrange(1, 3)
    tail = period * rng.randrange(0, 2)
    head = _word(rng, 2)

    def text(first_a: bool) -> str:
        ca, cb = ("pa", "pb") if first_a else ("pb", "pa")
        sa, sb = (1, 2) if first_a else (2, 1)
        return "\n".join([
            "input r:2 u:1 n:0",
            f'axiom = {_quote(head)} q0(x)',
            f'rule q0 r(x1,x2) = {ca}(x{sa}) {cb}(x{sb})',
            f'rule pa u(x1) = {_quote(period * reps_a)} pa(x1)',
            f'rule pa n = {_quote(tail)}',
            f'rule pb u(x1) = {_quote(period * reps_b)} pb(x1)',
            'rule pb n = ""',
        ]) + "\n"

    return parse_ltw(text(True)), parse_ltw(text(False))


WIDE_ORDERS = ("same", "reversed", "swap", "interleaved", "shuffled")


def slot_order(k: int, kind: str, rng: random.Random) -> list[int]:
    """Slots 1..k in the order `kind` names: as they are, reversed, with one
    adjacent pair swapped, interleaved as 2, 4, 6, ..., 1, 3, 5, ..., or
    shuffled."""
    order = list(range(1, k + 1))
    if kind == "reversed":
        order.reverse()
    elif kind == "swap":
        i = rng.randrange(k - 1)
        order[i], order[i + 1] = order[i + 1], order[i]
    elif kind == "interleaved":
        order = order[1::2] + order[0::2]
    elif kind == "shuffled":
        rng.shuffle(order)
    return order


def wide_pair(rng: random.Random) -> tuple[Ltw, Ltw]:
    """Two acyclic machines over n0:0 n1:0 u:1 w:k, 3 <= k <= 6, that differ
    only in the order their w-rules call the slots: each side reads each
    w-rule in an order of WIDE_ORDERS drawn for it alone.  A w-rule calls
    later states only, and every state has a nullary rule, so differences
    show on shallow trees; a third of the pairs write one letter only, and
    those are equivalent."""
    k, n = rng.randrange(3, 7), rng.randrange(2, 5)
    letters = "a" if rng.random() < 1 / 3 else "ab"

    def word() -> str:
        return _quote("".join(rng.choice(letters) for _ in range(rng.randrange(3))))

    head = [f"input n0:0 n1:0 u:1 w:{k}", f"axiom = {word()} q0(x) {word()}"]
    sides: tuple[list[str], list[str]] = ([], [])
    for i in range(n):
        shared = [f"rule q{i} n0 = {word()}"]
        if rng.random() < 0.5:
            shared.append(f"rule q{i} n1 = {word()}")
        later = range(i + 1, n)
        if later and rng.random() < 0.5:
            shared.append(f"rule q{i} u(x1) = {word()} q{rng.choice(later)}(x1) {word()}")
        for side in sides:
            side.extend(shared)
        if not later:
            continue
        callee = {s: rng.choice(later) for s in range(1, k + 1)}
        ws = [word() for _ in range(k + 1)]
        xs = ",".join(f"x{s}" for s in range(1, k + 1))
        for side in sides:
            order = slot_order(k, rng.choice(WIDE_ORDERS), rng)
            body = " ".join([ws[0]] + [f"q{callee[s]}(x{s}) {w}" for s, w in zip(order, ws[1:])])
            side.append(f"rule q{i} w({xs}) = {body}")
    A, B = ("\n".join(head + side) + "\n" for side in sides)
    return parse_ltw(A), parse_ltw(B)


def oracle_corpus() -> list[tuple[Ltw, Ltw]]:
    """The pairs of acceptance criterion 7: random machines with one
    mutation, random machines with their partial normal forms, and periodic
    runs with their calls swapped."""
    rng = random.Random(20260816)
    pairs = []
    for _ in range(80):
        M = random_layered(rng, 3)
        pairs.append((M, mutate(M, rng)))
    for _ in range(60):
        M = random_layered(rng, rng.randrange(3, 7))
        try:
            pairs.append((M, partial_normal_form(trim(M)).result))
        except EmptyTransducer:
            pairs.append((M, M))
    for _ in range(60):
        pairs.append(periodic_run_machine(rng))
    return pairs


def mutate(M: Ltw, rng: random.Random) -> Ltw:
    """One structural edit: tweak a word, swap two calls, or drop a rule.
    The result may or may not stay equivalent."""
    keys = sorted(M.rules)
    key = keys[rng.randrange(len(keys))]
    r = M.rules[key]
    rules = dict(M.rules)
    kind = rng.randrange(3)
    if kind == 0:
        wl = list(r.words)
        i = rng.randrange(len(wl))
        s = W.expand(wl[i])
        if rng.random() < 0.5 or not s:
            s = s + rng.choice(WORD_CHARS)
        else:
            s = s[:-1]
        wl[i] = M.pool.literal(s) if s else M.pool.empty
        rules[key] = Rule(r.state, r.symbol, tuple(wl), r.calls)
    elif kind == 1 and len(r.calls) >= 2:
        cl = list(r.calls)
        i = rng.randrange(len(cl) - 1)
        cl[i], cl[i + 1] = cl[i + 1], cl[i]
        rules[key] = Rule(r.state, r.symbol, r.words, tuple(cl))
    else:
        if len(rules) > 1 and rng.random() < 0.3:
            del rules[key]
        else:
            wl = list(r.words)
            wl[0] = M.pool.literal(_word(rng) + rng.choice(WORD_CHARS))
            rules[key] = Rule(r.state, r.symbol, tuple(wl), r.calls)
    return M.with_(rules=rules)


def with_junk(M: Ltw, rng: random.Random, empty_axiom: bool = False) -> Ltw:
    """M with states and rules that trimming removes, each kind drawn at
    random: unproductive states d<i>, every rule of which calls one of
    them; inaccessible states z<i> with a nullary rule and a rule calling
    any state; and rules of M's own states that call an unproductive
    state, in place of one of M's rules or under a symbol the state had no
    rule for.  The new states are spread among M's.  With `empty_axiom`
    the axiom runs d0, so the domain is empty."""
    nullary = [f for f, n in M.alphabet.items() if n == 0]
    ranked = [f for f, n in M.alphabet.items() if n > 0]
    own = list(M.states)
    dead = [f"d{i}" for i in range(rng.randrange(1, 3))]
    lost = [f"z{i}" for i in range(rng.randrange(3))]
    rules = dict(M.rules)

    def add(q, f, callees):
        n = M.alphabet[f]
        slots = list(range(1, n + 1))
        rng.shuffle(slots)
        ws = tuple(M.pool.literal(_word(rng, 2)) for _ in range(n + 1))
        rules[(q, f)] = Rule(q, f, ws, tuple((callees[s - 1], s) for s in slots))

    def calling_dead(f, others):
        callees = [rng.choice(others) for _ in range(M.alphabet[f])]
        callees[rng.randrange(len(callees))] = rng.choice(dead)
        return callees

    for d in dead:
        for f in rng.sample(ranked, rng.randrange(1, len(ranked) + 1)):
            add(d, f, calling_dead(f, own + dead))
    for z in lost:
        add(z, rng.choice(nullary), [])
        f = rng.choice(ranked)
        add(z, f, [rng.choice(own + dead + lost) for _ in range(M.alphabet[f])])
    for _ in range(rng.randrange(3)):
        f = rng.choice(ranked)
        add(rng.choice(own), f, calling_dead(f, own))
    states = own
    for q in dead + lost:
        states.insert(rng.randrange(len(states) + 1), q)
    u0, q0, u1 = M.axiom
    return M.with_(states=tuple(states), rules=rules,
                   axiom=(u0, dead[0] if empty_axiom else q0, u1))


def un_earliest(M: Ltw, rng: random.Random) -> Ltw | None:
    """An equivalent copy of M that is one step further from earliest: a
    nonempty suffix of the word before some call (or a prefix of the word
    after it) in a rule of a state the axiom reaches moves into a fresh
    copy of the callee that writes it first (or last), and the call runs
    the copy.  None when every such word next to a call is empty."""
    reach = accessible(M, M.axiom[1])
    sites = [(key, i, side) for key, r in M.rules.items() if key[0] in reach
             for i in range(len(r.calls)) for side in (0, 1)
             if r.words[i + side].length]
    if not sites:
        return None
    key, i, side = rng.choice(sites)
    r = M.rules[key]
    callee, slot = r.calls[i]
    w = r.words[i + side]
    k = rng.randrange(1, w.length + 1)
    if side:                              # the prefix of the word after
        moved, kept = W.prefix(w, k), W.strip_prefix(w, k)
    else:                                 # the suffix of the word before
        moved, kept = W.strip_prefix(w, w.length - k), W.strip_suffix(w, k)
    copy = f"{callee}_u{len(M.states)}"
    rules = dict(M.rules)
    for c in M.rules_of(callee):
        ws = list(c.words)
        if side:
            ws[-1] = M.pool.concat(ws[-1], moved)
        else:
            ws[0] = M.pool.concat(moved, ws[0])
        rules[(copy, c.symbol)] = Rule(copy, c.symbol, tuple(ws), c.calls)
    ws, calls = list(r.words), list(r.calls)
    ws[i + side], calls[i] = kept, (copy, slot)
    rules[key] = Rule(r.state, r.symbol, tuple(ws), tuple(calls))
    return M.with_(states=M.states + (copy,), rules=rules)


def split_state(M: Ltw, rng: random.Random) -> Ltw | None:
    """An equivalent copy of M in which one call, in a rule of a state the
    axiom reaches, runs a fresh copy of its callee with identical rules.
    None when no such rule has a call."""
    reach = accessible(M, M.axiom[1])
    sites = [(key, i) for key, r in M.rules.items() if key[0] in reach
             for i in range(len(r.calls))]
    if not sites:
        return None
    key, i = rng.choice(sites)
    r = M.rules[key]
    callee, slot = r.calls[i]
    copy = f"{callee}_s{len(M.states)}"
    rules = dict(M.rules)
    for c in M.rules_of(callee):
        rules[(copy, c.symbol)] = Rule(copy, c.symbol, c.words, c.calls)
    calls = list(r.calls)
    calls[i] = (copy, slot)
    rules[key] = Rule(r.state, r.symbol, r.words, tuple(calls))
    return M.with_(states=M.states + (copy,), rules=rules)


def axiom_handle(M: Ltw, rng: random.Random) -> tuple[Ltw, Ltw]:
    """Two machines equivalent to each other: one writes a random nonempty
    word h just before (or just after) the call of M's axiom, the other
    calls a fresh copy of the axiom state instead, whose every rule writes h
    first (or last).  The copy's rules call the original states."""
    h = M.pool.literal(_word(rng) + rng.choice(WORD_CHARS))
    after = rng.random() < 0.5
    u0, q, u1 = M.axiom
    framed = M.with_(axiom=(u0, q, M.pool.concat(h, u1)) if after
                     else (M.pool.concat(u0, h), q, u1))
    copy = f"{q}_h{len(M.states)}"
    rules = dict(M.rules)
    for r in M.rules_of(q):
        ws = list(r.words)
        if after:
            ws[-1] = M.pool.concat(ws[-1], h)
        else:
            ws[0] = M.pool.concat(h, ws[0])
        rules[(copy, r.symbol)] = Rule(copy, r.symbol, tuple(ws), r.calls)
    inner = M.with_(states=M.states + (copy,), rules=rules, axiom=(u0, copy, u1))
    return framed, inner


def random_word_ref(pool, rng: random.Random, depth: int = 4):
    """Random compressed word built from the full operation surface."""
    if depth == 0 or rng.random() < 0.3:
        n = rng.randrange(4)
        if n == 0:
            return pool.empty
        return pool.literal("".join(rng.choice(WORD_CHARS) for _ in range(n)))
    op = rng.randrange(6)
    a = random_word_ref(pool, rng, depth - 1)
    if op == 0:
        b = random_word_ref(pool, rng, depth - 1)
        return pool.concat(a, b)
    if op == 1 and a.length:
        return W.strip_prefix(a, rng.randrange(a.length + 1))
    if op == 2 and a.length:
        return W.strip_suffix(a, rng.randrange(a.length + 1))
    if op == 3 and a.length:
        return W.rotate_left(a, rng.randrange(2 * a.length))
    if op == 4:
        return W.reverse(a)
    return power(a, rng.randrange(4))


def stage_pipeline(M: Ltw):
    """Yield (stage name, machine after stage), starting from a trimmed M."""
    M1, _, _ = eliminate_quasi_periodic_states(M)
    yield "eliminate", M1
    M2, _ = erase_order(M1)
    yield "erase-order", M2
    M3, _, _ = make_rule_parts_earliest(M2)
    yield "parts", M3
    M4, _ = reorder_periodic_runs(M3)
    yield "reorder", M4


def check_elimination_laws(M: Ltw, s: str, d: str) -> None:
    """Laws behind one elimination step, checked on the oriented machine.

    Every state reachable from an eliminated state is quasi-periodic with
    its shortest word as handle, and all nontrivial periods in the group
    agree up to rotation by the mock shift."""
    Mo = M if d == "left" else mirror(M)
    v = quasi_periodicity(Mo, s, "left")
    assert v is not None
    sw = shortest_words(Mo)
    st = mock_shift_table(Mo, s)
    assert W.equals(v.handle, sw[s])
    for p in accessible(Mo, s):
        vp = quasi_periodicity(Mo, p, "left")
        assert vp is not None
        assert vp.handle.length == sw[p].length
        assert W.equals(vp.handle, sw[p])
        if v.period.length and vp.period.length:
            assert vp.period.length == v.period.length
            k = st[p] % v.period.length
            assert W.equals(W.rotate_left(vp.period, k), v.period)


def replay_with_laws(M: Ltw) -> int:
    """Run the elimination stage one step at a time, checking the laws
    before each step on the exact machine the step rewrites.  Returns how
    many eliminations the machine needed."""
    rep = partial_normal_form(M)
    N = trim(M)
    for s, d in rep.eliminated:
        check_elimination_laws(N, s, d)
        N = trim(make_state_earliest(N, s, quasi_periodicity(N, s, d)))
    return len(rep.eliminated)


def equality_differential(cases: int, seed: int) -> int:
    """Random compressed words, compared twice: fingerprint equals against
    ground-truth expansion.  Returns the number of disagreements."""
    rng = random.Random(seed)
    pool = W.SlpPool()
    mismatches = 0
    for _ in range(cases):
        a = random_word_ref(pool, rng)
        if rng.random() < 0.5:
            b = random_word_ref(pool, rng)
        else:
            # same word, differently shaped: rebuild from the expansion
            s = W.expand(a)
            cut = rng.randrange(len(s) + 1)
            b = pool.concat(pool.literal(s[:cut]) if s[:cut] else pool.empty,
                            pool.literal(s[cut:]) if s[cut:] else pool.empty)
        got = W.equals(a, b)
        truth = W.expand(a) == W.expand(b)
        if got != truth:
            mismatches += 1
    return mismatches


def reference_settle(rules) -> dict:
    """Knuth's least fixpoint with one heap of ready rules keyed by (value,
    ready order), as a reference for :func:`ltw.core.settle`: the same
    result, in the same settling order."""
    waiting: dict = {}
    heap: list[list] = []
    seq = itertools.count()
    for head, label, body, cost in rules:
        # [value so far, ready order, unsettled body nodes, head, label, body]
        cell = [cost, 0, len(body), head, label, body]
        if body:
            for node in body:
                waiting.setdefault(node, []).append(cell)
        else:
            cell[1] = next(seq)
            heap.append(cell)
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        value, _, _, head, label, body = heapq.heappop(heap)
        if head in out:
            continue
        out[head] = (value, label, body)
        for cell in waiting.pop(head, ()):
            cell[0] += value
            cell[2] -= 1
            if not cell[2]:
                cell[1] = next(seq)
                heapq.heappush(heap, cell)
    return out


def count_products(monkeypatch, limit: int | None = None) -> list:
    """Record every product the span fixpoint evaluates from now on, as
    (id of its step, partial operand or None, child vector): a first child
    through its word frames (`analysis._framed`), a later one through its
    bilinear step (`analysis._apply`).  The list is live; past `limit`
    products the next one raises."""
    seen = []
    apply, framed = analysis._apply, analysis._framed

    def record(key):
        seen.append(key)
        if limit is not None and len(seen) > limit:
            raise AssertionError(f"more than {limit} products")

    def counted_apply(ops, x, v, p):
        record((id(ops), tuple(x), v))
        return apply(ops, x, v, p)

    def counted_framed(frames, v, p):
        record((id(frames), None, v))
        return framed(frames, v, p)

    monkeypatch.setattr(analysis, "_apply", counted_apply)
    monkeypatch.setattr(analysis, "_framed", counted_framed)
    return seen


def plain_rank(vectors) -> int:
    """The rank of `vectors` over F_p, by plain row reduction."""
    p = W.fingerprinter().prime
    rows = []
    for v in vectors:
        r = list(v)
        for c, row in rows:
            r = [(a - r[c] * b) % p for a, b in zip(r, row)]
        c = next((i for i, a in enumerate(r) if a), None)
        if c is not None:
            inv = pow(r[c], -1, p)
            rows.append((c, [a * inv % p for a in r]))
    return len(rows)


def reference_pair_spans(ps) -> dict:
    """The span fixpoint read the plain way, as a reference for
    :func:`ltw.analysis.pair_spans`: {pair: (basis vectors, basis trees)}.

    Every rule read evaluates every combination of its children's basis
    vectors in product order, skipping those read before, and keeps a
    vector when row reduction against normalized echelon rows leaves a
    remainder."""
    fp = W.fingerprinter()
    p = fp.prime

    def side(ws, slots, vecs, o):
        P, H = ws[0]
        C = 1
        for (wp, wh), s in zip(ws[1:], slots):
            v = vecs[s - 1]
            P, H, C = P * v[o] % p, (H * v[o] + C * v[o + 1]) % p, C * v[4] % p
            P, H = P * wp % p, (H * wp + C * wh) % p
        return P, H, C

    rules, users = {}, defaultdict(dict)
    for pair in ps.co:
        rules[pair] = []
        for f, kids, r1, r2 in ps.rule_pairs[pair]:
            rules[pair].append((f, kids, [fp.summary(w) for w in r1.words], r1.slots,
                                [fp.summary(w) for w in r2.words], r2.slots))
            for k in kids:
                users[k][pair] = None
    span = {pair: ([], [], []) for pair in ps.co}    # vectors, trees, rows
    done, queue, queued = {}, deque(ps.co), set(ps.co)
    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        vectors, trees, rows = span[pair]
        grew = False
        for i, (f, kids, ws1, slots1, ws2, slots2) in enumerate(rules[pair]):
            sizes = [len(span[k][0]) for k in kids]
            old, done[(pair, i)] = done.get((pair, i)), sizes
            for combo in itertools.product(*map(range, sizes)):
                if old is not None and all(j < n for j, n in zip(combo, old)):
                    continue
                vecs = [span[k][0][j] for k, j in zip(kids, combo)]
                P1, H1, C = side(ws1, slots1, vecs, 0)
                P2, H2, _ = side(ws2, slots2, vecs, 2)
                r = [P1, H1, P2, H2, C]
                for c, row in rows:
                    r = [(a - r[c] * b) % p for a, b in zip(r, row)]
                c = next((i for i, a in enumerate(r) if a), None)
                if c is not None:
                    inv = pow(r[c], -1, p)
                    rows.append((c, [a * inv % p for a in r]))
                    vectors.append((P1, H1, P2, H2, C))
                    trees.append(Tree(f, tuple(span[k][1][j] for k, j in zip(kids, combo))))
                    grew = True
        if grew:
            for user in users[pair]:
                if user not in queued:
                    queued.add(user)
                    queue.append(user)
    return {pair: (vectors, trees) for pair, (vectors, trees, _) in span.items()}


# -- words ------------------------------------------------------------------

def power(p: WordRef, k: int) -> WordRef:
    """p repeated k times, in O(log k) nodes."""
    if k < 0:
        raise W.OutOfRange("negative power")
    pool = p.pool
    out, sq = pool.empty, p
    while k:
        if k & 1:
            out = pool.concat(out, sq)
        k >>= 1
        if k:
            sq = pool.concat(sq, sq)
    return out


def is_power_of(w: WordRef, p: WordRef) -> bool:
    """True iff w == p**k for some k >= 0."""
    if w.length == 0:
        return True
    if p.length == 0 or w.length % p.length:
        return False
    return W.equals(w, power(p, w.length // p.length))


def pow_family_text(b: int) -> str:
    """q h = a^N built by squaring, q g = "", q f(x1) = q(x1), for N the
    product of the least primes from 2**b and from 2**(b+1): q's shortest
    output is empty, and N has two prime factors out of reach of trial
    division."""
    def next_prime(n):
        while not W._probably_prime(n):
            n += 1
        return n

    n = next_prime(2 ** b) * next_prime(2 ** (b + 1))
    bits = n.bit_length()
    lines = ["input f:1 g:0 h:0", 'slp A0 = "a"']
    lines += [f"slp A{i} = A{i - 1} A{i - 1}" for i in range(1, bits)]
    lines.append("slp W = " + " ".join(f"A{i}" for i in range(bits) if n >> i & 1))
    lines += ["axiom = q(x)", "rule q h = $W", 'rule q g = ""',
              "rule q f(x1) = q(x1)"]
    return "\n".join(lines) + "\n"


# -- machines ---------------------------------------------------------------

def same_structure(M1: Ltw, M2: Ltw) -> bool:
    """Structural equality modulo word-node ids (words compared as words)."""
    if M1.alphabet != M2.alphabet or set(M1.states) != set(M2.states):
        return False
    u0, q, u1 = M1.axiom
    v0, p, v1 = M2.axiom
    if q != p or not W.equals(u0, v0) or not W.equals(u1, v1):
        return False
    if set(M1.rules) != set(M2.rules):
        return False
    for key, r1 in M1.rules.items():
        r2 = M2.rules[key]
        if r1.calls != r2.calls:
            return False
        if any(not W.equals(a, b) for a, b in zip(r1.words, r2.words)):
            return False
    return True


def build_Tq(M: Ltw, q: str) -> Ltw:
    """The companion transducer of q: one state per accessible state, with
    the rules of :func:`ltw.analysis.companion_rules`, under an axiom that
    emits q's shortest word first."""
    acc = accessible(M, q)
    w = shortest_words(M)
    if any(p not in w for p in acc):
        raise EmptyTransducer(f"state {q} reaches states with empty domains; trim first")
    name = {p: p + "__T" for p in M.states if p in acc}
    rules = companion_rules(M, q, name)
    used = {f for _, f in rules}
    alphabet = {f: a for f, a in M.alphabet.items() if f in used}
    return Ltw(alphabet=alphabet, states=tuple(name.values()),
               axiom=(w[q], name[q], M.pool.empty), rules=rules, pool=M.pool)


# -- the loader -------------------------------------------------------------

_REF_DQ = r'"(?:[^"\\]|\\["\'\\])*'
_REF_SQ = r"'(?:[^'\"\\]|\\[\"'\\])*"
_REF_TOKEN = re.compile(rf"""[ \t]*([A-Za-z_][A-Za-z0-9_]*|\d+|{_REF_DQ}"|{_REF_SQ}'|.)""", re.S)
_REF_BLANKS = re.compile(r"[ \t]*")
_REF_ESCAPE = re.compile(r"\\(.)")
_REF_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class _RefLine:
    """The token cursor of :func:`reference_parse_ltw`: one method call per
    token.  An error points at the start of the next token once the parser
    has looked at it, else just after the last token taken."""

    def __init__(self, text: str, no: int):
        self.text, self.no = text, no
        self.toks = _REF_TOKEN.findall(text) + [""]    # "" marks the end
        self.i = 0
        self.looked = True

    def _start(self, i: int) -> int:
        pos = 0
        for tok in self.toks[:i]:
            pos = _REF_BLANKS.match(self.text, pos).end() + len(tok)
        return _REF_BLANKS.match(self.text, pos).end()

    def error(self, msg, at: int | None = None):
        if at is None:
            i = self.i - (not self.looked)
            at = self._start(i) + (0 if self.looked else len(self.toks[i]))
        raise ParseError(msg, self.no, at + 1)

    def _pop(self, ok: bool = True, what: str = "") -> str:
        if not ok:
            self.looked = True
            self.error(f"expected {what}")
        self.looked = False
        self.i += 1
        return self.toks[self.i - 1]

    def at_end(self) -> bool:
        self.looked = True
        return not self.toks[self.i]

    def skip(self, ch: str) -> bool:
        self.looked = True
        if self.toks[self.i] != ch:
            return False
        self._pop()
        return True

    def take(self, ch: str):
        tok = self.toks[self.i]
        if tok != ch and tok.startswith(ch):  # `x` cut off a name like x1
            self.toks[self.i:self.i + 1] = [ch] + _REF_TOKEN.findall(tok[len(ch):])
        self._pop(self.toks[self.i] == ch, repr(ch))

    def name(self) -> str:
        return self._pop(self.toks[self.i][:1] in _REF_NAME_START, "a name")

    def number(self) -> int:
        return int(self._pop(self.toks[self.i][:1].isdecimal(), "a number"))

    def slot(self) -> int:
        tok = self.toks[self.i]
        if tok[:1] == "x" and tok[1:].isdecimal():
            return int(self._pop()[1:])
        self.take("x")
        return self.number()

    def word(self, pool, slps, bare_refs: bool):
        out = pool.empty
        while True:
            tok = self.toks[self.i]
            quote = tok[:1] in ('"', "'")
            if quote and len(tok) > 1:
                body = self._pop()[1:-1]
                try:
                    out = pool.concat(out, pool.literal(
                        _REF_ESCAPE.sub(r"\1", body) if "\\" in body else body))
                except ValueError as e:
                    self.error(str(e))
            elif quote:
                at = re.compile(_REF_DQ if tok == '"' else _REF_SQ).match(
                    self.text, self._start(self.i)).end()
                bad = self.text[at:at + 2]
                if not bad:
                    self.error("unterminated string literal", at)
                if bad[0] == '"':
                    self.error("'\"' must be escaped inside a literal", at)
                self.error("dangling backslash" if len(bad) == 1
                           else f"unsupported escape {bad}", at)
            elif tok == "$" or (bare_refs and tok[:1] in _REF_NAME_START):
                if tok == "$":
                    self._pop()
                name = self.name()
                if name not in slps:
                    self.error(f"unknown slp name {name}")
                out = pool.concat(out, slps[name])
            else:
                self.looked = True
                return out


def reference_parse_ltw(text: str) -> Ltw:
    """The .ltw loader read the plain way, a cursor call per token, as a
    reference for :func:`ltw.parse_ltw`: the same machine or the same
    ParseError (message, line and column) on every text, with a fresh pool
    node for every literal."""
    pool = W.SlpPool()
    alphabet: dict[str, int] = {}

    def declare(symbol: str, arity: int):
        old = alphabet.setdefault(symbol, arity)
        if old != arity:
            line.error(f"symbol {symbol} redeclared with arity {arity} != {old}")

    slps: dict[str, W.WordRef] = {}
    axiom = None
    rules: dict[tuple[str, str], Rule] = {}
    states: dict[str, None] = {}

    for no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        line = _RefLine(stripped, no)
        head = line.name()
        if head == "input":
            while not line.at_end():
                sym = line.name()
                line.take(":")
                declare(sym, line.number())
        elif head == "slp":
            name = line.name()
            if name in slps:
                line.error(f"slp {name} redefined")
            line.take("=")
            slps[name] = line.word(pool, slps, bare_refs=True)
            if not line.at_end():
                line.error("trailing input after slp definition")
        elif head == "axiom":
            if axiom is not None:
                line.error("axiom redefined")
            line.take("=")
            u0 = line.word(pool, slps, bare_refs=False)
            state = line.name()
            for ch in "(x)":
                line.take(ch)
            u1 = line.word(pool, slps, bare_refs=False)
            if not line.at_end():
                line.error("trailing input after axiom")
            states[state] = None
            axiom = (u0, state, u1)
        elif head == "rule":
            state = line.name()
            symbol = line.name()
            slots: list[int] = []
            if line.skip("("):
                while not line.skip(")"):
                    if slots:
                        line.take(",")
                    slots.append(line.slot())
            line.take("=")
            states[state] = None
            rwords = [line.word(pool, slps, bare_refs=False)]
            calls: list[tuple[str, int]] = []
            while not line.at_end():
                callee = line.name()
                line.take("(")
                calls.append((callee, line.slot()))
                line.take(")")
                states[callee] = None
                rwords.append(line.word(pool, slps, bare_refs=False))
            if (state, symbol) in rules:
                line.error(f"duplicate rule for {state},{symbol}")
            if slots and slots != list(range(1, len(slots) + 1)):
                line.error("head variables must be x1,..,xn in order")
            if slots and len(slots) != len(calls):
                line.error(f"head declares {len(slots)} children but {len(calls)} are called")
            called = sorted(slot for _, slot in calls)
            if called != list(range(1, len(calls) + 1)):
                line.error(f"call slots {called} are not a permutation of the children")
            declare(symbol, len(calls))
            rules[(state, symbol)] = Rule(state, symbol, tuple(rwords), tuple(calls))
        else:
            line.error(f"unknown declaration {head!r}")

    if axiom is None:
        raise ParseError("missing axiom")
    if 0 not in alphabet.values():
        line.error("alphabet has no nullary symbol, so no finite trees exist")
    return Ltw(alphabet=alphabet, states=tuple(states), axiom=axiom,
               rules=rules, pool=pool)


# -- brute force ------------------------------------------------------------

class RuleBudget(dict):
    """A rule table whose lookups fail once the budget `left[0]` is spent;
    tables built with one list share it."""

    def __init__(self, rules, left: list[int]):
        super().__init__(rules)
        self.left = left

    def get(self, key, default=None):
        self.left[0] -= 1
        assert self.left[0] >= 0, "rule lookup budget exceeded"
        return super().get(key, default)


def tree_size(t: Tree) -> int:
    """Nodes of t unfolded, counted without recursion."""
    n, stack = 0, [t]
    while stack:
        n += 1
        stack.extend(stack.pop().children)
    return n


def tree_depth(t: Tree) -> int:
    """Levels of t (a leaf has depth 1), found without recursion."""
    deepest, stack = 0, [(t, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in node.children)
    return deepest


# the reference for brute_equiv's enumeration, which lists the domain of
# ltw.oracle.every_tree_machine with ltw.oracle.enumerate_trees
def enumerate_all_trees(alphabet_items, budget: EnumerationBudget) -> list[Tree]:
    """All trees over the alphabet (not just domain trees), depth-major."""
    cap = budget.max_trees
    levels: list[list[Tree]] = [[]]
    out: list[Tree] = []
    for depth in range(1, budget.max_depth + 1):
        exact: list[Tree] = []
        for sym, ar in alphabet_items:
            if len(out) + len(exact) >= cap:
                break
            if ar == 0:
                if depth == 1:
                    exact.append(Tree(sym))
                continue
            if depth == 1:
                continue
            sh = [t for lvl in levels[1:depth - 1] for t in lvl]
            deepest = levels[depth - 1]
            full = sh + deepest
            room = cap - len(out) - len(exact)
            for combo in _exact_depth_combos([sh] * ar, [deepest] * ar,
                                             [full] * ar, ar, room):
                exact.append(Tree(sym, tuple(combo)))
        levels.append(exact)
        for t in exact:
            if len(out) >= cap:
                return out
            out.append(t)
    return out


def is_periodic_state(M: Ltw, q: str) -> WordRef | None:
    """The primitive period p with L(q) a subset of p*, or None: the
    primitive root of :func:`ltw.analysis.periodic_word` (empty when q has
    no nonempty output)."""
    w = periodic_word(M, q)
    return None if w is None else W.primitive_root(w)


def string_primitive_root(s: str) -> str:
    n = len(s)
    if n == 0:
        return s
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = fail[k - 1]
        if s[i] == s[k]:
            k += 1
        fail[i] = k
    p = n - fail[n - 1]
    return s[:p] if n % p == 0 else s


class BruteQp(W.Record):
    __slots__ = ("handle", "period")

    def __init__(self, handle: str, period: str):
        self.handle, self.period = handle, period


def brute_quasi_periodic(outputs: list[str], direction: str = "left") -> BruteQp | None:
    """Necessary-condition evidence that a finite set of outputs is
    quasi-periodic: unique shortest word as handle, period from the
    second-shortest, membership of every word in handle . period*."""
    if not outputs:
        return None
    if direction == "right":
        flipped = brute_quasi_periodic([s[::-1] for s in outputs], "left")
        if flipped is None:
            return None
        return BruteQp(flipped.handle[::-1], flipped.period[::-1])
    seen = sorted(set(outputs), key=len)
    handle = seen[0]
    if len(seen) > 1 and len(seen[1]) == len(handle):
        return None
    if len(seen) == 1:
        return BruteQp(handle, "")
    period = string_primitive_root(seen[1][len(handle):])
    for s in seen:
        if not s.startswith(handle):
            return None
        rest = s[len(handle):]
        if len(rest) % len(period):
            return None
        if rest != period * (len(rest) // len(period)):
            return None
    return BruteQp(handle, period)
