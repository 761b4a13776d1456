"""Language analyses on transducer states.

Everything a normal form needs to know about a state's output language:
shortest words, erasing/singleton detection, periodicity of the language,
quasi-periodicity (the language sits inside handle.period* or period*.handle),
the hat states that expose rule parts as states of their own, and the
co-reachable pair space two machines induce on a common domain.

All analyses are per-machine pure functions; results are cached on the
(immutable) transducer instance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import words
from .core import (EmptyTransducer, Ltw, RankedAlphabet, Rule, Tree,
                   accessible, mirror, settle, trim, with_axiom_state)
from .words import WordRef


def _cache(M: Ltw) -> dict:
    c = M.__dict__.get("_analysis")
    if c is None:
        c = {}
        object.__setattr__(M, "_analysis", c)
    return c


def _assemble(M: Ltw, r: Rule, subs) -> WordRef:
    """The rule's output once its calls are replaced by `subs`, in call order."""
    refs = [r.words[0]]
    for i, sub in enumerate(subs):
        refs.append(sub)
        refs.append(r.words[i + 1])
    return M.pool.concat_all(refs)


def _fresh(existing, base: str) -> str:
    """`base`, or `base` with the least counter from 2 on not in `existing`."""
    name, k = base, 2
    while name in existing:
        name = f"{base}{k}"
        k += 1
    return name


# -- shortest words -----------------------------------------------------------

def _shortest(M: Ltw, key: str):
    """The cached shortest-output maps of M, from one weighted settle.

    Its nodes are (q, False), a shortest output of q, and (q, True), a
    shortest nonempty one; a node's value is the word's length.  A rule
    reaches (q, False) through its callees' shortest outputs, and (q, True)
    the same way when its own words are nonempty, else with exactly one
    callee upgraded to (c, True).  At equal length the rule that became
    ready first wins; words are assembled in settling order, so a rule's
    callee words always exist before its own.
    """
    c = _cache(M)
    if "m" not in c:
        rules = []
        for p in M.states:
            for r in M.rules_of(p):
                cost = sum(w.length for w in r.words)
                plain = [(callee, False) for callee, _ in r.calls]
                rules.append(((p, False), r, plain, cost))
                if cost:
                    rules.append(((p, True), r, plain, cost))
                    continue
                for i, (callee, _) in enumerate(r.calls):
                    rules.append(((p, True), r,
                                  plain[:i] + [(callee, True)] + plain[i + 1:], 0))
        out: dict[tuple[str, bool], WordRef] = {}
        for node, (_, r, body) in settle(rules).items():
            out[node] = _assemble(M, r, [out[b] for b in body])
        c["w"] = {q: w for (q, nonempty), w in out.items() if not nonempty}
        c["w+"] = {q: w for (q, nonempty), w in out.items() if nonempty}
        c["m"] = {q: c["w"][q].length if q in c["w"] else None for q in M.states}
    return c[key]


def shortest_word_lengths(M: Ltw) -> dict[str, int | None]:
    """Minimal output length per state; None for states with empty domain."""
    return _shortest(M, "m")


def shortest_words(M: Ltw) -> dict[str, WordRef]:
    """A minimal-length output per productive state, materialized.

    Deterministic: among the rules reaching the minimum, the one that became
    ready first wins, i.e. the one whose last callee settled earliest; rules
    without calls rank in state, then symbol declaration order."""
    return _shortest(M, "w")


def shortest_word(M: Ltw, q: str) -> WordRef | None:
    return shortest_words(M).get(q)


def shortest_nonempty_word(M: Ltw, q: str) -> WordRef | None:
    """A minimal-length nonempty output of q, or None if q only erases
    (or has an empty domain); ties broken as in :func:`shortest_words`."""
    return _shortest(M, "w+").get(q)


def erasing_states(M: Ltw) -> set[str]:
    """Productive states whose every output is the empty word."""
    c = _cache(M)
    if "erasing" not in c:
        m, plus = _shortest(M, "m"), _shortest(M, "w+")
        c["erasing"] = {q for q in M.states if m[q] == 0 and q not in plus}
    return c["erasing"]


def is_erasing(M: Ltw, q: str) -> bool:
    return q in erasing_states(M)


def singleton_word(M: Ltw, q: str) -> WordRef | None:
    """The single output of q if |L(q)| == 1, else None.

    L(q) is a singleton exactly when every state accessible from q has a
    nonempty domain and each of its rules, callees replaced by their
    shortest words, outputs the state's own shortest word.  The states that
    break this are found once per machine; the verdict then spreads to
    their callers through a reverse call index.
    """
    c = _cache(M)
    w = shortest_words(M)
    if "multi" not in c:
        multi = {p for p in M.states if p not in w}
        callers: dict[str, set[str]] = {}
        for r in M.rules.values():
            for callee, _ in r.calls:
                callers.setdefault(callee, set()).add(r.state)
            if all(callee in w for callee, _ in r.calls) and not words.equals(
                    _assemble(M, r, [w[callee] for callee, _ in r.calls]), w[r.state]):
                multi.add(r.state)
        todo = list(multi)
        while todo:
            for p in callers.get(todo.pop(), ()):
                if p not in multi:
                    multi.add(p)
                    todo.append(p)
        c["multi"] = multi
    return None if q in c["multi"] else w[q]


# -- shifts and the companion transducer --------------------------------------

@dataclass(frozen=True)
class ShiftTable:
    """Least length produced strictly after a call to each accessible state,
    over all outputs of the root (shortest completions elsewhere)."""

    root: str
    dist: dict[str, int]

    def shift(self, q: str) -> int:
        return self.dist[q]


def mock_shift_table(M: Ltw, q: str) -> ShiftTable:
    """One settle from q over rule calls: the edge from a caller into a
    callee weighs the shortest completion of everything to the right of
    that call."""
    c = _cache(M)
    key = ("shift", q)
    if key not in c:
        m = shortest_word_lengths(M)
        edges = [(q, None, [], 0)]
        for r in M.rules.values():
            if any(m[callee] is None for callee, _ in r.calls):
                continue
            suf = r.words[-1].length
            for i in range(len(r.calls) - 1, -1, -1):
                callee = r.calls[i][0]
                edges.append((callee, None, [r.state], suf))
                suf += m[callee] + r.words[i].length
        dist = {p: value for p, (value, _, _) in settle(edges).items()}
        c[key] = ShiftTable(q, dist)
    return c[key]


def companion_rules(M: Ltw, q: str, name: dict[str, str]) -> dict:
    """The rules of the states in `name` (those accessible from q), renamed
    by it: each rule's whole output moved to the front, stripped of the
    state's shortest word and rotated into q's alignment."""
    w = shortest_words(M)
    shifts = mock_shift_table(M, q)
    rules = {}
    for p in name:
        for r in M.rules_of(p):
            out = _assemble(M, r, [w[callee] for callee, _ in r.calls])
            stripped = words.strip_prefix(out, w[p].length)
            front = words.rotate_left(stripped, shifts.shift(p))
            rwords = (front,) + (M.pool.empty,) * len(r.calls)
            calls = tuple((name[c], s) for c, s in r.calls)
            rules[(name[p], r.symbol)] = Rule(name[p], r.symbol, rwords, calls)
    return rules


def build_Tq(M: Ltw, q: str) -> Ltw:
    """The companion transducer of q: one state per accessible state, with
    the rules of :func:`companion_rules`.

    When q's language is quasi-periodic the companion is equivalent to q run
    under an axiom that emits q's shortest word first, and every companion
    state's language lies inside period*.  Both facts are checked by
    :func:`quasi_periodicity`; nothing here assumes them.
    """
    acc = accessible(M, q)
    w = shortest_words(M)
    if any(p not in w for p in acc):
        raise EmptyTransducer(f"state {q} reaches states with empty domains; trim first")
    name = {p: p + "__T" for p in M.states if p in acc}
    rules = companion_rules(M, q, name)
    used = {f for _, f in rules}
    alphabet = RankedAlphabet({f: a for f, a in M.alphabet.items() if f in used})
    return Ltw(alphabet=alphabet, states=tuple(name.values()),
               axiom=(w[q], name[q], M.pool.empty), rules=rules, pool=M.pool)


# -- periodicity --------------------------------------------------------------

def is_periodic_state(M: Ltw, q: str) -> WordRef | None:
    """The primitive period p with L(q) a subset of p*, or None.

    Empty and singleton languages short-circuit (period empty resp. the
    primitive root of the one word).  Otherwise the only candidate period is
    the primitive root of the shortest nonempty output; rule lengths must
    close modulo its length and every rule word must match the period's
    rotation at the position where it is emitted.  Complete on trimmed input:
    a state genuinely used at two alignments cannot emit anything.
    """
    c = _cache(M)
    key = ("periodic", q)
    if key in c:
        return c[key]
    c[key] = out = _is_periodic(M, q)
    return out


def _is_periodic(M: Ltw, q: str) -> WordRef | None:
    pool = M.pool
    wp = shortest_nonempty_word(M, q)
    if wp is None:                        # erasing, or vacuously: empty domain
        return pool.empty
    single = singleton_word(M, q)
    if single is not None:
        return words.primitive_root(single)
    pi = words.primitive_root(wp)
    ell = pi.length
    m = shortest_word_lengths(M)
    acc = accessible(M, q)
    erasing = erasing_states(M)
    if any(m[p] is None for p in acc):
        return None
    r0 = {p: (0 if p in erasing else m[p] % ell) for p in acc}
    if r0[q] != 0:
        return None
    for p in acc:
        for r in M.rules_of(p):
            tot = sum(u.length for u in r.words) + sum(r0[cal] for cal, _ in r.calls)
            if tot % ell != r0[p]:
                return None
    # alignment: the word at offset c must be a prefix of rotate(pi, c)**inf
    rot_pow: dict[tuple[int, int], WordRef] = {}

    def fits(u: WordRef, pos: int) -> bool:
        if u.length == 0:
            return True
        k = -(-u.length // ell)
        big = rot_pow.get((pos, k))
        if big is None:
            big = rot_pow[(pos, k)] = words.power(words.rotate_left(pi, pos), k)
        return words.equals(words.strip_suffix(big, big.length - u.length), u)

    phase: dict[str, int] = {q: 0}
    queue = [q]
    while queue:
        p = queue.pop(0)
        for r in M.rules_of(p):
            pos = phase[p]
            for i in range(len(r.calls) + 1):
                if not fits(r.words[i], pos):
                    return None
                pos = (pos + r.words[i].length) % ell
                if i < len(r.calls):
                    callee = r.calls[i][0]
                    if callee in erasing:
                        continue
                    got = phase.get(callee)
                    if got is None:
                        phase[callee] = pos
                        queue.append(callee)
                    elif got != pos:
                        return None
                    pos = (pos + r0[callee]) % ell
    return pi


# -- quasi-periodicity --------------------------------------------------------

@dataclass(frozen=True)
class QuasiPeriodicity:
    """Certificate that a state's language is handle.period* (direction left)
    or period*.handle (direction right)."""

    direction: str
    handle: WordRef
    period: WordRef


def quasi_periodicity(M: Ltw, q: str, direction: str = "left") -> QuasiPeriodicity | None:
    """Decide quasi-periodicity of L(q) and return the certificate.

    Left: builds the companion transducer, requires its root to be periodic,
    then confirms the companion is equivalent to q itself (same-ordered by
    construction).  Right goes through the mirror machine.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be left or right, not {direction!r}")
    c = _cache(M)
    key = ("qp", q, direction)
    if key in c:
        return c[key]
    c[key] = out = _quasi_periodicity(M, q, direction)
    return out


def _quasi_periodicity(M: Ltw, q: str, direction: str) -> QuasiPeriodicity | None:
    if direction == "right":
        v = quasi_periodicity(mirror(M), q, "left")
        if v is None:
            return None
        return QuasiPeriodicity("right", words.reverse(v.handle),
                                words.reverse(v.period))
    Mq = with_axiom_state(M, q)
    try:
        Mq = trim(Mq)
    except EmptyTransducer:
        return None
    T = build_Tq(Mq, q)
    pi = is_periodic_state(T, q + "__T")
    if pi is None:
        return None
    from .equivalence import decide_same_ordered_equiv
    verdict = decide_same_ordered_equiv(Mq, T)
    if not verdict.equivalent:
        return None
    return QuasiPeriodicity("left", shortest_words(Mq)[q], pi)


# -- rule parts ---------------------------------------------------------------

def hat_state_machine(M: Ltw, callee: str, u: WordRef) -> tuple[Ltw, str]:
    """Extend M with a state whose language is L(callee).u.

    Its rules are the callee's with u appended to the final word; inside
    them, any call to the callee that is followed by a word equal to u is
    itself an occurrence of the part and is redirected to the new state.
    """
    name = _fresh(set(M.states), callee + "__hat")
    pool = M.pool
    new_rules = dict(M.rules)
    for r in M.rules_of(callee):
        rwords = list(r.words[:-1]) + [pool.concat(r.words[-1], u)]
        calls = list(r.calls)
        for i, (c, slot) in enumerate(calls):
            if c == callee and words.equals(rwords[i + 1], u):
                calls[i] = (name, slot)
                rwords[i + 1] = pool.empty
        new_rules[(name, r.symbol)] = Rule(name, r.symbol, tuple(rwords), tuple(calls))
    M2 = M.with_(states=M.states + (name,), rules=new_rules)
    return M2, name


def part_quasi_periodicity(M: Ltw, callee: str, u: WordRef):
    """Quasi-periodicity (left) of the part language L(callee).u.

    Returns (certificate-or-None, extended machine, hat state name); the
    extended machine is M plus the hat state and is what a rewrite of the
    part should start from.
    """
    M2, hat = hat_state_machine(M, callee, u)
    return quasi_periodicity(M2, hat, "left"), M2, hat


def rule_part_quasi_periodicity(M: Ltw, state: str, symbol: str, pos: int):
    """Part analysis for call number `pos` (0-based) of one rule."""
    r = M.rule(state, symbol)
    if r is None or not 0 <= pos < len(r.calls):
        raise ValueError(f"no call {pos} in rule {state},{symbol}")
    callee, _ = r.calls[pos]
    return part_quasi_periodicity(M, callee, r.words[pos + 1])


# -- pair space ---------------------------------------------------------------

class PairSpace:
    """Co-reachable state pairs of two transducers.

    A pair is co-reachable when some common input context drives both
    machines to it simultaneously while every sibling subtree stays
    completable in both.  Expansion therefore only descends through symbols
    whose slot pairs are all productive (own a common tree); a failed slot is
    not descended into -- it is a domain difference reportable at its parent.
    """

    def __init__(self, M1: Ltw, M2: Ltw):
        self.M1 = M1
        self.M2 = M2
        self.axiom_pair = (M1.axiom[1], M2.axiom[1])
        self._expand: dict[tuple[str, str], list] = {}
        self.universe: list[tuple[str, str]] = []
        seen = {self.axiom_pair}
        queue = deque([self.axiom_pair])
        while queue:
            pair = queue.popleft()
            self.universe.append(pair)
            exp = []
            for f, kids in self._expansions(pair):
                exp.append((f, kids))
                for kid in kids:
                    if kid not in seen:
                        seen.add(kid)
                        queue.append(kid)
            self._expand[pair] = exp
        settled = settle((pair, f, kids, 0) for pair in self.universe
                         for f, kids in self._expand[pair])
        self._common: dict[tuple[str, str], Tree] = {}
        for pair, (_, f, kids) in settled.items():
            self._common[pair] = Tree(f, tuple(self._common[k] for k in kids))
        self.productive = set(settled)
        self.parent: dict[tuple[str, str], tuple | None] = {self.axiom_pair: None}
        self.co: list[tuple[str, str]] = []
        queue = deque([self.axiom_pair])
        while queue:
            pair = queue.popleft()
            self.co.append(pair)
            for f, kids in self._expand[pair]:
                if not all(k in self.productive for k in kids):
                    continue
                for m, kid in enumerate(kids, 1):
                    if kid not in self.parent:
                        self.parent[kid] = (pair, f, m)
                        queue.append(kid)

    def _expansions(self, pair):
        p1, p2 = pair
        for f in self.M1.alphabet:
            if f not in self.M2.alphabet:
                continue
            r1 = self.M1.rule(p1, f)
            r2 = self.M2.rule(p2, f)
            if r1 is None or r2 is None or r1.arity != r2.arity:
                continue
            by1 = {s: c for c, s in r1.calls}
            by2 = {s: c for c, s in r2.calls}
            kids = tuple((by1[m], by2[m]) for m in range(1, r1.arity + 1))
            yield f, kids

    def expansions(self, pair):
        return self._expand[pair]

    def common_tree(self, pair) -> Tree | None:
        return self._common.get(pair)

    def context(self, pair, inner: Tree) -> Tree:
        """Wrap `inner` into a whole input tree reaching `pair`."""
        cur, p = inner, pair
        while p != self.axiom_pair:
            parent, f, slot = self.parent[p]
            kids = next(ks for g, ks in self._expand[parent] if g == f)
            children = tuple(cur if m == slot else self._common[kids[m - 1]]
                             for m in range(1, len(kids) + 1))
            cur = Tree(f, children)
            p = parent
        return cur


def shortest_domain_tree(M: Ltw, q: str) -> Tree | None:
    """Some smallest-height tree in the domain of q (None if empty)."""
    c = _cache(M)
    if "sdt" not in c:
        trees: dict[str, Tree] = {}
        rules = ((r.state, r, [callee for callee, _ in r.calls], 0)
                 for p in M.states for r in M.rules_of(p))
        for p, (_, r, _) in settle(rules).items():
            by = {s: trees[callee] for callee, s in r.calls}
            trees[p] = Tree(r.symbol, tuple(by[m] for m in range(1, r.arity + 1)))
        c["sdt"] = trees
    return c["sdt"].get(q)


@dataclass
class DomainCheck:
    equal: bool
    witness: Tree | None = None
    pair: tuple[str, str] | None = None
    detail: str = ""


def domains_equal(ps: PairSpace) -> DomainCheck:
    """Domain equality of the two machines (assumed trimmed).

    At every co-reachable pair the two states must offer the same symbols at
    the same arities, and every slot pair under a common symbol must own a
    common tree.  Any violation yields a verified one-sided input tree.
    """
    M1, M2 = ps.M1, ps.M2
    for pair in ps.co:
        p1, p2 = pair
        sy1 = {r.symbol: r.arity for r in M1.rules_of(p1)}
        sy2 = {r.symbol: r.arity for r in M2.rules_of(p2)}
        if sy1 != sy2:
            order = list(M1.alphabet) + [f for f in M2.alphabet if f not in M1.alphabet]
            f = next(g for g in order if sy1.get(g) != sy2.get(g))
            if f in sy1:
                M, st = M1, p1
            else:
                M, st = M2, p2
            r = M.rule(st, f)
            by = {s: shortest_domain_tree(M, callee) for callee, s in r.calls}
            sub = Tree(f, tuple(by[m] for m in range(1, r.arity + 1)))
            return DomainCheck(False, ps.context(pair, sub), pair,
                               f"symbol {f} offered on one side only (or at a different arity)")
        for f, kids in ps.expansions(pair):
            bad = next((i for i, k in enumerate(kids) if k not in ps.productive), None)
            if bad is None:
                continue
            r1 = M1.rule(p1, f)
            by1 = {s: c for c, s in r1.calls}
            children = []
            for m in range(1, r1.arity + 1):
                kid = kids[m - 1]
                if kid in ps.productive:
                    children.append(ps.common_tree(kid))
                else:
                    children.append(shortest_domain_tree(M1, by1[m]))
            sub = Tree(f, tuple(children))
            return DomainCheck(False, ps.context(pair, sub), pair,
                               f"slot {bad + 1} of {f} has no common tree")
    return DomainCheck(True)


def same_ordered(ps: PairSpace) -> bool:
    """Both machines consume children in the same display order everywhere
    they can run together.

    A rule only one side has is a domain difference, not an order
    difference, so it is left to the domain check."""
    M1, M2 = ps.M1, ps.M2
    for p1, p2 in ps.co:
        syms = set(M1.rule_symbols(p1)) & set(M2.rule_symbols(p2))
        for f in syms:
            if M1.rule(p1, f).slots != M2.rule(p2, f).slots:
                return False
    return True
